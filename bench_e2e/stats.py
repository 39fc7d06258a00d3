"""Percentiles, spreads, and the before/after verdicts of ``compare``."""

import math
import statistics


def tail_percentile(n: int, cap: int, beyond: int = 10) -> int:
    """The highest whole percentile, at most ``cap`` and at least 50, that
    still has ``beyond`` of the ``n`` samples above it — a percentile with
    fewer samples beyond it is mostly the luck of a few ops."""
    supported = math.floor(100 * (1 - beyond / n)) if n > 0 else 50
    return max(50, min(cap, supported))


def verdict(metric: dict, a: dict, b: dict) -> tuple[str, float, float]:
    """Compare one metric of one workload between result sets A (before) and
    B (after): ``(verdict, worsening, spread)``.

    ``worsening`` is B's median relative to A's, positive when worse.
    ``spread`` is the wider of the two sides' round-to-round ranges, as a
    share of the median.  A spread wider than the bound leaves the metric
    *unresolved*, unless every round of one side beats every round of the
    other, which no amount of noise explains.
    """
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    spread = max(
        (max(side["rounds"]) - min(side["rounds"])) / statistics.median(side["rounds"])
        for side in (a, b)
    )
    worse = [sign * v for v in b["rounds"]]
    base = [sign * v for v in a["rounds"]]
    all_worse, all_better = min(worse) > max(base), max(worse) < min(base)
    bound = metric["bound"]
    if worsening > bound and (spread <= bound or all_worse):
        return "regressed", worsening, spread
    if spread > bound and not (all_worse or all_better):
        return "unresolved", worsening, spread
    return "ok", worsening, spread


def compare(a: dict, b: dict, end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Verdict lines for every (workload, end-to-end metric); the flag is
    true when any metric regressed."""
    lines, regressed = [], False
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        for metric in end_to_end:
            name = metric["name"]
            va = a["workloads"][workload]["end_to_end"][name]
            vb = b["workloads"][workload]["end_to_end"][name]
            result, worsening, spread = verdict(metric, va, vb)
            regressed |= result == "regressed"
            lines.append(
                f"{workload:<17} {name:<14} {va['value']:>12.5g} -> {vb['value']:>12.5g} "
                f"{metric['unit']:<9} worse by {worsening:+7.1%}  spread {spread:6.1%}  "
                f"bound {metric['bound']:.0%}  {result}"
            )
    return lines, regressed
