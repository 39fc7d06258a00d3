"""The benchmark's own inputs: the paper's retail scenario and a points table.

Modelled on ``repro.workloads.retail`` / ``loadgen`` (same schemas, same text
rows, same label model) but owned by the benchmark: later edits under
``src/repro/workloads`` must not be able to change the load.  Only numpy is
used here; :mod:`bench_e2e.adapter` writes the rendered text to the
DFS, and :mod:`bench_e2e.reference` recomputes the expected results from the
same arrays.
"""

from dataclasses import dataclass

import numpy as np

NUM_USERS = 2_000
CARTS_PER_USER = 10
NUM_POINTS = 240

#: country -> users per 20: exact shares, so that the number of rows each
#: query selects is the same for every seed (a seed only permutes who is who;
#: with independent draws the transformed record count moved by +-3% from
#: seed to seed, and the timings with it)
COUNTRY_SHARES = {"USA": 8, "DE": 3, "FR": 3, "UK": 3, "JP": 2, "BR": 1}
#: the years of every user's ten carts
YEARS_PER_USER = (2012,) * 2 + (2013,) * 3 + (2014,) * 5
CHANNELS = ("web", "mobile", "app", "kiosk")
COUPONS = ("", "SAVE10", "FREESHIP", "VIP2014", "NEWUSER8")


@dataclass(frozen=True)
class RetailData:
    """Column arrays of the two tables (row ``i`` of a table is index ``i``)."""

    ages: np.ndarray
    genders: np.ndarray
    countries: np.ndarray
    user_ids: np.ndarray
    amounts: np.ndarray
    n_items: np.ndarray
    years: np.ndarray
    created: list
    channels: np.ndarray
    coupons: np.ndarray
    abandoned: np.ndarray


def generate_retail(seed: int, num_users: int = NUM_USERS) -> RetailData:
    """The paper's users and carts tables (``num_users`` a multiple of 40).

    Sizes are exact: 40% of users are in the USA, half of each country's
    users are women, every user has ten carts, five of them from 2014.
    """
    rng = np.random.default_rng([seed, 0])
    per_20 = np.repeat(list(COUNTRY_SHARES), list(COUNTRY_SHARES.values()))
    who = rng.permutation(num_users)
    countries = np.tile(per_20, num_users // 20)[who]
    # users i and i + 20 have the same country, so alternating by block of
    # 20 splits every country's users into equal halves
    genders = np.repeat(["F", "M"], 20)[np.arange(num_users) % 40][who]
    ages = rng.integers(18, 80, size=num_users)

    rng = np.random.default_rng([seed, 1])
    num_carts = num_users * CARTS_PER_USER
    which = rng.permutation(num_carts)
    user_ids = np.repeat(np.arange(num_users), CARTS_PER_USER)[which]
    years = np.tile(YEARS_PER_USER, num_users)[which]
    amounts = np.round(np.exp(rng.normal(3.6, 1.0, size=num_carts)), 2)
    n_items = rng.integers(1, 20, size=num_carts)
    months = rng.integers(1, 13, size=num_carts)
    days = rng.integers(1, 29, size=num_carts)
    hours = rng.integers(0, 24, size=num_carts)
    minutes = rng.integers(0, 60, size=num_carts)
    channels = rng.choice(CHANNELS, size=num_carts, p=(0.5, 0.3, 0.15, 0.05))
    coupons = np.array(COUPONS)[rng.integers(0, len(COUPONS), size=num_carts)]
    # The label is logistic in amount, gender and age, so the SVM has signal.
    logits = (
        -1.8
        + 0.012 * amounts
        + 1.4 * (genders[user_ids] == "F").astype(float)
        - 0.04 * (ages[user_ids] - 45)
    )
    abandoned = rng.random(num_carts) < 1.0 / (1.0 + np.exp(-logits))
    created = [
        f"{y}-{mo:02d}-{d:02d} {h:02d}:{mi:02d}:00"
        for y, mo, d, h, mi in zip(years, months, days, hours, minutes)
    ]
    return RetailData(
        ages, genders, countries, user_ids, amounts, n_items, years,
        created, channels, coupons, abandoned,
    )


def users_lines(data: RetailData) -> list[str]:
    """``userid,age,gender,country`` text rows."""
    return [
        f"{uid},{data.ages[uid]},{data.genders[uid]},{data.countries[uid]}"
        for uid in range(len(data.ages))
    ]


def carts_lines(data: RetailData) -> list[str]:
    """``cartid,userid,amount,nItems,year,created,channel,couponCode,abandoned``."""
    return [
        f"{cid},{data.user_ids[cid]},{data.amounts[cid]},{data.n_items[cid]},"
        f"{data.years[cid]},{data.created[cid]},{data.channels[cid]},"
        f"{data.coupons[cid]},{'Yes' if data.abandoned[cid] else 'No'}"
        for cid in range(len(data.user_ids))
    ]


def points_rows(num_points: int = NUM_POINTS) -> list[tuple]:
    """``(id, f1, f2, label)`` rows of the small table every session trains on."""
    return [
        (i, float(i % 7), float(i % 5), 1.0 if i % 2 else -1.0)
        for i in range(num_points)
    ]
