"""The minibatch SGD loop the linear trainers share (MLlib's GradientDescent)."""

import numpy as np


def minibatch_sgd(
    name: str,
    parts: list,
    gradient,
    iterations: int,
    step: float,
    reg_param: float,
    checkpoint=None,  # TrainCheckpointer | None (§6 resumable training)
    rng=None,  # sampling generator; None = full batches, no rng in checkpoints
    minibatch_fraction: float = 1.0,
    fit_intercept: bool = True,
) -> tuple[np.ndarray, float]:
    """``(weights, intercept)`` after ``iterations`` steps over the
    per-partition ``(X, y)`` pairs.  ``gradient(X, y, w, b)`` returns one
    partition's ``(grad_w, grad_b)`` sums, or None for a zero gradient; each
    step moves by ``step / sqrt(t)`` times the mean gradient plus L2
    ``reg_param``.  Checkpoints are tagged ``name``."""
    w = np.zeros(parts[0][0].shape[1])
    b = 0.0
    start_t = 1
    if checkpoint is not None:
        restored = checkpoint.restore(name)
        if restored is not None:
            w = np.array(restored["weights"], dtype=float)
            b = float(restored["intercept"])
            if rng is not None:
                rng.bit_generator.state = restored["rng_state"]
            start_t = int(restored["iteration"]) + 1

    def state(t: int) -> dict:
        saved = {"algorithm": name, "iteration": t, "weights": w.copy(), "intercept": b}
        if rng is not None:
            saved["rng_state"] = rng.bit_generator.state
        saved["step"] = step / np.sqrt(t)
        return saved

    for t in range(start_t, iterations + 1):
        grad_w = np.zeros(len(w))
        grad_b = 0.0
        batch_size = 0
        for X, y in parts:
            if minibatch_fraction < 1.0:
                mask = rng.random(len(y)) < minibatch_fraction
                X, y = X[mask], y[mask]
            if len(y) == 0:
                continue
            partial = gradient(X, y, w, b)
            if partial is not None:
                grad_w += partial[0]
                grad_b += partial[1]
            batch_size += len(y)
        if batch_size:
            step_t = step / np.sqrt(t)
            w -= step_t * (grad_w / batch_size + reg_param * w)
            if fit_intercept:
                b -= step_t * (grad_b / batch_size)
        if checkpoint is not None:
            checkpoint.iteration_done(t, lambda: state(t))
    return w, b
