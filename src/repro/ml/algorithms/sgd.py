"""The minibatch SGD loop the linear trainers share (MLlib's GradientDescent)."""

import numpy as np


def minibatch_sgd(
    name: str,
    X: np.ndarray,
    y: np.ndarray,
    gradient,
    iterations: int,
    step: float,
    reg_param: float,
    checkpoint=None,  # TrainCheckpointer | None (§6 resumable training)
    rng=None,  # sampling generator; None = full batches, no rng in checkpoints
    minibatch_fraction: float = 1.0,
    fit_intercept: bool = True,
) -> tuple[np.ndarray, float]:
    """``(weights, intercept)`` after ``iterations`` steps over the rows of
    ``(X, y)``, every partition stacked into one pair.  ``gradient(X, y, w,
    b)`` returns the ``(grad_w, grad_b)`` sums over its rows; each step
    takes one over the whole batch (or the rows a ``minibatch_fraction``
    draw keeps) and moves by ``step / sqrt(t)`` times the mean gradient
    plus L2 ``reg_param``.  Checkpoints are tagged ``name``."""
    w = np.zeros(X.shape[1])
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
        batch_X, batch_y = X, y
        if minibatch_fraction < 1.0:
            mask = rng.random(len(y)) < minibatch_fraction
            batch_X, batch_y = X[mask], y[mask]
        if len(batch_y):
            grad_w, grad_b = gradient(batch_X, batch_y, w, b)
            step_t = step / np.sqrt(t)
            w -= step_t * (grad_w / len(batch_y) + reg_param * w)
            if fit_intercept:
                b -= step_t * (grad_b / len(batch_y))
        if checkpoint is not None:
            checkpoint.iteration_done(t, lambda: state(t))
    return w, b
