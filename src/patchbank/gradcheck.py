"""Finite-difference verification of taped gradients."""

from __future__ import annotations

import numpy as np

from .checks import check_int, check_real
from .tensor import GradTape, Tensor


def finite_difference_check(f, x: Tensor, eps: float = 1e-4, max_coords: int | None = None,
                            rng=None) -> float:
    """Max relative error between the taped gradient of f at x and central differences.

    ``f`` maps a Tensor to a rank-0 Tensor.  Each checked coordinate i
    compares the analytic gradient a_i against
    (f(x + eps*e_i) - f(x - eps*e_i)) / (2*eps), with relative error
    |a_i - n_i| / max(1, |a_i|, |n_i|).  ``max_coords`` limits the sweep to
    a random coordinate subset (all coordinates by default).  A NaN or inf
    in either gradient makes that coordinate's error, and the result, NaN,
    so a ``< tol`` check fails.
    """
    check_real("eps", eps)
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps!r}")
    if max_coords is not None:
        check_int("max_coords", max_coords, 1)
    x = x if isinstance(x, Tensor) else Tensor(x)
    probe = Tensor(x.data.copy(), requires_grad=True)
    with GradTape() as tape:
        y = f(probe)
    if y.data.shape != ():
        raise ValueError(f"f must return a rank-0 tensor, got shape {y.shape}")
    # An f that ignores x records nothing, and its gradient is zero.
    g = None
    if y.requires_grad:
        tape.backward(y)
        g = tape.grad(probe)
    analytic = np.zeros_like(probe.data) if g is None else g.data

    n = probe.data.size
    if max_coords is not None and max_coords < n:
        rng = np.random.default_rng(rng)
        coords = np.sort(rng.choice(n, size=max_coords, replace=False))
    else:
        coords = np.arange(n)

    flat = probe.data.reshape(-1)
    aflat = analytic.reshape(-1)
    errs = np.empty(len(coords))
    for e, i in enumerate(coords):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(probe).data)
        flat[i] = orig - eps
        fm = float(f(probe).data)
        flat[i] = orig
        # Python floats: inf - inf and inf / inf give NaN without a warning.
        analytic_i, numeric = float(aflat[i]), (fp - fm) / (2.0 * eps)
        errs[e] = abs(analytic_i - numeric) / max(1.0, abs(analytic_i), abs(numeric))
    # np.max keeps a NaN, where the builtin max would drop it.
    return float(errs.max())
