"""Kernel backend selection: compiled extension or pure numpy.

The compiled core (``xdboost._native``) covers the two inner-loop pieces
that numpy cannot delegate to BLAS: scatter-add accumulation of embedding
gradients (``np.add.at`` is unbuffered but slow) and the elementwise Adam
update (numpy allocates several temporaries per parameter tensor).

Set ``XDBOOST_FORCE_NUMPY`` to ``1``, ``true`` or ``yes`` (any case) to
force the fallback; ``BACKEND`` reports which path is active. Both paths
are bit-identical, which the tests check.
"""

import os

import numpy as np

try:
    from . import _native
except ImportError:
    _native = None

_FORCE_NUMPY = os.environ.get("XDBOOST_FORCE_NUMPY", "").strip().lower() in ("1", "true", "yes")
BACKEND = "numpy" if (_native is None or _FORCE_NUMPY) else "native"


def _scatter_add_rows_np(out, idx, rows):
    np.add.at(out, idx, rows)


def _scatter_add_scalars_np(out, idx, vals):
    np.add.at(out, idx, vals)


def _adam_update_np(param, grad, m, v, lr, beta1, beta2, eps, bc1, bc2):
    # Op order matches the compiled kernel so results stay bit-identical.
    g2 = grad * grad
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * g2
    mhat = m / bc1
    vhat = v / bc2
    param -= lr * mhat / (np.sqrt(vhat) + eps)


def scatter_add_rows(out, idx, rows):
    """out[idx[i], :] += rows[i, :] with duplicate indices accumulated."""
    if BACKEND == "native":
        _native.scatter_add_rows(out, idx, rows)
    else:
        _scatter_add_rows_np(out, idx, rows)


def scatter_add_scalars(out, idx, vals):
    """out[idx[i]] += vals[i] with duplicate indices accumulated."""
    if BACKEND == "native":
        _native.scatter_add_scalars(out, idx, vals)
    else:
        _scatter_add_scalars_np(out, idx, vals)


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, t):
    """In-place bias-corrected Adam step on one parameter vector.

    ``param``, ``m`` and ``v`` are mutated; ``t`` is the already-incremented
    step counter (t >= 1).
    """
    if not param.flags.c_contiguous:
        raise ValueError("adam_update requires C-contiguous parameters")
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    p, g = param.reshape(-1), np.ascontiguousarray(grad).reshape(-1)
    mm, vv = m.reshape(-1), v.reshape(-1)
    if BACKEND == "native":
        _native.adam_update(p, g, mm, vv, lr, beta1, beta2, eps, bc1, bc2)
    else:
        _adam_update_np(p, g, mm, vv, lr, beta1, beta2, eps, bc1, bc2)
