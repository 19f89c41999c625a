"""The two inner-loop kernels of training, in numpy.

``scatter_add_scalars`` accumulates every categorical gradient of a batch
(embedding tables and first-order weights alike) with one ``np.bincount``
over flat bucket indices, so each training step makes one call.
``adam_update`` is the fused Adam step over a whole parameter vector.
``BACKEND`` is reported in run provenance; it is always ``"numpy"``.
"""

import numpy as np

BACKEND = "numpy"


def scatter_add_scalars(out, idx, vals):
    """out[idx[i]] += vals[i] with duplicate indices accumulated.

    Each bucket's values are summed in index order from zero and the sums
    are then added to ``out``, so into a zeroed ``out`` the result equals
    an in-order loop bit for bit.
    """
    out += np.bincount(idx, weights=vals, minlength=out.size)


def adam_update(param, grad, m, v, lr, beta1, beta2, eps, t):
    """In-place bias-corrected Adam step on one parameter vector.

    ``param``, ``m`` and ``v`` are mutated; ``t`` is the already-incremented
    step counter (t >= 1).
    """
    if not param.flags.c_contiguous:
        raise ValueError("adam_update requires C-contiguous parameters")
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    param, grad = param.reshape(-1), np.ascontiguousarray(grad).reshape(-1)
    m, v = m.reshape(-1), v.reshape(-1)
    g2 = grad * grad
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * g2
    mhat = m / bc1
    vhat = v / bc2
    param -= lr * mhat / (np.sqrt(vhat) + eps)
