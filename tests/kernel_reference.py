"""The step kernels in their first formulation, kept as an oracle.

``Workspace.loss`` and ``Workspace.gradient`` once took the row max with
``ndarray.max`` and the class sum with ``ndarray.sum``, and read each
sample's label through a fancy index: the loss picked its log-probability,
the gradient subtracted 1.0 from its entry. The functions below keep
that formulation as allocating numpy expressions, operation for operation,
for a single model (2-D arrays) or a cohort stacked along a leading member
axis; the kernels must reproduce them bit for bit.
"""

import numpy as np


def _forward(arrays, x):
    if len(arrays) == 2:
        w, b = arrays
        return None, np.matmul(x, w) + b
    w1, b1, w2, b2 = arrays
    hidden = np.tanh(np.matmul(x, w1) + b1)
    return hidden, np.matmul(hidden, w2) + b2


def _log_softmax(z):
    out = z - z.max(axis=-1, keepdims=True)
    return out - np.log(np.exp(out).sum(axis=-1, keepdims=True))


def reference_loss(arrays, x, y):
    """Mean cross-entropy of each model on its samples, as an (M,) array."""
    m = y.shape[-1]
    _, logits = _forward(arrays, x)
    logp = _log_softmax(logits).reshape(-1, logits.shape[-1])
    picked = logp[np.arange(y.size), y.reshape(-1)].reshape(-1, m)
    return -(picked.sum(axis=1) / m)


def reference_gradient(arrays, x, y):
    """Mean cross-entropy gradient of each model over its batch, as one flat
    vector per model (a single vector for 2-D arrays)."""
    m, classes = y.shape[-1], arrays[-1].shape[-1]
    hidden, logits = _forward(arrays, x)
    dlogits = np.exp(_log_softmax(logits))
    rows = dlogits.reshape(-1, classes)
    rows[np.arange(y.size), y.reshape(-1)] -= 1.0
    dlogits /= m
    if hidden is None:
        grads = [x.swapaxes(-1, -2) @ dlogits, dlogits.sum(axis=-2, keepdims=True)]
    else:
        dpre = np.matmul(dlogits, arrays[2].swapaxes(-1, -2))
        dpre *= 1.0 - hidden * hidden
        grads = [x.swapaxes(-1, -2) @ dpre, dpre.sum(axis=-2, keepdims=True)]
        grads += [hidden.swapaxes(-1, -2) @ dlogits, dlogits.sum(axis=-2, keepdims=True)]
    lead = x.shape[:-2]
    return np.concatenate([g.reshape(*lead, -1) for g in grads], axis=-1)
