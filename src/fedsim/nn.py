"""Neural-network substrate for the federation engine.

Parameter containers, forward/backward passes for two small classifier
architectures (softmax regression and a one-hidden-layer tanh MLP),
cross-entropy loss, momentum SGD, and argmax prediction.

A model is one contiguous float64 vector with named 2-D views, laid out by
its model's ``Layout`` (``model_layout``), which names the model kind.
``ParameterSet(flat, layout)`` is the read-only unit of exchange; a learner
trains in place in its row of a learner bank, a plain vector. The
step kernels run on a cohort of models stacked along a leading member axis
(a cohort of one drops the axis) and write into a reusable ``Workspace``;
every member's slice goes through the same floating-point operations in the
same order as a model trained alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SOFTMAX_REGRESSION = "softmax-regression"
MLP_1HIDDEN = "mlp-1hidden"
MODEL_KINDS = (SOFTMAX_REGRESSION, MLP_1HIDDEN)


class ShapeError(ValueError):
    """Matrix shapes or parameter layouts disagree."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture descriptor; with ``init_seed`` it fully determines the
    initial parameters, so every learner can start from the same model."""

    kind: str
    input_dim: int
    num_classes: int
    hidden_dim: int = 0
    init_seed: int = 1990

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind: {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.kind == MLP_1HIDDEN and self.hidden_dim < 1:
            raise ValueError("mlp-1hidden needs hidden_dim >= 1")
        if self.init_seed < 0:
            raise ValueError("init_seed must be non-negative")


@dataclass(frozen=True)
class Layout:
    """A model kind and the names and shapes of its matrices, stored back to
    back in a flat vector. ``model_layout`` builds it from a ``ModelSpec``."""

    kind: str
    entries: tuple[tuple[str, int, int], ...]

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.entries)

    @cached_property
    def size(self) -> int:
        return sum(rows * cols for _, rows, cols in self.entries)

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """One view of ``flat`` per entry; writes go through to ``flat``.

        A vector gives (rows, cols) matrices; a C-contiguous (M, size) stack
        of M vectors gives (M, rows, cols) views.
        """
        lead = flat.shape[:-1]
        out, offset = [], 0
        for _, rows, cols in self.entries:
            out.append(flat[..., offset : offset + rows * cols].reshape(*lead, rows, cols))
            offset += rows * cols
        return tuple(out)


def model_layout(spec: ModelSpec) -> Layout:
    """The layout of ``spec``'s model; the one place a ``Layout`` is built."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    if spec.kind == SOFTMAX_REGRESSION:
        return Layout(spec.kind, (("W", d, c), ("b", 1, c)))
    return Layout(spec.kind, (("W1", d, h), ("b1", 1, h), ("W2", h, c), ("b2", 1, c)))


class ParameterSet:
    """A model as one read-only float64 vector — the unit of model exchange:
    ``flat``, laid out by ``layout``, with one view per entry in ``arrays``.

    The set adopts ``flat``, a float64 vector of ``layout.size`` values,
    without a copy; pass only a vector nothing else will write to. Its values
    are checked finite and frozen, so instances can be shared freely between
    learners, the controller cache and the community model.
    """

    __slots__ = ("layout", "flat", "arrays")

    def __init__(self, flat: np.ndarray, layout: Layout) -> None:
        if not (
            isinstance(flat, np.ndarray)
            and flat.dtype == np.float64
            and flat.shape == (layout.size,)
            and flat.flags.c_contiguous
        ):
            raise ShapeError(
                f"expected a contiguous float64 vector of {layout.size} values for {layout.names}"
            )
        if not np.isfinite(flat).all():
            views = zip(layout.names, layout.views(flat))
            bad = next(n for n, a in views if not np.isfinite(a).all())
            raise ShapeError(f"entry {bad!r} contains non-finite values")
        flat.setflags(write=False)
        self.layout = layout
        self.flat = flat
        self.arrays = layout.views(flat)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}{a.shape}" for n, a in zip(self.layout.names, self.arrays))
        return f"ParameterSet({inner})"


def scale(params: ParameterSet, alpha: float) -> ParameterSet:
    """Entrywise alpha * params. Nothing in fedsim calls it; the benchmark's
    audit-gate test uses it to nudge a community model."""
    return ParameterSet(alpha * params.flat, params.layout)


def init_parameters(spec: ModelSpec) -> ParameterSet:
    """Deterministic Glorot-uniform weight matrices, zero biases.

    Uses a counter-based generator keyed on ``init_seed``, drawn for the
    weight matrices in entry order: identical specs yield bit-identical
    parameter sets on any platform.
    """
    rng = np.random.Generator(np.random.Philox(key=spec.init_seed))
    layout = model_layout(spec)
    flat = np.zeros(layout.size)
    for (name, rows, cols), view in zip(layout.entries, layout.views(flat)):
        if not name.startswith("b"):
            r = math.sqrt(6.0 / (rows + cols))
            view[...] = rng.uniform(-r, r, size=(rows, cols))
    return ParameterSet(flat, layout)


def check_dataset(layout: Layout, data) -> None:
    """Raise unless a ``fedsim.data.Dataset`` has the input width and the class
    count of a model of ``layout``. Constant time: a ``Dataset`` range-checks
    its read-only labels when it is built. A federation checks every dataset
    it reads once, when it is built; the kernels below trust their inputs."""
    dim, classes = layout.entries[0][1], layout.entries[-1][2]
    width = data.rows.shape[1]
    if width != dim:
        raise ShapeError(f"feature dim {width} does not match input dim {dim}")
    if data.num_classes != classes:
        raise ShapeError(f"model predicts {classes} classes, dataset declares {data.num_classes}")


# The kernels below write into caller-provided buffers. They take a single
# model (2-D matrices) or a cohort stacked along a leading member axis (3-D);
# every reduction runs along the class or the batch axis, so each member's
# slice sees the same operations in the same order either way. A cohort of
# one passes 2-D arrays: a stacked matmul costs about a microsecond more per
# call than a 2-D one. Training reuses the buffers of one Workspace; predict
# and backward run the same kernels on fresh buffers.
#
# A step is a few dozen numpy calls on arrays of a few hundred values, so
# each call's fixed cost sets its speed, and every shortcut below keeps the
# bits of the plain formulation (tests/kernel_reference.py):
# - the kernels read the batch's one-hot targets, not one fancy-indexed
#   entry per sample: the gradient subtracts them, since x - 0.0 == x, and
#   the loss sums logp * t over the classes, all but one term a zero;
# - reductions call the ufuncs directly, without ndarray's Python wrappers;
# - a row max over at most _COLUMN_MAX_CLASSES classes is a chain of
#   np.maximum calls over column views. A max never rounds, and up to 8
#   columns the chain returns what the reduction does, the sign of a tied
#   zero included; past 8 the reduction is the cheaper call anyway. The
#   class sum stays a reduction: numpy sums 8 or more terms pairwise.
_COLUMN_MAX_CLASSES = 8


def _forward_into(
    kind: str, arrays, x: np.ndarray, logits: np.ndarray, hidden: np.ndarray | None
) -> None:
    if kind == SOFTMAX_REGRESSION:
        w, b = arrays
        np.matmul(x, w, out=logits)
        logits += b
        return
    w1, b1, w2, b2 = arrays
    np.matmul(x, w1, out=hidden)
    hidden += b1
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, w2, out=logits)
    logits += b2


def _log_softmax_into(s: "_CohortScratch", out: np.ndarray) -> None:
    """Row-wise log-softmax of ``s.logits`` into ``out``, which may be
    ``s.logits``; ``s.col`` and ``s.exp`` are scratch."""
    z, col, exp, columns = s.logits, s.col, s.exp, s.columns
    if columns:
        np.maximum(columns[0], columns[1], out=col)
        for column in columns[2:]:
            np.maximum(col, column, out=col)
    else:
        np.maximum.reduce(z, axis=-1, keepdims=True, out=col)
    np.subtract(z, col, out=out)
    np.exp(out, out=exp)
    np.add.reduce(exp, axis=-1, keepdims=True, out=col)
    np.log(col, out=col)
    out -= col


# Distinct (members, rows) cohort shapes whose scratch views a Workspace keeps.
_CACHED_SHAPES = 32


class Workspace:
    """Scratch buffers for cohort steps of one parameter layout.

    Each named buffer grows to the largest cohort seen and is then reused, so
    a training step allocates no batch- or model-sized array (a cohort
    shape's uint8 batch is made once, ``_CohortScratch.pixels``). The
    cohorts of one thread train one at a time, so one workspace serves all
    of a federation's training on that thread. ``shuffle`` is the one generator
    that the learners' epoch shuffles reseat with a key before each
    permutation: ``seat`` is the Philox state it is reseated with, a zero
    counter and empty output buffers, whose key alone each shuffle swaps.
    The keys are the learners' own. ``spares`` are the workspaces of threads
    that train beside this one for an epoch, made on first need and reused.
    """

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self._store: dict[str, np.ndarray] = {}
        self._shapes: dict[tuple[int, int], _CohortScratch] = {}
        self.spares: list[Workspace] = []
        self.shuffle = np.random.Generator(np.random.Philox(0))
        zeros = (0, 0, 0, 0)  # Python ints: Philox's state setter reads them fastest
        self.seat = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": [0, 0]},
            "buffer": zeros,
            "buffer_pos": 4,  # past the end of Philox's 4-word output buffer: empty
            "has_uint32": 0,
            "uinteger": 0,
        }

    def member_bytes(self, rows: int) -> int:
        """Scratch bytes one cohort member adds at batches of ``rows``
        samples: five stacked parameter vectors plus its batch buffers."""
        entries = self.layout.entries
        dim, classes = entries[0][1], entries[-1][2]
        width = entries[0][2] if self.layout.kind == MLP_1HIDDEN else 0
        return 8 * (5 * self.layout.size + rows * (dim + 1 + 4 * classes + 3 * width))

    def array(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A C-contiguous view of the shared buffer ``name`` (one dtype per
        name); its contents are whatever the last user left there."""
        size = math.prod(shape)
        buf = self._store.get(name)
        if buf is None or buf.size < size:
            buf = self._store[name] = np.empty(size, dtype)
            self._shapes.clear()  # drop views that keep the old buffer alive
        return buf[:size].reshape(shape)

    def batch(self, members: int, rows: int) -> "_CohortScratch":
        """Scratch for one step of ``members`` models on ``rows`` samples each."""
        key = (members, rows)
        scratch = self._shapes.get(key)
        if scratch is None:
            if len(self._shapes) >= _CACHED_SHAPES:
                self._shapes.clear()
            scratch = self._shapes[key] = _CohortScratch(self, members, rows)
        return scratch

    def loss(self, arrays, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Mean cross-entropy of each model on its samples, as an (M,) array.

        A cohort of M > 1 passes per-entry (M, rows, cols) ``arrays``, ``x``
        M x m x d and one-hot targets ``t`` M x m x C; a cohort of one passes
        them without the member axis. The logits are left in
        ``batch(M, m).logits``.
        """
        m = t.shape[-2]
        s = self.batch(t.shape[0] if t.ndim == 3 else 1, m)
        _forward_into(self.layout.kind, arrays, x, s.logits, s.hidden)
        _log_softmax_into(s, s.logp)
        # A row of t holds one 1.0 and zeros, and logp is finite, so the class
        # sum of logp * t is the label's log-probability exactly.
        np.multiply(s.logp, t, out=s.exp)
        np.add.reduce(s.exp, axis=-1, keepdims=True, out=s.col)
        # The sum divided by the count is what ``mean`` computes, bit for bit.
        return -(np.add.reduce(s.col.reshape(-1, m), axis=1) / m)

    def gradient(self, arrays, s: "_CohortScratch") -> np.ndarray:
        """Mean cross-entropy gradient of each model (``arrays`` as in
        ``loss``) over its batch, which the caller has gathered into ``s.x``
        (features) and ``s.t`` (one-hot targets) of ``s = batch(M, m)``.
        Writes ``s.grad``
        (M x layout.size, or one vector for a cohort of one) and returns it."""
        kind, g, hidden, dlogits = self.layout.kind, s.grad_views, s.hidden, s.logits
        _forward_into(kind, arrays, s.x, dlogits, hidden)
        _log_softmax_into(s, dlogits)
        np.exp(dlogits, out=dlogits)
        dlogits -= s.t
        dlogits /= s.rows
        if kind == SOFTMAX_REGRESSION:
            np.matmul(s.x_t, dlogits, out=g[0])
            np.add.reduce(dlogits, axis=-2, keepdims=True, out=g[1])
            return s.grad
        dpre, square = s.dhidden, s.square
        np.matmul(dlogits, arrays[2].swapaxes(-1, -2), out=dpre)
        np.multiply(hidden, hidden, out=square)
        np.subtract(1.0, square, out=square)
        dpre *= square
        np.matmul(s.x_t, dpre, out=g[0])
        np.add.reduce(dpre, axis=-2, keepdims=True, out=g[1])
        np.matmul(s.hidden_t, dlogits, out=g[2])
        np.add.reduce(dlogits, axis=-2, keepdims=True, out=g[3])
        return s.grad


class _CohortScratch:
    """C-contiguous views of a workspace's buffers for one (members, rows)
    cohort shape: the batch of features ``x`` and one-hot targets ``t``, the
    forward and backward intermediates, the gradient and a free array of the
    same shape (``tmp``). Every array has a leading member axis, except for a
    cohort of one. ``columns`` holds the logits' column views when the row
    max is taken column by column, else it is empty. uint8 rows are gathered
    into ``pixels``, an array of ``x``'s shape made on first use, and then
    scaled into ``x``."""

    def __init__(self, ws: Workspace, members: int, rows: int) -> None:
        entries = ws.layout.entries
        dim, width, classes = entries[0][1], entries[0][2], entries[-1][2]
        lead = (members,) if members > 1 else ()
        self.rows = rows
        self.x = ws.array("x", (*lead, rows, dim))
        self.x_t = self.x.swapaxes(-1, -2)
        self.t = ws.array("t", (*lead, rows, classes))
        self.logits = ws.array("logits", (*lead, rows, classes))
        self.columns = ()
        if 1 < classes <= _COLUMN_MAX_CLASSES:
            self.columns = tuple(self.logits[..., c : c + 1] for c in range(classes))
        self.logp = ws.array("logp", (*lead, rows, classes))
        self.exp = ws.array("exp", (*lead, rows, classes))
        self.col = ws.array("col", (*lead, rows, 1))
        self.hidden = self.hidden_t = self.dhidden = self.square = None
        if ws.layout.kind == MLP_1HIDDEN:
            self.hidden = ws.array("hidden", (*lead, rows, width))
            self.hidden_t = self.hidden.swapaxes(-1, -2)
            self.dhidden = ws.array("dhidden", (*lead, rows, width))
            self.square = ws.array("square", (*lead, rows, width))
        self.grad = ws.array("grad", (*lead, ws.layout.size))
        self.grad_views = ws.layout.views(self.grad)
        self.tmp = ws.array("tmp", (*lead, ws.layout.size))

    @cached_property
    def pixels(self) -> np.ndarray:
        return np.empty(self.x.shape, np.uint8)


def momentum_update(
    w: np.ndarray, u: np.ndarray, g: np.ndarray, gamma: float, eta: float, tmp: np.ndarray
) -> None:
    """In place: u <- gamma*u + g, then w <- w - eta*u; ``tmp`` is scratch."""
    u *= gamma
    u += g
    np.multiply(u, eta, out=tmp)
    w -= tmp


def backward(params: ParameterSet, x: np.ndarray, y: np.ndarray) -> ParameterSet:
    """Mean cross-entropy gradient of one model over the samples ``x`` (n x d)
    and labels ``y``, computed by ``Workspace.gradient`` in fresh buffers."""
    ws = Workspace(params.layout)
    s = ws.batch(1, len(y))
    s.x[...], s.t[...] = x, np.eye(params.layout.entries[-1][2])[y]
    return ParameterSet(ws.gradient(params.arrays, s).copy(), params.layout)


def predict(params: ParameterSet, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest class index. The
    caller has checked the features' width (``check_dataset``)."""
    x = np.asarray(features, dtype=np.float64)
    kind = params.layout.kind
    hidden = np.empty((len(x), params.arrays[0].shape[1])) if kind == MLP_1HIDDEN else None
    logits = np.empty((len(x), params.arrays[-1].shape[1]))
    _forward_into(kind, params.arrays, x, logits, hidden)
    return np.argmax(logits, axis=1)
