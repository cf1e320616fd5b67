"""Dense tensors with tape-based reverse-mode differentiation.

The models in this package run at desk scale: states are [1, H] row
vectors or [R, H] blocks of them, scalars are [1, 1], and every training
step records its forward pass on one explicit tape that is swept once in
reverse.  Inference runs tape-free.  `fit` is the training loop both models
share: epochs, the tape, Adam and the best epoch.

Most ops are one numpy expression and one tape record.  The exceptions
loop inside one record, with hand-written backwards.  `gru_sequence` is a
whole GRU run over known inputs, for one sequence or B independent ones of
any lengths stored one after another.  Inside, it packs them longest first
so that each step runs the prefix of sequences still going.  Its forward
multiplies all inputs by each gate's input weights in one matrix product
and loops only over the recurrent `h @ U` products; its backward loops
back through time over those prefix blocks and then forms every weight
gradient as one matrix product over the whole run.  `additive_scores`
scores R attention queries against n keys a cache-sized block of queries
at a time through one reused buffer, and its backward recomputes each
block's tanh there rather than keep an [n, R, H] block.

float32 is the working dtype; `using_dtype` exists so that numerical test
suites can run the identical op implementations in float64, where central
finite differences are meaningful.

Gradient contract: every adjoint lives in its tensor's `.grad`.  On leaves,
the tensors that no record on the tape produced (parameters and inputs
created with `requires_grad=True`), `Tape.backward` accumulates there.  An
intermediate result's adjoint builds up in `.grad` while the sweep visits
the records that read it; the record that made it takes it and sets `.grad`
back to None, so intermediates show None after a sweep.  For each input, a
vjp returns one of three things.  Gather ops (`embedding_lookup`,
`rows`/`row`, `take`, `pick`) return a row-sparse adjoint, which is added
into its target's one dense buffer.  Otherwise a vjp returns a view of its
output's adjoint `g`, which the sweep copies, or an array it has just made
for that input alone, which the sweep keeps as the input's buffer and adds
later contributions into in place.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "tape",
    "using_dtype",
    "default_dtype",
    "parameter",
    "zero_parameter",
    "zeros",
    "add",
    "mul",
    "matmul",
    "affine",
    "transpose",
    "tanh",
    "sigmoid",
    "softmax",
    "log",
    "concat",
    "rows",
    "row",
    "take",
    "pick",
    "embedding_lookup",
    "scatter_sum",
    "additive_scores",
    "gru_sequence",
    "Adam",
    "fit",
]

_DTYPE_STACK = [np.float32]


def default_dtype():
    """dtype given to tensors created right now."""
    return _DTYPE_STACK[-1]


@contextlib.contextmanager
def using_dtype(dtype):
    """Temporarily create tensors with a different dtype (e.g. float64)."""
    _DTYPE_STACK.append(np.dtype(dtype).type)
    try:
        yield
    finally:
        _DTYPE_STACK.pop()


class Tensor:
    """A dense array with an optional gradient buffer of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=default_dtype())
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.data.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def sum(self) -> "Tensor":
        return _sum_all(self)

    def mean(self) -> "Tensor":
        return mul(_sum_all(self), 1.0 / self.data.size)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, Tensor):
            return add(self, mul(other, -1.0))
        return add(self, -other)

    def __rsub__(self, other):
        # other - self, with other a plain number (e.g. 1.0 - gate)
        return add(mul(self, -1.0), other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


# ---------------------------------------------------------------------------
# tape

class Tape:
    """Ordered record of executed ops, replayed in reverse by backward()."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop every record, releasing the tensors they reference."""
        self._records.clear()

    def backward(self, root: Tensor) -> None:
        """Add d(root)/d(leaf) into `.grad` of every leaf the scalar `root`
        depends on.

        Repeated calls without zeroing accumulate, so two sweeps double every
        leaf gradient.
        """
        if root.data.size != 1:
            raise ValueError(f"backward needs a scalar root, got shape {root.data.shape}")
        if not root.requires_grad:
            raise ValueError("backward root was not recorded on a tape")
        root.grad = np.ones_like(root.data) if root.grad is None else root.grad + 1
        for out, inputs, vjp in reversed(self._records):
            # every record's inputs come before it, so out's adjoint is complete
            g, out.grad = out.grad, None
            if g is None:
                continue
            for tensor, grad in zip(inputs, vjp(g)):
                if grad is None or not tensor.requires_grad:
                    continue
                if tensor.grad is not None:
                    _add_into(tensor.grad, grad)
                elif isinstance(grad, _RowGrad):
                    tensor.grad = np.zeros(tensor.data.shape, dtype=grad.values.dtype)
                    _add_into(tensor.grad, grad)
                elif np.may_share_memory(grad, g):
                    # a view of g can reach several inputs; each gets a copy
                    tensor.grad = np.array(grad, copy=True)
                else:
                    # made by the vjp for this input alone, so it becomes the buffer
                    tensor.grad = grad


class _RowGrad(NamedTuple):
    """An adjoint that is zero outside `index` of its target.

    `index` is a row slice, a (row, column) pair, or an int array of
    distinct row ids; `values` is what adds there.
    """

    index: object
    values: np.ndarray


def _add_into(buffer: np.ndarray, grad) -> None:
    """buffer += grad, in place, for dense and row-sparse adjoints."""
    if isinstance(grad, _RowGrad):
        buffer[grad.index] += grad.values
    else:
        buffer += grad


_ACTIVE_TAPE: Tape | None = None


@contextlib.contextmanager
def tape():
    """Open the recording tape for one training step.  Tapes do not nest."""
    global _ACTIVE_TAPE
    if _ACTIVE_TAPE is not None:
        raise RuntimeError("a tape is already active; open one tape per training step")
    t = Tape()
    _ACTIVE_TAPE = t
    try:
        yield t
    finally:
        _ACTIVE_TAPE = None
        t.clear()


def _push(data: np.ndarray, inputs: tuple[Tensor, ...], vjp: Callable) -> Tensor:
    """Wrap an op result, recording it when a tape is active and needed."""
    track = _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        _ACTIVE_TAPE._records.append((out, inputs, vjp))
    return out


# ---------------------------------------------------------------------------
# construction helpers

def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=default_dtype()))


_INIT_CHUNK = 1 << 16   # elements drawn at a time by `parameter`


def parameter(rng: np.random.Generator, shape, scale: float = 0.1) -> Tensor:
    """Trainable tensor, uniform in [-scale, scale].

    The values are `rng.uniform(-scale, scale, size=shape)` cast to the
    working dtype, drawn in chunks of `_INIT_CHUNK` so that no float64 copy
    of a large weight is made; the generator's stream, and so every later
    draw, is the same as one whole draw's.
    """
    data = np.empty(shape, dtype=default_dtype())
    flat = data.reshape(-1)
    for start in range(0, flat.size, _INIT_CHUNK):
        stop = min(start + _INIT_CHUNK, flat.size)
        flat[start:stop] = rng.uniform(-scale, scale, size=stop - start)
    return Tensor(data, requires_grad=True)


def zero_parameter(shape) -> Tensor:
    """Trainable tensor initialized to zero (biases)."""
    return Tensor(np.zeros(shape, dtype=default_dtype()), requires_grad=True)


# ---------------------------------------------------------------------------
# ops

def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        shift = float(b)
        return _push(a.data + shift, (a,), lambda g: (g,))
    data = a.data + b.data
    a_shape, b_shape = a.data.shape, b.data.shape

    def vjp(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return _push(data, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        factor = float(b)
        return _push(a.data * factor, (a,), lambda g: (g * factor,))
    a_data, b_data = a.data, b.data

    def vjp(g):
        return (_unbroadcast(g * b_data, a_data.shape),
                _unbroadcast(g * a_data, b_data.shape))

    return _push(a_data * b_data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g @ b_data.T, a_data.T @ g

    return _push(a_data @ b_data, (a, b), vjp)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias, with bias a [1, n] row added to every row of x."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise ValueError(f"affine shape mismatch: {x.data.shape} x {weight.data.shape}")
    if bias.data.shape != (1, weight.data.shape[1]):
        raise ValueError(f"affine bias shape {bias.data.shape}, expected (1, {weight.data.shape[1]})")
    x_data, w_data = x.data, weight.data

    def vjp(g):
        return g @ w_data.T, x_data.T @ g, g.sum(axis=0, keepdims=True)

    return _push(x_data @ w_data + bias.data, (x, weight, bias), vjp)


def transpose(x: Tensor) -> Tensor:
    return _push(x.data.T.copy(), (x,), lambda g: (g.T,))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _push(out, (x,), lambda g: (g * (1.0 - out * out),))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; each side's form saturates to exact 0/1
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def sigmoid(x: Tensor) -> Tensor:
    out = _sigmoid_values(x.data)
    return _push(out, (x,), lambda g: (g * out * (1.0 - out),))


def softmax(x: Tensor, axis: int = 1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _push(out, (x,), vjp)


def log(x: Tensor, floor: float = 0.0) -> Tensor:
    """Natural log of the values clamped from below at `floor`; the clamped
    entries get no gradient."""
    safe = np.maximum(x.data, floor)
    mask = x.data > floor

    def vjp(g):
        return (np.where(mask, g / safe, 0.0),)

    return _push(np.log(safe), (x,), vjp)


def _sum_all(x: Tensor) -> Tensor:
    data = np.array([[x.data.sum()]], dtype=x.data.dtype)
    x_shape = x.data.shape

    def vjp(g):
        return (np.full(x_shape, g[0, 0], dtype=g.dtype),)

    return _push(data, (x,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat needs at least one tensor")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = np.cumsum([p.data.shape[axis] for p in parts])[:-1]

    def vjp(g):
        return tuple(np.split(g, sizes, axis=axis))

    return _push(data, tuple(parts), vjp)


def rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice x[start:stop] as a new tensor."""
    n = x.data.shape[0]
    if not (0 <= start < stop <= n):
        raise IndexError(f"row slice [{start}:{stop}] outside [0, {n}]")
    return _push(x.data[start:stop].copy(), (x,),
                 lambda g: (_RowGrad(slice(start, stop), g),))


def row(x: Tensor, index: int) -> Tensor:
    return rows(x, index, index + 1)


def take(x: Tensor, index) -> Tensor:
    """Rows x[index] for a sequence of distinct row ids, in its order."""
    ids = np.asarray(index, dtype=np.int64)
    n = x.data.shape[0]
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"take needs a non-empty list of row ids, got shape {ids.shape}")
    if ids.min() < 0 or ids.max() >= n:
        raise IndexError(f"take rows outside [0, {n})")
    if np.unique(ids).size != ids.size:
        raise ValueError("take needs distinct row ids")
    return _push(x.data[ids], (x,), lambda g: (_RowGrad(ids, g),))


def pick(x: Tensor, i, j) -> Tensor:
    """Entries x[i, j] as a [k, 1] column: one entry for ints, or one per
    pair of two equal-length index sequences whose (i, j) pairs are distinct."""
    i_ids = np.atleast_1d(np.asarray(i, dtype=np.int64))
    j_ids = np.atleast_1d(np.asarray(j, dtype=np.int64))
    n, m = x.data.shape
    if i_ids.shape != j_ids.shape or i_ids.ndim != 1:
        raise ValueError(f"pick needs equal-length index lists, got {i_ids.shape} and {j_ids.shape}")
    if np.any((i_ids < 0) | (i_ids >= n) | (j_ids < 0) | (j_ids >= m)):
        raise IndexError(f"pick ({i}, {j}) outside shape {x.data.shape}")
    if i_ids.size > 1 and np.unique(i_ids * m + j_ids).size != i_ids.size:
        raise ValueError("pick needs distinct (i, j) pairs")
    return _push(x.data[i_ids, j_ids].reshape(-1, 1), (x,),
                 lambda g: (_RowGrad((i_ids, j_ids), g[:, 0]),))


def embedding_lookup(table: Tensor, token_ids) -> Tensor:
    """Gather rows of `table`; backward scatter-adds into the table's
    gradient buffer, touching only the looked-up rows."""
    ids = np.asarray(list(token_ids), dtype=np.int64)
    n_rows = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
        bad = ids[(ids < 0) | (ids >= n_rows)][0]
        raise IndexError(f"token id {int(bad)} outside embedding range [0, {n_rows})")

    def vjp(g):
        # repeated ids add up among themselves first, then once into the
        # buffer, as a dense [V, E] scatter added in would round
        unique_ids, inverse = np.unique(ids, return_inverse=True)
        summed = np.zeros((unique_ids.size, g.shape[1]), dtype=g.dtype)
        np.add.at(summed, inverse, g)
        return (_RowGrad(unique_ids, summed),)

    return _push(table.data[ids], (table,), vjp)


def scatter_sum(x: Tensor, indices, size: int) -> Tensor:
    """Route every [T, n] row into a [T, size] row: column k of x adds into
    column indices[k], so colliding indices sum."""
    ids = np.asarray(list(indices), dtype=np.int64)
    if x.data.ndim != 2 or x.data.shape[1] != ids.size:
        raise ValueError(f"scatter_sum needs x with {ids.size} columns, got shape {x.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        bad = ids[(ids < 0) | (ids >= size)][0]
        raise IndexError(f"scatter index {int(bad)} outside [0, {size})")
    data = np.zeros((x.data.shape[0], size), dtype=x.data.dtype)
    np.add.at(data, (slice(None), ids), x.data)

    def vjp(g):
        return (g[:, ids],)

    return _push(data, (x,), vjp)


_SCORE_BLOCK = 1 << 18  # elements of the [c, n, H] tanh buffer of `additive_scores`


def additive_scores(keys: Tensor, queries: Tensor, v: Tensor) -> Tensor:
    """Additive attention scores of R queries [R, H] over n keys [n, H],
    scores[i, r] = tanh(keys[i] + queries[r]) @ v with v [H, 1], as one
    [n, R] record.

    The queries are scored c at a time through one reused [c, n, H] buffer
    of at most `_SCORE_BLOCK` elements (1 MB in float32, inside a 2 MB L2),
    or one query at a time when a single [n, H] block is larger, so no
    [n, R, H] block is made.  The hand-written backward recomputes each
    block's tanh in that buffer instead of storing it.
    """
    k, q, v_col = keys.data, queries.data, v.data
    if (k.ndim != 2 or q.ndim != 2 or q.shape[1] != k.shape[1]
            or v_col.shape != (k.shape[1], 1)):
        raise ValueError(f"additive_scores needs keys [n, H], queries [R, H] and v [H, 1], "
                         f"got {k.shape}, {q.shape} and {v_col.shape}")
    (n, hidden), count = k.shape, q.shape[0]
    dtype = np.result_type(k, q, v_col)
    v_vec = v_col[:, 0]
    block = max(1, min(count, _SCORE_BLOCK // max(1, n * hidden)))
    blocks = [slice(start, min(start + block, count)) for start in range(0, count, block)]
    mixed = np.empty((block, n, hidden), dtype=dtype)

    def tanh_block(at: slice) -> np.ndarray:
        """tanh(keys + queries[at]) in the buffer, [c, n, H]."""
        buffer = mixed[:at.stop - at.start]
        np.add(k, q[at, None, :], out=buffer)
        return np.tanh(buffer, out=buffer)

    # query-major rows, transposed to [n, R] at the end
    scores = np.empty((count, n), dtype=dtype)
    for at in blocks:
        t = tanh_block(at)
        np.matmul(t.reshape(-1, hidden), v_vec, out=scores[at].reshape(-1))

    def vjp(g):
        g_rows = np.ascontiguousarray(g.T)                      # [R, n]
        d_q = np.empty((count, hidden), dtype=dtype)
        d_v = np.zeros(hidden, dtype=dtype)
        # sum over queries of g[:, r] * tanh'; times v, the keys' adjoint
        slope = np.zeros((n, hidden), dtype=dtype)
        for at in blocks:
            t, g_at = tanh_block(at), g_rows[at]
            d_v += g_at.reshape(-1) @ t.reshape(-1, hidden)
            np.multiply(t, t, out=t)
            np.subtract(1.0, t, out=t)
            d_q[at] = np.matmul(g_at[:, None, :], t)[:, 0]
            np.multiply(t, g_at[:, :, None], out=t)
            for weighted in t:
                slope += weighted
        slope *= v_vec
        d_q *= v_vec
        return slope, d_q, d_v[:, None]

    return _push(np.ascontiguousarray(scores.T), (keys, queries, v), vjp)


def gru_sequence(xs: Tensor, h0: Tensor, W_z: Tensor, U_z: Tensor, b_z: Tensor,
                 W_r: Tensor, U_r: Tensor, b_r: Tensor, W_h: Tensor, U_h: Tensor,
                 b_h: Tensor, reverse: bool = False,
                 lengths: Sequence[int] | None = None) -> Tensor:
    """A GRU run over B independent sequences from the [B, H] states `h0`,
    as one tape record.

    `xs` holds the sequences' inputs one after another and `lengths` their
    lengths, in any order; by default all B are equally long.  Row b of h0
    starts sequence b.  Returns the states in the same layout: the state of
    sequence b after its inputs 0..t, or, when `reverse`, after its inputs
    len_b - 1..t, so that a reverse run starts each sequence at its own
    last input.

    Each step is the update of one GRU cell:
    z = sigmoid(x W_z + b_z + h U_z), r = sigmoid(x W_r + b_r + h U_r),
    c = tanh(x W_h + b_h + (r * h) U_h), h' = (1 - z) * c + z * h.
    """
    if (xs.data.ndim != 2 or h0.data.ndim != 2 or h0.data.shape[0] == 0
            or xs.data.shape[0] == 0):
        raise ValueError(f"gru_sequence needs [N, D] inputs (N > 0) and a [B, H] "
                         f"state, got {xs.data.shape} and {h0.data.shape}")
    (B, H), (N, D) = h0.data.shape, xs.data.shape
    if lengths is None:
        if N % B:
            raise ValueError(f"{N} input rows are no whole number of {B}-row sequences")
        lengths = [N // B] * B
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,) or lengths.min() < 1 or lengths.sum() != N:
        raise ValueError(f"gru_sequence needs {B} lengths of at least 1 summing to {N}, "
                         f"got {lengths.tolist()}")
    if W_z.data.shape != (D, H) or U_z.data.shape != (H, H):
        raise ValueError(f"gru_sequence weights {W_z.data.shape} and {U_z.data.shape} do not "
                         f"fit inputs {xs.data.shape} and state {h0.data.shape}")
    # inside, the run is packed: sequences longest first, step t's rows
    # after step t-1's, so that step t runs the prefix still going.  One
    # sequence, or one step of B, is packed already.
    order, packed, unpacked = (slice(None),) * 3 if N == B or B == 1 else _packing(lengths)
    active = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
    starts = np.cumsum(active) - active
    steps = [(slice(s, s + k), k) for s, k in zip(starts.tolist(), active.tolist())]
    if reverse:
        steps.reverse()

    x = xs.data[packed]
    # the input terms of all steps, one matrix product per gate
    p_z, p_r, p_h = x @ W_z.data + b_z.data, x @ W_r.data + b_r.data, x @ W_h.data + b_h.data
    u_z, u_r, u_h = U_z.data, U_r.data, U_h.data
    # run holds every sequence's latest state; prev the state each row's step read
    run = np.array(h0.data[order], dtype=p_z.dtype)
    prev, out = np.empty_like(p_z), np.empty_like(p_z)
    z, r, c = np.empty_like(p_z), np.empty_like(p_z), np.empty_like(p_z)
    for at, k in steps:
        prev[at] = run[:k]
        h = prev[at]
        z[at] = _sigmoid_values(p_z[at] + h @ u_z)
        r[at] = _sigmoid_values(p_r[at] + h @ u_r)
        c[at] = np.tanh(p_h[at] + (r[at] * h) @ u_h)
        out[at] = (1.0 - z[at]) * c[at] + z[at] * h
        run[:k] = out[at]

    def vjp(g):
        # back through time: d_z, d_r, d_h hold the adjoints of the gates'
        # pre-activations, from which every weight gradient is one product;
        # carry holds the adjoint of every sequence's running state
        g = g[packed]
        d_z, d_r, d_h = np.empty_like(z), np.empty_like(r), np.empty_like(c)
        carry = np.zeros((B, H), dtype=g.dtype)
        # contiguous transposes: a product against a transposed view is
        # slower once a step has more than one row
        u_zt, u_rt, u_ht = (np.ascontiguousarray(u.T) for u in (u_z, u_r, u_h))
        for at, k in reversed(steps):
            dh = g[at] + carry[:k]
            h = prev[at]
            d_h[at] = dh * (1.0 - z[at]) * (1.0 - c[at] * c[at])
            d_z[at] = dh * (h - c[at]) * z[at] * (1.0 - z[at])
            d_rh = d_h[at] @ u_ht
            d_r[at] = d_rh * h * r[at] * (1.0 - r[at])
            carry[:k] = dh * z[at] + d_rh * r[at] + d_z[at] @ u_zt + d_r[at] @ u_rt
        dx = d_z @ W_z.data.T + d_r @ W_r.data.T + d_h @ W_h.data.T
        d_h0 = np.empty_like(carry)
        d_h0[order] = carry
        x_t = x.T
        return (dx[unpacked], d_h0,
                x_t @ d_z, prev.T @ d_z, d_z.sum(axis=0, keepdims=True),
                x_t @ d_r, prev.T @ d_r, d_r.sum(axis=0, keepdims=True),
                x_t @ d_h, (r * prev).T @ d_h, d_h.sum(axis=0, keepdims=True))

    return _push(out[unpacked], (xs, h0, W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h), vjp)


def _packing(lengths: np.ndarray):
    """Where B sequences of `lengths`, stored one after another, sit in the
    packed layout that `gru_sequence` runs.

    Returns (order, the sequences longest first, ties in stored order;
    packed, the stored row of every packed row; unpacked, the packed row of
    every stored row), so that rows[packed] packs and packed_rows[unpacked]
    restores the stored order.
    """
    order = np.argsort(-lengths, kind="stable")
    starts = np.cumsum(lengths) - lengths
    steps = np.arange(lengths[order[0]])[:, None]
    # packed row (t, j) is input t of the j-th longest sequence
    packed = (starts[order] + steps)[steps < lengths[order]]
    return order, packed, np.argsort(packed)

# ---------------------------------------------------------------------------
# optimizer

class Adam:
    """Adam with in-place updates; the caller zeroes gradients between steps.

    Each step evaluates the textbook expressions in their usual order, but
    over one flat chunk of `CHUNK` elements of a parameter at a time,
    through two scratch buffers of one chunk.  A chunk's gradient, moments,
    values and scratch stay in a core's L2 cache across the dozen passes the
    expressions make, where a paper-size weight would stream from memory on
    every pass.  Every operation is elementwise, so the result is bitwise
    the unchunked one.
    """

    CHUNK = 1 << 16   # elements; of 16K to 128K, the fastest on a 2 MiB L2 core

    def __init__(self, params: Mapping[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        # C order, so that a flat view walks them in step with the parameter
        self._m = {name: np.zeros(p.data.shape, p.data.dtype) for name, p in self.params.items()}
        self._v = {name: np.zeros(p.data.shape, p.data.dtype) for name, p in self.params.items()}
        arrays = [p.data for p in self.params.values()]
        size = min(self.CHUNK, max((x.size for x in arrays), default=0))
        dtype = np.result_type(*arrays) if arrays else default_dtype()
        self._scratch = (np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))

    def step(self) -> None:
        """One update of every parameter; raises ValueError, changing
        nothing, when any parameter has no gradient."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter '{name}' has no gradient; run backward first")
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            # flat views; reshape copies a parameter that is not C-ordered,
            # and the copy is written back below
            values = p.data.reshape(-1)
            flat = (p.grad.reshape(-1), self._m[name].reshape(-1), self._v[name].reshape(-1),
                    values)
            for start in range(0, values.size, self.CHUNK):
                chunk = slice(start, start + self.CHUNK)
                g, m, v, d = (x[chunk] for x in flat)
                a, b = (buffer[:g.size] for buffer in self._scratch)
                m *= self.beta1
                np.multiply(g, 1.0 - self.beta1, out=a)
                m += a
                v *= self.beta2
                np.multiply(g, g, out=a)
                a *= 1.0 - self.beta2
                v += a
                np.divide(m, 1.0 - self.beta1 ** t, out=a)   # m_hat
                np.divide(v, 1.0 - self.beta2 ** t, out=b)   # v_hat
                a *= self.lr
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                d -= a
            if not p.data.flags.c_contiguous:
                p.data[...] = values.reshape(p.data.shape)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def fit(params: Mapping[str, Tensor], n_examples: int,
        losses: Callable[[int], Mapping[str, Tensor]],
        validate: Callable[[], tuple[dict, float | None]],
        label: Callable[[int], str], epochs: int, lr: Callable[[int], float],
        seed: int) -> list[dict]:
    """Per-example Adam over `epochs` seeded permutations of the training set.

    `losses(index)` returns one example's named [1, 1] losses.  "loss" is
    minimised and must be finite (else ValueError naming the epoch and
    `label(index)`, before the step); each name gets a `train_<name>` mean
    in the epoch's history row.  `validate()` returns the row's validation
    fields and a score, higher is better, or None without a validation set
    (the score is then -train_loss).  `lr(epoch)` is the epoch's learning
    rate.  The best-scoring epoch's parameters are restored at the end.
    """
    rng = np.random.default_rng(seed)
    optimizer = Adam(params, lr=lr(1))
    history: list[dict] = []
    best_score = -float("inf")
    best_state: dict[str, np.ndarray] = {}
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        optimizer.lr = lr(epoch)
        train: dict[str, list[float]] = {}
        for index in rng.permutation(n_examples):
            with tape() as recording:
                named = losses(index)
                loss = named["loss"].item()
                if not np.isfinite(loss):
                    raise ValueError(f"epoch {epoch}: non-finite loss {loss} on {label(index)}")
                recording.backward(named["loss"])
            optimizer.step()
            optimizer.zero_grad()
            for name, value in named.items():
                train.setdefault(name, []).append(value.item())
        row = {"epoch": epoch, "lr": optimizer.lr}
        row.update({f"train_{name}": float(np.mean(v)) for name, v in train.items()})
        fields, score = validate()
        row.update(fields)
        row["wall_seconds"] = time.perf_counter() - started
        history.append(row)
        if score is None:
            score = -row["train_loss"]
        if score > best_score:
            best_score = score
            best_state = {name: p.data.copy() for name, p in optimizer.params.items()}
    if best_state:
        for name, p in optimizer.params.items():
            p.data[...] = best_state[name]
    return history
