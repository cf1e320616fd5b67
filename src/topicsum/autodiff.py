"""Dense tensors with tape-based reverse-mode differentiation.

The models in this package run at desk scale: states are [1, H] row
vectors or [R, H] blocks of them, scalars are [1, 1], and every training
step records its forward pass on one explicit tape that is swept once in
reverse.  Inference runs tape-free.  `fit` is the training loop both models
share: epochs, the tape, Adam and the best epoch.

Most ops are one numpy expression and one tape record.  The exceptions
loop inside one record, with hand-written backwards.  `gru_sequence` is a
whole GRU run over known inputs: B independent sequences of given lengths,
stored one after another.  Inside, it packs them longest first so that
each step runs the prefix of sequences still going.  Its forward
multiplies all inputs by each gate's input weights in one matrix product
and loops only over the recurrent `h @ U` products; its backward loops
back through time over those prefix blocks and then forms every weight
gradient as one matrix product over the whole run.  `bigru_sequence` is
both directions of a bidirectional GRU over the same inputs as one record,
the backward one reading each sequence from its last input to its first;
it is the only reverse run.  `additive_scores`
scores R attention queries against n keys a cache-sized block of queries
at a time through one reused buffer, and its backward recomputes each
block's tanh there rather than keep an [n, R, H] block.  `gold_log_probs`
is the pointer-generator NLL's last layer: from the logits, copy gate and
attention weights of T rows it gives each row's gold log-probability
without the [T, V'] mixture, in one full-width pass each way.

float32 is the working dtype; `using_dtype` exists so that numerical test
suites can run the identical op implementations in float64, where central
finite differences are meaningful.

Work with two independent halves runs them on two threads once it is large
enough to pay for the thread (`_on_two_threads`): a large weight draw in
`parameter`, `bigru_sequence`'s two directions, forward and back through
time, and the forward of `additive_scores` over two halves of its query
blocks, with BLAS at one thread each, `Adam.step` and `fit`'s gradient
norm, each over two halves of the parameters' chunks, and the generator's
beam-step candidate selection over two halves of its rows.  Each half does
the arithmetic it would do alone, and the products whose bits depend on
BLAS's thread count run on the calling thread at BLAS's own count, so every
value is bitwise the serial one.  Every call shares the process's one
worker thread (`_worker`), started on first use; a call that finds it busy
runs its two halves in turn on the calling thread, and a forked child
starts a worker of its own.  Toy-size models stay serial.

Gradient contract: every adjoint lives in its tensor's `.grad`.  On leaves,
the tensors that no record on the tape produced (parameters and inputs
created with `requires_grad=True`), `Tape.backward` accumulates there.  An
intermediate result's adjoint builds up in `.grad` while the sweep visits
the records that read it; the record that made it takes it and sets `.grad`
back to None, so intermediates show None after a sweep.  For each input, a
vjp returns one of two things.  Gather ops (`embedding_lookup`, `rows`,
`pick`) return a row-sparse adjoint, which is added
into its target's one dense buffer.  Every other vjp returns, for each
input, a dense array that input alone may own: one made for it, or `g`
or a view of it that no other input receives (`concat`'s splits are
disjoint, and `add` copies `g` for its second input when both would get
it).  The sweep keeps that array as the input's buffer and adds later
contributions into it in place.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
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
    "parameters_of",
    "LOG_FLOOR",
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
    "pick",
    "embedding_lookup",
    "scatter_sum",
    "additive_scores",
    "gold_log_probs",
    "gru_sequence",
    "bigru_sequence",
    "Adam",
    "EmptyTrainingSet",
    "fit",
]

_DTYPE_STACK = [np.float32]
LOG_FLOOR = 1e-12   # the models clamp a probability here before its log


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
                else:
                    # the input's alone (see the gradient contract), so it becomes the buffer
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
# the second core

@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or
    None when none is found.  Not `openblas_set_num_threads_local`: in a
    pthreads build it sets the whole process's count too."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def _worker() -> ThreadPoolExecutor:
    """The process's one worker thread, started on first use."""
    return ThreadPoolExecutor(max_workers=1)


_BUSY = threading.Lock()   # held by the `_on_two_threads` call that has the worker


def _reset_worker_in_child() -> None:
    """A forked child has no copy of the parent's worker thread, and the
    lock may have been held by a thread it does not have either."""
    global _BUSY
    _worker.cache_clear()
    _BUSY = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker_in_child)


def _on_two_threads(first: Callable, second: Callable, one_blas_thread: bool = False):
    """(first(), second()), with second() on the process's worker thread
    while first() runs on this one.  Both have finished when this returns
    or raises, and an exception of either side is raised here, first()'s
    before the worker's.

    When the worker is busy (a call from inside first(), from the worker
    itself, or from a second thread while another call has it), first()
    and then second() run here in turn, so no call waits on the worker.

    With `one_blas_thread`, OpenBLAS runs one thread while this call has
    the worker, so that the two sides' matrix products do not compete for
    the cores: the count is set on this thread before the worker starts and
    put back after the join.  A call that runs in turn leaves the count
    alone, and without a way to set it both sides run here in turn.
    """
    blas = _blas_threads() if one_blas_thread else None
    if (one_blas_thread and blas is None) or not _BUSY.acquire(blocking=False):
        return first(), second()
    restore = None
    try:
        if blas is not None:
            get, set_ = blas
            restore = get()
            set_(1)
        later = _worker().submit(second)
        try:
            result = first()
        finally:
            wait([later])
        return result, later.result()
    finally:
        if restore is not None:
            set_(restore)
        _BUSY.release()


# ---------------------------------------------------------------------------
# construction helpers

def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=default_dtype()))


_INIT_CHUNK = 1 << 16   # elements drawn at a time by `parameter`
_SPLIT_MIN = 4 * _INIT_CHUNK   # smallest tensor whose draw `parameter` splits


def _fill_uniform(rng: np.random.Generator, flat: np.ndarray, scale: float) -> None:
    for start in range(0, flat.size, _INIT_CHUNK):
        stop = min(start + _INIT_CHUNK, flat.size)
        flat[start:stop] = rng.uniform(-scale, scale, size=stop - start)


def parameter(rng: np.random.Generator, shape, scale: float = 0.1) -> Tensor:
    """Trainable tensor, uniform in [-scale, scale].

    The values are `rng.uniform(-scale, scale, size=shape)` cast to the
    working dtype, drawn in chunks of `_INIT_CHUNK` so that no float64 copy
    of a large weight is made; the generator's stream, and so every later
    draw, is the same as one whole draw's.  From `_SPLIT_MIN` elements on,
    a PCG64 stream is drawn on two threads: this one draws the first half
    of the chunks while a worker draws the second from a copy of the bit
    generator advanced past the first, and `rng` then takes the worker's
    end state.  Values and the generator's whole state, buffered 32-bit
    value included, equal the serial draw's.
    """
    data = np.empty(shape, dtype=default_dtype())
    flat = data.reshape(-1)
    bits = rng.bit_generator
    # PCG64's `advance(n)` skips n 64-bit outputs, one per float64 uniform
    if flat.size < _SPLIT_MIN or type(bits) is not np.random.PCG64:
        _fill_uniform(rng, flat, scale)
        return Tensor(data, requires_grad=True)
    split = (flat.size // _INIT_CHUNK + 1) // 2 * _INIT_CHUNK
    state = bits.state
    tail = np.random.PCG64()
    tail.state = state
    tail.advance(split)
    # `advance` drops the buffered 32-bit value, which a uniform draw keeps
    tail.state = {**tail.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}
    _on_two_threads(lambda: _fill_uniform(rng, flat[:split], scale),
                    lambda: _fill_uniform(np.random.Generator(tail), flat[split:], scale))
    bits.state = tail.state
    return Tensor(data, requires_grad=True)


def zero_parameter(shape) -> Tensor:
    """Trainable tensor initialized to zero (biases)."""
    return Tensor(np.zeros(shape, dtype=default_dtype()), requires_grad=True)


def parameters_of(owner) -> dict[str, Tensor]:
    """`owner`'s trainable tensors by attribute name, in assignment order; an
    attribute with its own `parameters()` adds each as "<attribute>.<name>"."""
    params: dict[str, Tensor] = {}
    for attribute, value in vars(owner).items():
        if isinstance(value, Tensor) and value.requires_grad:
            params[attribute] = value
        elif hasattr(value, "parameters"):
            params.update((f"{attribute}.{name}", p) for name, p in value.parameters().items())
    return params


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
        g_a, g_b = _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)
        # each input's adjoint becomes its own buffer, so g goes to one only
        return g_a, g_b.copy() if g_b is g_a else g_b

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


def pick(x: Tensor, i, j) -> Tensor:
    """Entries x[i, j] for index arrays i and j of one shape whose (i, j)
    pairs are distinct: a block of that shape when it is 2-D, else a
    [k, 1] column (one entry for ints)."""
    i_ids = np.asarray(i, dtype=np.int64)
    j_ids = np.asarray(j, dtype=np.int64)
    if i_ids.ndim < 2:
        i_ids, j_ids = i_ids.reshape(-1, 1), j_ids.reshape(-1, 1)
    n, m = x.data.shape
    if i_ids.shape != j_ids.shape or i_ids.ndim != 2 or i_ids.size == 0:
        raise ValueError(f"pick needs non-empty index arrays of one shape, "
                         f"got {np.shape(i)} and {np.shape(j)}")
    if np.any((i_ids < 0) | (i_ids >= n) | (j_ids < 0) | (j_ids >= m)):
        raise IndexError(f"pick ({i}, {j}) outside shape {x.data.shape}")
    keys = np.sort(i_ids * m + j_ids, axis=None)
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("pick needs distinct (i, j) pairs")
    return _push(x.data[i_ids, j_ids], (x,), lambda g: (_RowGrad((i_ids, j_ids), g),))


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
_SCORE_SPLIT_MIN = 1 << 22   # least R x n x H whose forward scores on two threads


def additive_scores(keys: Tensor, queries: Tensor, v: Tensor) -> Tensor:
    """Additive attention scores of R queries [R, H] over n keys [n, H],
    scores[i, r] = tanh(keys[i] + queries[r]) @ v with v [H, 1], as one
    [n, R] record.

    The queries are scored c at a time through one reused [c, n, H] buffer
    of at most `_SCORE_BLOCK` elements (1 MB in float32, inside a 2 MB L2),
    or one query at a time when a single [n, H] block is larger, so no
    [n, R, H] block is made.  From `_SCORE_SPLIT_MIN` R x n x H on, the
    forward scores the first half of those blocks here and the second on a
    worker through a second buffer, with BLAS at one thread each.  The
    hand-written backward recomputes each block's tanh in the first buffer
    instead of storing it.
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

    def tanh_blocks(part: list[slice], buffer: np.ndarray):
        """(at, tanh(keys + queries[at]) [c, n, H]) for each block of
        `part`, made in `buffer`."""
        for at in part:
            t = buffer[:at.stop - at.start]
            np.add(k, q[at, None, :], out=t)
            yield at, np.tanh(t, out=t)

    # query-major rows, transposed to [n, R] at the end
    scores = np.empty((count, n), dtype=dtype)

    def score(part: list[slice], buffer: np.ndarray) -> None:
        for at, t in tanh_blocks(part, buffer):
            np.matmul(t.reshape(-1, hidden), v_vec, out=scores[at].reshape(-1))

    if len(blocks) > 1 and count * n * hidden >= _SCORE_SPLIT_MIN:
        half = (len(blocks) + 1) // 2
        _on_two_threads(lambda: score(blocks[:half], mixed),
                        lambda: score(blocks[half:], np.empty_like(mixed)), one_blas_thread=True)
    else:
        score(blocks, mixed)

    def vjp(g):
        g_rows = np.ascontiguousarray(g.T)                      # [R, n]
        d_q = np.empty((count, hidden), dtype=dtype)
        d_v = np.zeros(hidden, dtype=dtype)
        # sum over queries of g[:, r] * tanh'; times v, the keys' adjoint
        slope = np.zeros((n, hidden), dtype=dtype)
        for at, t in tanh_blocks(blocks, mixed):
            g_at = g_rows[at]
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


def gold_log_probs(logits: Tensor, p_gen: Tensor, weights: Tensor, extended_ids,
                   targets) -> Tensor:
    """log(max(p_r, LOG_FLOOR)) of each row's gold token under the
    pointer-generator mixture, as one [T, 1] record.

    Row r mixes the softmax of logits [T, V] with its attention column of
    weights [n, T], whose position k stands for extended_ids[k]:
    p_r = p_gen_r s_r + (1 - p_gen_r) c_r, where s_r is the softmax's share
    of g = targets[r] (0 from V on, the input's OOV words) and c_r sums the
    weights of the positions holding g.  Value and adjoints are bitwise those
    of the full [T, V'] chain: `softmax`, `scatter_sum` of the transposed
    weights, the mix, `pick` and `log` with the floor.  Only the exps are
    kept for the backward, which writes the logits' adjoint in one
    full-width pass; a clamped gold gets no gradient.
    """
    x, gate, w = logits.data, p_gen.data, weights.data
    ids = np.asarray(extended_ids, dtype=np.int64)
    gold = np.asarray(targets, dtype=np.int64)
    count = gold.size
    if (x.ndim != 2 or x.shape[0] != count or gold.shape != (count,)
            or gate.shape != (count, 1) or ids.ndim != 1 or w.shape != (ids.size, count)):
        raise ValueError(f"gold_log_probs needs logits [T, V], p_gen [T, 1], weights [n, T], "
                         f"n extended ids and T targets, got {x.shape}, {gate.shape}, "
                         f"{w.shape}, {ids.shape} and {gold.shape}")
    match = ids[:, None] == gold                                  # [n, T]
    known = gold < x.shape[1]
    if np.any(gold < 0) or not match[:, ~known].any(axis=0).all():
        raise IndexError("a target is negative, or past the vocabulary and not an input id")
    rows, in_gold = np.flatnonzero(known), gold[known]
    ex = x - x.max(axis=1, keepdims=True)
    np.exp(ex, out=ex)
    total = ex.sum(axis=1, keepdims=True)
    share = np.zeros(gate.shape, dtype=ex.dtype)
    share[rows, 0] = ex[rows, in_gold] / total[rows, 0]
    # the weights of each row's gold positions, added in position order
    at, of = np.nonzero(match)
    copied = np.zeros(gate.shape, dtype=w.dtype)
    np.add.at(copied[:, 0], of, w[at, of])
    rest = 1.0 - gate
    p = share * gate + copied * rest
    safe = np.maximum(p, LOG_FLOOR)
    live = p > LOG_FLOOR

    def vjp(g):
        # the softmax's backward, s * (d_s - inner), where d_s is a at the
        # gold and +0 elsewhere
        dp = np.where(live, g / safe, 0.0)
        a = dp * gate
        # the chain sums a row of one product and zeros, which turns a -0
        # product into +0, as `+ 0.0` does; `0.0 - inner` is +0 for +0 too
        inner = a * share + 0.0
        d_logits = np.divide(ex, total)
        d_logits *= 0.0 - inner
        d_logits[rows, in_gold] = share[rows, 0] * (a - inner)[rows, 0]
        return d_logits, dp * share - dp * copied, np.where(match, (dp * rest).T, 0.0)

    return _push(np.log(safe), (logits, p_gen, weights), vjp)


def gru_sequence(xs: Tensor, h0: Tensor, weights: Sequence[Tensor],
                 lengths: Sequence[int]) -> Tensor:
    """A GRU run over B independent sequences from the [B, H] states `h0`,
    as one tape record.

    `xs` holds the sequences' inputs one after another and `lengths` their
    lengths, in any order; row b of h0 starts sequence b.  `weights` are
    the cell's nine tensors W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h.
    Returns the states in the inputs' layout: the state of sequence b after
    its inputs 0..t.

    Each step is the update of one GRU cell:
    z = sigmoid(x W_z + b_z + h U_z), r = sigmoid(x W_r + b_r + h U_r),
    c = tanh(x W_h + b_h + (r * h) U_h), h' = (1 - z) * c + z * h.
    """
    run = _GRURun(xs.data, h0.data, [w.data for w in weights], False, lengths)

    def vjp(g):
        return run.adjoints(*run.through_time(g))

    return _push(run.forward(), (xs, h0, *weights), vjp)


_PAIR_SPLIT_MIN = 1 << 24   # least rows x H^2 whose two directions run on two threads


def bigru_sequence(xs: Tensor, h0: Tensor, forward_weights: Sequence[Tensor],
                   backward_weights: Sequence[Tensor], lengths: Sequence[int]) -> Tensor:
    """Both directions of a bidirectional GRU as one [N, 2H] record: columns
    :H are `gru_sequence(xs, h0, forward_weights, lengths)`, bitwise, and
    columns H: the run with `backward_weights` that reads each sequence from
    its last input to its first, so that its row t of a sequence of length
    L is the state after that sequence's inputs L - 1 down to t.

    From `_PAIR_SPLIT_MIN` rows x H^2 on, the two directions' steps, forward
    and back through time, run on two threads with BLAS at one thread each;
    the weight-gradient products then run on this thread at BLAS's own count,
    where their bits depend on it.
    """
    runs = [_GRURun(xs.data, h0.data, [w.data for w in weights], reverse, lengths)
            for weights, reverse in ((forward_weights, False), (backward_weights, True))]
    hidden = h0.data.shape[1]
    split = xs.data.shape[0] * hidden * hidden >= _PAIR_SPLIT_MIN

    def both(first, second):
        if split:
            return _on_two_threads(first, second, one_blas_thread=True)
        return first(), second()

    states = np.concatenate(both(runs[0].forward, runs[1].forward), axis=1)

    def vjp(g):
        fwd_terms, bwd_terms = both(lambda: runs[0].through_time(g[:, :hidden]),
                                    lambda: runs[1].through_time(g[:, hidden:]))
        dx, d_h0, *fwd_grads = runs[0].adjoints(*fwd_terms)
        dx_bwd, d_h0_bwd, *bwd_grads = runs[1].adjoints(*bwd_terms)
        return (dx + dx_bwd, d_h0 + d_h0_bwd, *fwd_grads, *bwd_grads)

    return _push(states, (xs, h0, *forward_weights, *backward_weights), vjp)


class _GRURun:
    """One direction of a GRU over packed sequences, `reverse` reading each
    from its last input to its first: the forward steps, the steps back
    through time, and then the adjoints, whose weight products run over the
    whole sequence at once."""

    def __init__(self, xs: np.ndarray, h0: np.ndarray, weights: Sequence[np.ndarray],
                 reverse: bool, lengths: Sequence[int]):
        if xs.ndim != 2 or h0.ndim != 2 or h0.shape[0] == 0 or xs.shape[0] == 0:
            raise ValueError(f"gru_sequence needs [N, D] inputs (N > 0) and a [B, H] "
                             f"state, got {xs.shape} and {h0.shape}")
        (B, H), (N, D) = h0.shape, xs.shape
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (B,) or lengths.min() < 1 or lengths.sum() != N:
            raise ValueError(f"gru_sequence needs {B} lengths of at least 1 summing to {N}, "
                             f"got {lengths.tolist()}")
        if weights[0].shape != (D, H) or weights[1].shape != (H, H):
            raise ValueError(f"gru_sequence weights {weights[0].shape} and {weights[1].shape} "
                             f"do not fit inputs {xs.shape} and state {h0.shape}")
        # inside, the run is packed: sequences longest first, step t's rows
        # after step t-1's, so that step t runs the prefix still going.  One
        # sequence, or one step of B, is packed already.
        self.order, self.packed, self.unpacked = (
            (slice(None),) * 3 if N == B or B == 1 else _packing(lengths))
        active = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
        starts = np.cumsum(active) - active
        self.steps = [(slice(s, s + k), k) for s, k in zip(starts.tolist(), active.tolist())]
        if reverse:
            self.steps.reverse()
        self.x, self.h0, self.weights = xs[self.packed], h0, weights

    def forward(self) -> np.ndarray:
        """The states, in the inputs' layout."""
        W_z, u_z, b_z, W_r, u_r, b_r, W_h, u_h, b_h = self.weights
        x = self.x
        # the input terms of all steps, one matrix product per gate
        p_z, p_r, p_h = x @ W_z + b_z, x @ W_r + b_r, x @ W_h + b_h
        # run holds every sequence's latest state; prev the state each row's step read
        run = np.array(self.h0[self.order], dtype=p_z.dtype)
        prev, out = np.empty_like(p_z), np.empty_like(p_z)
        z, r, c = np.empty_like(p_z), np.empty_like(p_z), np.empty_like(p_z)
        self.prev, self.z, self.r, self.c = prev, z, r, c
        for at, k in self.steps:
            prev[at] = run[:k]
            h = prev[at]
            z[at] = _sigmoid_values(p_z[at] + h @ u_z)
            r[at] = _sigmoid_values(p_r[at] + h @ u_r)
            c[at] = np.tanh(p_h[at] + (r[at] * h) @ u_h)
            out[at] = (1.0 - z[at]) * c[at] + z[at] * h
            run[:k] = out[at]
        return out[self.unpacked]

    def through_time(self, g: np.ndarray):
        """From the states' adjoint g, the adjoints of the gates'
        pre-activations, d_z, d_r and d_h, and carry, the adjoint of every
        sequence's starting state."""
        _, u_z, _, _, u_r, _, _, u_h, _ = self.weights
        prev, z, r, c = self.prev, self.z, self.r, self.c
        g = g[self.packed]
        d_z, d_r, d_h = np.empty_like(z), np.empty_like(r), np.empty_like(c)
        carry = np.zeros(self.h0.shape, dtype=g.dtype)
        # contiguous transposes: a product against a transposed view is
        # slower once a step has more than one row
        u_zt, u_rt, u_ht = (np.ascontiguousarray(u.T) for u in (u_z, u_r, u_h))
        for at, k in reversed(self.steps):
            dh = g[at] + carry[:k]
            h = prev[at]
            d_h[at] = dh * (1.0 - z[at]) * (1.0 - c[at] * c[at])
            d_z[at] = dh * (h - c[at]) * z[at] * (1.0 - z[at])
            d_rh = d_h[at] @ u_ht
            d_r[at] = d_rh * h * r[at] * (1.0 - r[at])
            carry[:k] = dh * z[at] + d_rh * r[at] + d_z[at] @ u_zt + d_r[at] @ u_rt
        return d_z, d_r, d_h, carry

    def adjoints(self, d_z, d_r, d_h, carry) -> tuple[np.ndarray, ...]:
        """The adjoints of xs, h0 and the nine weights, in `gru_sequence`'s
        argument order."""
        W_z, _, _, W_r, _, _, W_h, _, _ = self.weights
        x, prev = self.x, self.prev
        dx = d_z @ W_z.T + d_r @ W_r.T + d_h @ W_h.T
        d_h0 = np.empty_like(carry)
        d_h0[self.order] = carry
        x_t = x.T
        return (dx[self.unpacked], d_h0,
                x_t @ d_z, prev.T @ d_z, d_z.sum(axis=0, keepdims=True),
                x_t @ d_r, prev.T @ d_r, d_r.sum(axis=0, keepdims=True),
                x_t @ d_h, (self.r * prev).T @ d_h, d_h.sum(axis=0, keepdims=True))


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

_PASS_SPLIT_MIN = 1 << 20   # least elements whose Adam step or gradient norm runs on two threads


def _by_halves(work: Callable[[list, int], object], chunks: list, sizes: Sequence[int]) -> tuple:
    """(work(chunks, 0),) below `_PASS_SPLIT_MIN` elements, else the chunks
    cut in order into two halves of about equal size and (work(first half,
    0), work(second half, 1)) on two threads."""
    if sum(sizes) < _PASS_SPLIT_MIN:
        return (work(chunks, 0),)
    ends = np.cumsum(sizes)
    cut = int(np.searchsorted(ends, ends[-1] / 2)) + 1
    return _on_two_threads(lambda: work(chunks[:cut], 0), lambda: work(chunks[cut:], 1))


class Adam:
    """Adam with in-place updates; the caller zeroes gradients between steps.

    Each step evaluates the textbook expressions in their usual order, but
    over one flat chunk of `CHUNK` elements of a parameter at a time,
    through two scratch buffers of one chunk.  A chunk's gradient, moments,
    values and scratch stay in a core's L2 cache across the dozen passes the
    expressions make, where a paper-size weight would stream from memory on
    every pass.  From `_PASS_SPLIT_MIN` elements on, the chunks are cut into
    two halves of about equal size, one per thread, each with its own
    scratch.  Every operation is elementwise, so the result is bitwise the
    unchunked one.
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
        self._scratch = [(np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))
                         for _ in range(2)]

    def step(self) -> None:
        """One update of every parameter; raises ValueError, changing
        nothing, when any parameter has no gradient."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter '{name}' has no gradient; run backward first")
        self.step_count += 1
        # flat views; reshape copies a parameter that is not C-ordered, and
        # the copy is written back below
        flats = [(p.grad.reshape(-1), self._m[name].reshape(-1), self._v[name].reshape(-1),
                  p.data.reshape(-1)) for name, p in self.params.items()]
        chunks = [tuple(x[start:start + self.CHUNK] for x in flat)
                  for flat in flats for start in range(0, flat[3].size, self.CHUNK)]
        _by_halves(lambda part, side: self._update(part, self._scratch[side]), chunks,
                   [chunk[3].size for chunk in chunks])
        for p, (_, _, _, values) in zip(self.params.values(), flats):
            if not p.data.flags.c_contiguous:
                p.data[...] = values.reshape(p.data.shape)

    def _update(self, chunks, scratch) -> None:
        t = self.step_count
        for g, m, v, d in chunks:
            a, b = (buffer[:g.size] for buffer in scratch)
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

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


_NORM_PIECE = 1 << 13   # elements whose squares `_global_norm` sums in one dot product


def _global_norm(arrays: Iterable[np.ndarray]) -> float:
    """The 2-norm of all entries: the squares of each array's 8K-element
    pieces summed in float64 by one dot product each, no finite float32
    input overflowing it, and those sums added in order.

    The pieces are widened to float64 one `Adam.CHUNK` at a time through
    one buffer of at most 512 KB per thread.  From `_PASS_SPLIT_MIN`
    elements on, two threads take half of the chunks each, and their sums
    are added here in the serial order.
    """
    chunks = [flat[start:start + Adam.CHUNK] for flat in (array.reshape(-1) for array in arrays)
              for start in range(0, flat.size, Adam.CHUNK)]

    def squares(part: list[np.ndarray], side: int) -> list[float]:
        wide, found = np.empty(max((chunk.size for chunk in part), default=0), np.float64), []
        for chunk in part:
            piece = wide[:chunk.size]
            piece[...] = chunk
            whole = chunk.size // _NORM_PIECE * _NORM_PIECE
            if whole:
                # a stack of [1, 8K] @ [8K, 1] products, each one dot product
                rows = piece[:whole].reshape(-1, 1, _NORM_PIECE)
                found.extend(np.matmul(rows, rows.transpose(0, 2, 1)).ravel().tolist())
            if whole < chunk.size:
                found.append(float(np.dot(piece[whole:], piece[whole:])))
        return found

    total = 0.0
    for part in _by_halves(squares, chunks, [chunk.size for chunk in chunks]):
        for square in part:
            total += square
    return math.sqrt(total)


class EmptyTrainingSet(ValueError):
    """`fit` was given no training example."""


def fit(params: Mapping[str, Tensor], n_examples: int,
        losses: Callable[[int], Mapping[str, Tensor]],
        validate: Callable[[], tuple[dict, float | None]],
        label: Callable[[int], str], epochs: int, lr: Callable[[int], float],
        seed: int) -> list[dict]:
    """Per-example Adam over `epochs` seeded permutations of the training set.

    An empty training set raises EmptyTrainingSet, a ValueError, before
    Adam is built.
    `losses(index)` returns one example's named [1, 1] losses.  "loss" is
    minimised; it and the global gradient norm must be finite, else a
    ValueError names the epoch and `label(index)` before Adam changes
    anything.  `validate()` returns the validation fields and a score,
    higher is better, or None without a validation set (the score is then
    -train_loss).  `lr(epoch)` is the epoch's learning rate.  An epoch's
    history row holds, in a training log's column order: epoch, lr, a
    `train_<name>` mean per loss name, the mean grad_norm, the validation
    fields and wall_seconds.  The best epoch's parameters are restored.
    """
    if n_examples == 0:
        raise EmptyTrainingSet("empty training set")
    rng = np.random.default_rng(seed)
    optimizer = Adam(params, lr=lr(1))
    history: list[dict] = []
    best_score = -float("inf")
    best_state: dict[str, np.ndarray] = {}
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        optimizer.lr = lr(epoch)
        train: dict[str, list[float]] = {}
        norms: list[float] = []
        for index in rng.permutation(n_examples):
            with tape() as recording:
                named = losses(index)
                loss = named["loss"].item()
                if not np.isfinite(loss):
                    raise ValueError(f"epoch {epoch}: non-finite loss {loss} on {label(index)}")
                recording.backward(named["loss"])
            norm = _global_norm(p.grad for p in optimizer.params.values() if p.grad is not None)
            if not math.isfinite(norm):
                raise ValueError(f"epoch {epoch}: non-finite gradient norm {norm} "
                                 f"on {label(index)}")
            optimizer.step()
            optimizer.zero_grad()
            for name, value in named.items():
                train.setdefault(name, []).append(value.item())
            norms.append(norm)
        row = {"epoch": epoch, "lr": optimizer.lr}
        row.update({f"train_{name}": float(np.mean(v)) for name, v in train.items()})
        row["grad_norm"] = float(np.mean(norms))
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
