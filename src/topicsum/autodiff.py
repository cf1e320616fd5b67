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
gradient as one matrix product over the whole run.  One step of B rows
(every beam and predictor step) and one sequence are packed already and
skip the packing's index arrays, and a one-row run forms its weight
gradients as outer products, bitwise what BLAS's K=1 products give,
without the calls.  `bigru_sequence` is both directions of a
bidirectional GRU over the same inputs as one record, the backward one
reading each sequence from its last input to its first; it is the only
reverse run.  `additive_scores` scores R attention queries against n
keys a cache-sized block of queries at a time through one reused buffer,
and its backward recomputes each block's tanh there rather than keep an
[n, R, H] block.  `gold_log_probs` is the pointer-generator NLL's last
layer: from the logits, copy gate and attention weights of T rows it
gives each row's gold log-probability without the [T, V'] mixture, in
one full-width pass each way.

`Adam` keeps the moments of every parameter smaller than one of its
chunks in two flat arenas, and at each step gathers those parameters'
values and gradients next to them, so that one step updates them all in
a few chunk-sized windows and copies the values back in place.  A larger
parameter keeps moments only for the rows its gradients have reached, until
they are more than half its rows.

A seeded weight of more than one draw chunk waits for its values
(`parameter`): it is built with an empty buffer and a copy of the bit
generator at its first value, the generator moves on past it at once, and
the first read of `.data` draws it, serially and once.  A model loaded from
a checkpoint overwrites every such buffer before reading it
(`checkpoint.load_into` fills `buffer(t)` and then assigns it to `.data`),
so it draws nothing.  Every other tensor's `.data` is a plain slot read.

float32 is the working dtype; `using_dtype` exists so that numerical test
suites can run the identical op implementations in float64, where central
finite differences are meaningful.

Work with two independent halves runs them on two threads once it is large
enough to pay for the thread, under one rule (`on_two_threads`): OpenBLAS
runs one thread while the halves do, and without a way to set its count
the halves run in turn.  The halves are `bigru_sequence`'s two directions,
forward and back through time, and, each cut by `by_halves` where the
running size passes half, the forward of `additive_scores` over its query
blocks, `Adam.step` and `fit`'s gradient norm over the parameters' chunks,
and the generator's beam-step candidates over its rows.  Each half
does the arithmetic it would do alone, and the products whose bits depend
on BLAS's thread count run on the calling thread at BLAS's own count, so
every value is bitwise the serial one.  Every call shares the process's one
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
    "buffer",
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
    "on_two_threads",
    "by_halves",
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
        dtype = _DTYPE_STACK[-1]
        # an array already in the working dtype is kept, as asarray would
        if type(data) is not np.ndarray or data.dtype != dtype:
            data = np.asarray(data, dtype=dtype)
        self.data = data
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


_BUSY = threading.Lock()   # held by the `on_two_threads` call that has the worker


def _reset_worker_in_child() -> None:
    """A forked child has no copy of the parent's worker thread, and the
    locks (this one and `_DRAW_LOCK`) may have been held by a thread it does
    not have either."""
    global _BUSY, _DRAW_LOCK
    _worker.cache_clear()
    _BUSY = threading.Lock()
    _DRAW_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_worker_in_child)


def on_two_threads(first: Callable, second: Callable):
    """(first(), second()), with second() on the process's worker thread
    while first() runs on this one.  Both have finished when this returns
    or raises, and an exception of either side is raised here, first()'s
    before the worker's.

    OpenBLAS runs one thread while this call has the worker, so that the
    two sides' matrix products do not compete for the cores: the count is
    set on this thread before the worker starts and put back after the
    join.  When the worker is busy (a call from inside first(), from the
    worker itself, or from a second thread while another call has it), or
    no way to set the count is found, first() and then second() run here
    in turn and leave the count alone, so no call waits on the worker.
    """
    blas = _blas_threads()
    if blas is None or not _BUSY.acquire(blocking=False):
        return first(), second()
    get, set_ = blas
    restore = None
    try:
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


def by_halves(work: Callable[[Sequence, int], object], parts: Sequence,
              size: Callable[[object], int], total: int, minimum: int) -> tuple:
    """(work(first half, 0), work(second half, 1)) by `on_two_threads`, the
    parts cut in order where their running `size` passes half (k equal
    parts at (k + 1) // 2); or (work(parts, 0),) when `total`, the sum of
    their sizes, is below `minimum` or a half would be empty."""
    if total >= minimum and len(parts) > 1:
        ends = np.cumsum([size(part) for part in parts])
        cut = int(np.searchsorted(ends, ends[-1] / 2)) + 1
        if cut < len(parts):
            return on_two_threads(lambda: work(parts[:cut], 0), lambda: work(parts[cut:], 1))
    return (work(parts, 0),)


# ---------------------------------------------------------------------------
# construction helpers

def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=default_dtype()))


_INIT_CHUNK = 1 << 16   # elements drawn at a time by `parameter`
_DEFER_MIN = _INIT_CHUNK + 1   # smallest tensor whose draw `parameter` defers
_INIT_SCALE = 0.1   # `parameter` draws from [-_INIT_SCALE, _INIT_SCALE]
_SLOT = Tensor.data   # the `data` slot, read and written past `_Pending.data`
_DRAW_LOCK = threading.Lock()   # held while a pending parameter is drawn or settled


def _fill_uniform(rng: np.random.Generator, flat: np.ndarray) -> None:
    for start in range(0, flat.size, _INIT_CHUNK):
        stop = min(start + _INIT_CHUNK, flat.size)
        flat[start:stop] = rng.uniform(-_INIT_SCALE, _INIT_SCALE, size=stop - start)


class _Pending(Tensor):
    """A parameter whose seeded values are not drawn yet.

    Its slot holds (buffer, bit generator at the first value) until the
    first read of `data` draws the buffer, once, and makes the tensor a
    plain `Tensor` again, whose `data` is the slot read.  Assigning `data`,
    as a caller does after filling `buffer(tensor)`, skips the draw."""

    __slots__ = ()

    @property
    def data(self) -> np.ndarray:
        with _DRAW_LOCK:
            if type(self) is _Pending:   # not drawn by a thread that held the lock first
                data, bits = _SLOT.__get__(self)
                _fill_uniform(np.random.Generator(bits), data.reshape(-1))
                _settle(self, data)
        return _SLOT.__get__(self)

    @data.setter
    def data(self, value) -> None:
        with _DRAW_LOCK:
            _settle(self, value)


def _settle(tensor: Tensor, data) -> None:
    _SLOT.__set__(tensor, data)
    tensor.__class__ = Tensor


def buffer(tensor: Tensor) -> np.ndarray:
    """The array `tensor.data` reads, without drawing a pending parameter:
    its shape and dtype are final, its values not yet set."""
    with _DRAW_LOCK:
        value = _SLOT.__get__(tensor)
        return value[0] if type(tensor) is _Pending else value


def parameter(rng: np.random.Generator, shape) -> Tensor:
    """Trainable tensor, uniform in [-0.1, 0.1] (`_INIT_SCALE`).

    The values are `rng.uniform(-0.1, 0.1, size=shape)` cast to the
    working dtype, drawn in chunks of `_INIT_CHUNK` so that no float64 copy
    of a large weight is made; the generator's stream, and so every later
    draw, is the same as one whole draw's.  From `_DEFER_MIN` elements on,
    a PCG64 draw waits for the first read of `data` (a `_Pending` tensor):
    the tensor keeps a copy of the bit generator, and `rng` is advanced
    past its values at once, so that its whole state, buffered 32-bit value
    included, is the drawn one's.  A tensor that is overwritten whole
    before it is read, as `checkpoint.load_into` does, is never drawn.
    """
    data = np.empty(shape, dtype=default_dtype())
    bits = rng.bit_generator
    if data.size < _DEFER_MIN or type(bits) is not np.random.PCG64:
        _fill_uniform(rng, data.reshape(-1))
        return Tensor(data, requires_grad=True)
    state = bits.state
    first = np.random.PCG64()
    first.state = state
    # PCG64's `advance(n)` skips n 64-bit outputs, one per float64 uniform;
    # it drops the buffered 32-bit value, which a uniform draw keeps
    bits.advance(data.size)
    bits.state = {**bits.state, "has_uint32": state["has_uint32"],
                  "uinteger": state["uinteger"]}
    tensor = Tensor(data, requires_grad=True)
    tensor.__class__ = _Pending
    _SLOT.__set__(tensor, (data, first))
    return tensor


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
    """x @ weight + bias, with bias a [1, n] row added to every row of x in
    place into the product: bitwise `x @ weight + bias`, one block fewer."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.data.shape[1] != weight.data.shape[0]:
        raise ValueError(f"affine shape mismatch: {x.data.shape} x {weight.data.shape}")
    if bias.data.shape != (1, weight.data.shape[1]):
        raise ValueError(f"affine bias shape {bias.data.shape}, expected (1, {weight.data.shape[1]})")
    x_data, w_data = x.data, weight.data

    def vjp(g):
        return g @ w_data.T, x_data.T @ g, g.sum(axis=0, keepdims=True)

    out = x_data @ w_data
    out += bias.data
    return _push(out, (x, weight, bias), vjp)


def transpose(x: Tensor) -> Tensor:
    return _push(x.data.T.copy(), (x,), lambda g: (g.T,))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _push(out, (x,), lambda g: (g * (1.0 - out * out),))


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; the numerator exp(min(x, 0)) is exactly 1
    # for x >= 0 and e below 0, so this is 1 / (1 + e) and e / (1 + e), each
    # side saturating to exact 0/1, without a mask; NaN stays NaN
    e = np.exp(-np.abs(x))
    return np.exp(np.minimum(x, 0)) / (1 + e)


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

    def vjp(g):
        return tuple(np.split(g, np.cumsum([p.data.shape[axis] for p in parts])[:-1], axis=axis))

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
    forward scores the first half of those blocks (`by_halves`) here and
    the second on the worker through a second buffer, with BLAS at one
    thread while they run (`on_two_threads`).  The hand-written backward
    recomputes each block's tanh in the first buffer instead of storing it.
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

    by_halves(lambda part, side: score(part, np.empty_like(mixed) if side else mixed), blocks,
              lambda at: at.stop - at.start, count * n * hidden, _SCORE_SPLIT_MIN)

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
    weights, the mix, `pick` and `log` with the floor; except that a
    subnormal entry of the logits' adjoint becomes a zero of its sign.  Only
    the exps are kept for the backward, which writes the logits' adjoint in
    one full-width pass; a clamped gold gets no gradient.

    The flush keeps the training step's speed: once the copy gate nears 0,
    many of the adjoint's products underflow, and a subnormal operand makes
    the output affine's two products many times slower.
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
        d_logits[np.abs(d_logits) < np.finfo(d_logits.dtype).tiny] *= 0.0
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
    and back through time, run on two threads with BLAS at one thread while
    they do (`on_two_threads`); the weight-gradient products then run on
    this thread at BLAS's own count, where their bits depend on it.
    """
    runs = [_GRURun(xs.data, h0.data, [w.data for w in weights], reverse, lengths)
            for weights, reverse in ((forward_weights, False), (backward_weights, True))]
    hidden = h0.data.shape[1]
    split = xs.data.shape[0] * hidden * hidden >= _PAIR_SPLIT_MIN

    def both(first, second):
        if split:
            return on_two_threads(first, second)
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
        # checked on the caller's sequence; an integer sum also refuses a
        # float length, which packing would truncate
        try:
            fits = (getattr(lengths, "ndim", 1) == 1 and len(lengths) == B
                    and isinstance(total := sum(lengths), (int, np.integer)) and total == N
                    and min(lengths) >= 1)
        except TypeError:
            fits = False
        if not fits:
            raise ValueError(f"gru_sequence needs {B} lengths of at least 1 summing to {N}, "
                             f"got {np.asarray(lengths).tolist()}")
        if weights[0].shape != (D, H) or weights[1].shape != (H, H):
            raise ValueError(f"gru_sequence weights {weights[0].shape} and {weights[1].shape} "
                             f"do not fit inputs {xs.shape} and state {h0.shape}")
        # inside, the run is packed: sequences longest first, step t's rows
        # after step t-1's, so that step t runs the prefix still going.  One
        # step of B, or one sequence, is packed already.
        if N == B or B == 1:
            self.order = self.packed = self.unpacked = slice(None)
            self.steps = ([(slice(0, N), N)] if N == B
                          else [(slice(t, t + 1), 1) for t in range(N)])
        else:
            lengths = np.asarray(lengths, dtype=np.int64)
            self.order, self.packed, self.unpacked = _packing(lengths)
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
        reset = self.r * prev
        return (dx[self.unpacked], d_h0,
                _t_times(x, d_z), _t_times(prev, d_z), d_z.sum(axis=0, keepdims=True),
                _t_times(x, d_r), _t_times(prev, d_r), d_r.sum(axis=0, keepdims=True),
                _t_times(x, d_h), _t_times(reset, d_h), d_h.sum(axis=0, keepdims=True))


def _t_times(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """a.T @ d.  For one row, the outer product that BLAS's K=1 product
    forms, bitwise, without the call: its sum starts from +0, which turns a
    -0 product into +0, as `+= 0.0` does."""
    if a.shape[0] != 1:
        return a.T @ d
    out = a.T * d
    out += 0.0
    return out


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


class _RowMoments:
    """Adam's moments of the rows of a [V, ...] parameter whose gradient has
    not been zero, while they are at most half of the V rows.

    `reached` holds those rows in the order they were reached and `m` and
    `v` their moments in the same order, one flat row each, in arrays whose
    capacity doubles as rows arrive; `seen` marks them.
    """

    def __init__(self, shape: tuple[int, ...], dtype):
        self.shape, self.count = shape, 0
        self.seen = np.zeros(shape[0], bool)
        self.reached = np.empty(0, np.intp)
        self.m, self.v = (np.zeros((0, math.prod(shape[1:])), dtype) for _ in "mv")

    def reach(self, grad: np.ndarray) -> np.ndarray | None:
        """Every row reached once the rows where `grad` is not zero are; None
        when that is more than half the rows, and the moments turn dense."""
        new = np.flatnonzero(np.any(grad, axis=tuple(range(1, grad.ndim))) & ~self.seen)
        count = self.count + new.size
        if 2 * count > self.seen.size:
            return None
        if count > self.reached.size:
            cap = min(self.seen.size // 2, max(2 * self.reached.size, count))
            self.reached, self.m, self.v = (
                _grown(x, cap, self.count) for x in (self.reached, self.m, self.v))
        self.seen[new] = True
        self.reached[self.count:count] = new
        self.count = count
        return self.reached[:count]

    def dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Both moments at the parameter's shape, zero in unreached rows."""
        rows, dense = self.reached[:self.count], []
        for moment in (self.m, self.v):
            full = np.zeros((self.seen.size, moment.shape[1]), moment.dtype)
            full[rows] = moment[:self.count]
            dense.append(full.reshape(self.shape))
        return dense[0], dense[1]


def _grown(array: np.ndarray, rows: int, kept: int) -> np.ndarray:
    """A zero array of `rows` rows shaped like `array` after its first `kept`."""
    grown = np.zeros((rows, *array.shape[1:]), array.dtype)
    grown[:kept] = array[:kept]
    return grown


class Adam:
    """Adam with in-place updates; the caller zeroes gradients between steps.

    Only the learning rate is set; the moment decay rates and the
    denominator's floor are the class constants `BETA1`, `BETA2` and `EPS`.

    Each step evaluates the textbook expressions in their usual order, but
    over one flat chunk of `CHUNK` elements at a time, through two scratch
    buffers of one chunk.  A chunk's gradient, moments, values and scratch
    stay in a core's L2 cache across the dozen passes the expressions make,
    where a paper-size weight would stream from memory on every pass.

    Every parameter has one dtype, which the step computes in; `__init__`
    refuses a mix.  Parameters smaller than one chunk would each pay those
    passes for a few hundred values.  Their moments live, in C order one
    after another, in two flat arenas; a step gathers their values and
    gradients into two buffers laid out alike, updates them a chunk-sized
    window at a time, next to the larger parameters' own chunks, and
    writes each one's values back into its `.data` in place.

    A larger parameter starts with row moments (`_RowMoments`), kept for
    the rows where its gradient has not been zero.  Every other row has
    zero moments and a zero gradient, so the dense update would leave its
    moments and values exactly as they are.  A step
    gathers the gradient and values of a chunk's worth of reached rows at a
    time, updates them next to their compact moments and scatters the
    values back, so every value is bitwise the dense update's.  Finding the
    rows costs a read of the whole gradient.  Once more than half the rows
    are reached, the moments turn dense, for good: from there compact ones
    would save less than half the memory, and the row path, with its
    gathers, scatter and read, costs about what the dense one does
    (`BENCH_rowmoments.json`).  An embedding table of which a step reads a
    few hundred rows keeps two [rows, E] arrays instead of two [V, E] ones.

    From `_PASS_SPLIT_MIN` elements on, `by_halves` gives each of two
    threads half of the chunks and a scratch of its own (BLAS, which the
    step does not call, runs one thread meanwhile).  Every operation is
    elementwise, so the result is bitwise the unchunked one.
    """

    CHUNK = 1 << 16   # elements; of 16K to 128K, the fastest on a 2 MiB L2 core
    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: Mapping[str, Tensor], lr: float):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        dtype = next((p.data.dtype for p in self.params.values()), np.dtype(default_dtype()))
        for name, p in self.params.items():
            if p.data.dtype != dtype:
                raise ValueError(f"parameter '{name}' is {p.data.dtype}, but "
                                 f"'{next(iter(self.params))}' is {dtype}; "
                                 f"Adam steps parameters of one dtype")
        self._small = {name: p for name, p in self.params.items() if p.data.size < self.CHUNK}
        self._large = {name: p for name, p in self.params.items() if name not in self._small}
        size = sum(p.data.size for p in self._small.values())
        self._grads, self._values = np.empty(size, dtype), np.empty(size, dtype)
        m, v = np.zeros(size, dtype), np.zeros(size, dtype)
        # a small parameter's moments, and its values during a step, are C-order
        # slices of the arenas; a large one's are rows until they turn dense
        self._m, self._v, self._rows, self._slices, start = {}, {}, {}, [], 0
        for name, p in self.params.items():
            if name in self._small:
                stop = start + p.data.size
                self._m[name] = m[start:stop].reshape(p.data.shape)
                self._v[name] = v[start:stop].reshape(p.data.shape)
                self._slices.append(self._values[start:stop].reshape(p.data.shape))
                start = stop
            else:
                self._rows[name] = _RowMoments(p.data.shape, dtype)
        self._windows = [(*(x[start:start + self.CHUNK] for x in (self._grads, m, v, self._values)),
                          None) for start in range(0, size, self.CHUNK)]
        width = min(self.CHUNK, max([size, *(p.data.size for p in self._large.values())]))
        # a row table's chunk is whole rows, at least one
        width = max([width, *(moments.m.shape[1] for moments in self._rows.values())])
        self._scratch = [(np.empty(width, dtype), np.empty(width, dtype)) for _ in range(2)]

    def step(self) -> None:
        """One update of every parameter; raises ValueError, changing
        nothing, when any parameter has no gradient."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ValueError(f"parameter '{name}' has no gradient; run backward first")
        if self._windows:
            np.concatenate([p.grad for p in self._small.values()], axis=None, out=self._grads)
            np.concatenate([p.data for p in self._small.values()], axis=None, out=self._values)
        self.step_count += 1
        chunks, copies = list(self._windows), []
        for name, p in self._large.items():
            rows = self._reached_rows(name, p)
            if rows is None:
                # flat views; reshape copies a parameter that is not C-ordered,
                # and the copy is written back below
                flat = (p.grad.reshape(-1), self._m[name].reshape(-1),
                        self._v[name].reshape(-1), p.data.reshape(-1))
                chunks += [(*(x[start:start + self.CHUNK] for x in flat), None)
                           for start in range(0, flat[3].size, self.CHUNK)]
                if not p.data.flags.c_contiguous:
                    copies.append((p.data, flat[3]))
            else:
                m, v = (x[:rows.size] for x in (self._rows[name].m, self._rows[name].v))
                per = max(1, self.CHUNK // m.shape[1])
                chunks += [(p.grad, m[start:start + per].reshape(-1), v[start:start + per].reshape(-1),
                            p.data, rows[start:start + per]) for start in range(0, rows.size, per)]
        by_halves(lambda part, side: self._update(part, self._scratch[side]), chunks,
                  lambda chunk: chunk[1].size, sum(chunk[1].size for chunk in chunks),
                  _PASS_SPLIT_MIN)
        for p, values in zip(self._small.values(), self._slices):
            p.data[...] = values
        for data, values in copies:
            data[...] = values.reshape(data.shape)

    def _reached_rows(self, name: str, p: Tensor) -> np.ndarray | None:
        """The rows of `name` that a step updates, or None once its moments
        are dense; they turn dense here when `_RowMoments.reach` says so."""
        moments = self._rows.get(name)
        if moments is None:
            return None
        rows = moments.reach(p.grad)
        if rows is None:
            # C order, so that a flat view walks them in step with the parameter
            self._m[name], self._v[name] = moments.dense()
            del self._rows[name]
        return rows

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Copies of parameter `name`'s first and second moments, at its shape."""
        if name in self._rows:
            return self._rows[name].dense()
        return self._m[name].copy(), self._v[name].copy()

    def _update(self, chunks, scratch) -> None:
        t = self.step_count
        for g, m, v, d, rows in chunks:
            if rows is not None:   # g and d are a row table's: update copies of those rows
                table, g, d = d, g[rows].reshape(-1), d[rows].reshape(-1)
            a, b = (buffer[:g.size] for buffer in scratch)
            m *= self.BETA1
            np.multiply(g, 1.0 - self.BETA1, out=a)
            m += a
            v *= self.BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.BETA2
            v += a
            np.divide(m, 1.0 - self.BETA1 ** t, out=a)   # m_hat
            np.divide(v, 1.0 - self.BETA2 ** t, out=b)   # v_hat
            a *= self.lr
            np.sqrt(b, out=b)
            b += self.EPS
            a /= b
            d -= a
            if rows is not None:
                table[rows] = d.reshape(rows.size, *table.shape[1:])

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
    elements on, `by_halves` gives each of two threads half of the chunks,
    and their sums are added here in order; BLAS then runs one thread, and
    a dot product of 8K elements gives the same bits at any count.
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
    for part in by_halves(squares, chunks, np.size, sum(chunk.size for chunk in chunks),
                          _PASS_SPLIT_MIN):
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
