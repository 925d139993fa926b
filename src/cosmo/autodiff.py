"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is rebuilt on every forward pass: while a ``Tape`` is active, every
op whose output needs a gradient appends one node (inputs, output, backward
rule) to it. ``backward`` walks the tape once in reverse and deposits
gradients on the leaf tensors. With no tape active, ops compute plain values,
which is what evaluation code uses. A backward rule computes only the
gradients of the inputs that require one, so a frozen weight costs no
gradient product.

Python dispatch, not arithmetic, dominates at this model's sizes, so the hot
chains are single nodes with hand-written backward rules: ``attention`` is
scaled, masked softmax attention (in the spirit of FlashAttention, Dao et
al. 2022, arXiv 2205.14135: one kernel, not a chain of ops), and
``layer_norm`` takes the affine gain and bias. Each runs the float ops of the
unfused chain in the same order, so values do not change.

Tensors are immutable after creation except for their ``grad`` buffer. The
active tape is the top of one stack shared by the whole module, so tapes nest
but are not safe to use from several threads at once.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

_GELU_C = math.sqrt(2.0 / math.pi)

NEG_INF = -1e30  # the score of a hidden attention entry


class Tensor:
    """A dense n-dimensional array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        self.data = np.asarray(data, dtype=dtype or DEFAULT_DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def __getitem__(self, key):
        return slice_(self, key)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


class ShapeError(ValueError):
    """Raised when op inputs do not conform."""


class _Node:
    __slots__ = ("op", "inputs", "output", "vjp")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
                 vjp: Callable[[np.ndarray], tuple]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.vjp = vjp


class Tape:
    """Ordered record of one forward pass. Usable as a context manager."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self._output_ids: set[int] = set()

    def record(self, op, inputs, output, vjp) -> None:
        self.nodes.append(_Node(op, inputs, output, vjp))
        self._output_ids.add(id(output))

    def is_internal(self, t: Tensor) -> bool:
        return id(t) in self._output_ids

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()


_TAPE_STACK: list[Tape] = []


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _emit(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
          vjp: Callable[[np.ndarray], tuple]) -> Tensor:
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=needs, dtype=out_data.dtype)
    tape = active_tape()
    if tape is not None and needs:
        tape.record(op, tuple(inputs), out, vjp)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast")
    return _emit("add", (a, b), out,
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(g, b.shape) if b.requires_grad else None))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast")
    return _emit("mul", (a, b), out,
                 lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None))


def scale(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _emit("scale", (a,), a.data * c, lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supports 2D x 2D, stacked ND x ND with identical leading dims, and
    ND x 2D (a stack of row blocks through one matrix).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: needs >=2D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ for {a.shape} and {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ for {a.shape} and {b.shape}")
    out = a.data @ b.data

    if b.ndim == 2:
        k, n = b.shape

        def vjp(g):
            ga = g @ b.data.T if a.requires_grad else None
            gb = a.data.reshape(-1, k).T @ g.reshape(-1, n) if b.requires_grad else None
            return ga, gb
    else:
        def vjp(g):
            ga = g @ b.data.swapaxes(-1, -2) if a.requires_grad else None
            gb = a.data.swapaxes(-1, -2) @ g if b.requires_grad else None
            return ga, gb

    return _emit("matmul", (a, b), out, vjp)


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))  # np.argsort costs ~8 µs
    return _emit("transpose", (a,), a.data.transpose(axes),
                 lambda g: (g.transpose(inv),))


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view {old} as {shape}")
    return _emit("reshape", (a,), out, lambda g: (g.reshape(old),))


def slice_(a: Tensor, key) -> Tensor:
    """``a[key]`` for basic slices and integer-array gathers."""
    a = _as_tensor(a)
    out = a.data[key]
    # an integer array may read an entry more than once
    gathers = any(isinstance(k, (list, np.ndarray)) and np.asarray(k).dtype.kind in "iu"
                  for k in (key if isinstance(key, tuple) else (key,)))

    def vjp(g):
        z = np.zeros_like(a.data)
        if gathers:  # each read of an entry adds its gradient
            np.add.at(z, key, g)
        else:  # np.add.at is some 30x slower on a basic slice
            z[key] = g
        return (z,)

    return _emit("slice", (a,), out, vjp)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Join along ``axis``; a list of one tensor returns that tensor."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise ShapeError("concat: empty input list")
    if len(tensors) == 1:
        return tensors[0]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", tuple(tensors), out, vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _emit("softmax", (a,), y, vjp)


def layer_norm(a: Tensor, axis: int = -1, eps: float = 1e-5,
               gain: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """Normalize to zero mean / unit variance along one axis, then multiply by
    ``gain`` and add ``bias`` where given: one node for ``y * gain + bias``."""
    a = _as_tensor(a)
    n = a.shape[axis]
    # sums over n, as np.mean and np.var form them, without their overhead
    mu = a.data.sum(axis=axis, keepdims=True) / n
    centred = a.data - mu
    std = np.sqrt((centred * centred).sum(axis=axis, keepdims=True) / n + eps)
    y = centred / std
    gain = None if gain is None else _as_tensor(gain)
    bias = None if bias is None else _as_tensor(bias)
    out = y
    try:
        if gain is not None:
            out = out * gain.data
        if bias is not None:
            out = out + bias.data
    except ValueError:
        raise ShapeError(f"layer_norm: gain or bias does not broadcast to {a.shape}")

    def vjp(g):
        grads = [None]
        gy = g if gain is None else g * gain.data
        if a.requires_grad:
            gm = gy.sum(axis=axis, keepdims=True) / n
            gyy = (gy * y).sum(axis=axis, keepdims=True) / n
            grads[0] = (gy - gm - y * gyy) / std
        if gain is not None:
            grads.append(_unbroadcast(g * y, gain.shape) if gain.requires_grad else None)
        if bias is not None:
            grads.append(_unbroadcast(g, bias.shape) if bias.requires_grad else None)
        return tuple(grads)

    return _emit("layer_norm", tuple(t for t in (a, gain, bias) if t is not None),
                 out, vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              hidden: np.ndarray | None = None) -> Tensor:
    """softmax(q kᵀ · scale) v over queries q [..., sq, dk], keys k
    [..., sk, dk] and values v [..., sk, dv], as one node.

    The leading dims broadcast, so one query block can serve a batch of
    keys; its gradient is summed back down. ``hidden`` is a constant bool
    mask that broadcasts to the scores [..., sq, sk]: its entries score
    ``NEG_INF``, and a row hidden throughout attends uniformly.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} do not conform")
    c = float(scale)
    try:
        scores = (q.data @ k.data.swapaxes(-1, -2)) * c
        if hidden is not None:
            hidden = np.asarray(hidden, dtype=bool)
            scores = np.where(hidden, NEG_INF, scores)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out = p @ v.data
    except ValueError:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"or mask {np.shape(hidden)} do not broadcast")

    def vjp(g):
        gq = gk = gv = None
        if v.requires_grad:
            gv = _unbroadcast(p.swapaxes(-1, -2) @ g, v.shape)
        if q.requires_grad or k.requires_grad:
            gp = g @ v.data.swapaxes(-1, -2)
            gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
            if hidden is not None:
                gs = np.where(hidden, 0.0, gs)
            gs = gs * c
            if q.requires_grad:
                gq = _unbroadcast(gs @ k.data, q.shape)
            if k.requires_grad:
                gk = _unbroadcast(gs.swapaxes(-1, -2) @ q.data, k.shape)
        return gq, gk, gv

    return _emit("attention", (q, k, v), out, vjp)


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _emit("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    a = _as_tensor(a)
    x = a.data
    u = _GELU_C * (x + 0.044715 * (x * x * x))  # pow is ~70x slower
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)

    def vjp(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return _emit("gelu", (a,), y, vjp)


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)
    return _emit("exp", (a,), y, lambda g: (g * y,))


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _emit("log", (a,), np.log(a.data), lambda g: (g / a.data,))


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _emit("sum", (a,), np.asarray(out), vjp)


def mean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    count = a.size if axis is None else a.shape[axis]
    out = a.data.mean(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy() / count,)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy() / count,)

    return _emit("mean", (a,), np.asarray(out), vjp)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding_lookup: id out of range for table of {table.shape[0]} rows")
    out = table.data[ids]

    def vjp(g):
        z = np.zeros_like(table.data)
        np.add.at(z, ids, g)
        return (z,)

    return _emit("embedding_lookup", (table,), out, vjp)


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where ``mask`` is true by ``value`` (mask is constant)."""
    a = _as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    try:
        out = np.where(mask, value, a.data)
    except ValueError:
        raise ShapeError(f"masked_fill: mask {mask.shape} does not broadcast to {a.shape}")

    def vjp(g):
        return (_unbroadcast(np.where(mask, 0.0, g), a.shape),)

    return _emit("masked_fill", (a,), out, vjp)


# composites built from the primitives above (their backward comes for free)


def rsqrt(a: Tensor) -> Tensor:
    return exp(scale(log(a), -0.5))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values; gradient is zero outside [lo, hi]."""
    out = masked_fill(a, a.data < lo, lo)
    return masked_fill(out, out.data > hi, hi)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(a)), finite wherever ``a`` is: shifted by the max (a
    constant, which the result does not depend on) less the log-sum-exp."""
    shifted = add(a, Tensor(-a.data.max(axis=axis, keepdims=True)))
    return add(shifted, scale(log(sum_(exp(shifted), axis=axis, keepdims=True)), -1.0))


def add_all(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of a non-empty list, added left to right in list order."""
    if not tensors:
        raise ShapeError("add_all: empty input list")
    total = tensors[0]
    for t in tensors[1:]:
        total = add(total, t)
    return total


# ---------------------------------------------------------------------------
# backward + gradient checking


def backward(loss: Tensor, tape: Tape | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf.

    Gradients add up across multiple uses of a tensor and across repeated
    backward calls; call ``zero_grad`` between passes to reset.
    """
    tape = tape or active_tape()
    if tape is None:
        raise RuntimeError("backward: no active tape")
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.vjp(g)):
            if gi is None or not t.requires_grad:
                continue
            gi = np.asarray(gi, dtype=t.data.dtype).reshape(t.shape)
            if tape.is_internal(t):
                acc = grads.get(id(t))
                grads[id(t)] = gi if acc is None else acc + gi
            else:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad = t.grad + gi


def zero_grads(params) -> None:
    for p in (params.values() if isinstance(params, dict) else params):
        p.zero_grad()


def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor] | dict,
               eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` re-runs the forward pass from the current parameter values; it must
    be deterministic. Error per entry is |a - n| / max(1, |a|, |n|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    plist = list(params.values()) if isinstance(params, dict) else list(params)
    zero_grads(plist)
    with Tape() as tape:
        out = f()
        if not np.isfinite(out.data).all():
            raise FloatingPointError("grad_check: non-finite loss")
        backward(out, tape)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in plist]

    worst = 0.0
    for p, a in zip(plist, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f().data)
            flat[i] = orig - eps
            dn = float(f().data)
            flat[i] = orig
            if not (math.isfinite(up) and math.isfinite(dn)):
                raise FloatingPointError("grad_check: non-finite loss at probe")
            num = (up - dn) / (2 * eps)
            err = abs(aflat[i] - num) / max(1.0, abs(aflat[i]), abs(num))
            worst = max(worst, err)
    zero_grads(plist)
    return worst
