"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is rebuilt on every forward pass: while a ``Tape`` is active, every
op whose output needs a gradient appends one node (inputs, output, backward
rule) to it. ``backward`` walks the tape once in reverse and deposits
gradients on the leaf tensors. With no tape active, ops compute plain values,
which is what evaluation code uses. A backward rule computes only the
gradients of the inputs that require one, so a frozen weight costs no
gradient product.

Python dispatch, not arithmetic, dominates at this model's sizes, so the hot
chains are single nodes with hand-written backward rules, in the spirit of
FlashAttention (Dao et al. 2022, arXiv 2205.14135: one kernel, not a chain of
ops). ``attention`` is scaled, masked softmax attention, and ``layer_norm``
takes the affine gain and bias. One level up, ``decoder_block`` is a whole
pre-LN transformer block (self-attention and GELU MLP, both with their
residuals) and ``gated_cross_attention`` a whole tanh-gated, bottlenecked
cross-attention layer; each returns the keys and values it attended over as
plain arrays, which a decode cache holds. Each runs the float ops of the
unfused chain in the same order, so values do not change, and each computes
only the gradients its inputs require, as ``matmul`` does. The layer-norm,
attention and GELU maths lives once, in private numpy forward and backward
helpers that the ops and the kernels share.

The helpers and the kernels work in place on temporaries they allocated
themselves (``out=``, ``+=``, ``*=``, ``np.copyto`` for a mask), so a pass
does not churn one fresh array per elementwise step, in the IO-aware spirit
of FlashAttention. The rule that keeps this safe: never write to an input,
a weight, a cached key or value, a gradient handed to a ``vjp`` (an ``add``
hands the same array to both its inputs), or an array a ``vjp`` keeps; only
to an array made in the same call and not yet handed out. Each rewrite
keeps the old float ops in the old order: ``a + b`` and ``b + a`` are the
same bits, as are ``a * b`` and ``b * a``, and a product by 0.5 is exact
short of the subnormal range, so ``(x · s) · 0.5`` equals ``(0.5 · x) · s``.
So the values are bit-identical to the out-of-place formulas.

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

LN_EPS = 1e-5  # the variance floor of every layer norm


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
# numpy forward and backward maths, shared by the ops and the layer kernels


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the 2-D ``w`` in ``a @ w`` from that of the product."""
    return a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _ln_forward(x: np.ndarray, axis: int, gain: np.ndarray | None,
                bias: np.ndarray | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y · gain + bias, y, std) for y = x normalized along ``axis``. The
    gain and bias broadcast to the shape of ``x``."""
    n = x.shape[axis]
    # sums over n, as np.mean and np.var form them, without their overhead
    mu = x.sum(axis=axis, keepdims=True)
    mu /= n
    y = x - mu  # centred, normalized below
    std = (y * y).sum(axis=axis, keepdims=True)
    std /= n
    std += LN_EPS
    np.sqrt(std, out=std)
    y /= std
    if gain is not None:
        out = y * gain
        if bias is not None:
            out += bias
    elif bias is not None:
        out = y + bias
    else:
        out = y
    return out, y, std


def _ln_backward(g: np.ndarray, y: np.ndarray, std: np.ndarray, axis: int,
                 gain: np.ndarray | None, bias: np.ndarray | None,
                 need_x: bool, need_gain: bool, need_bias: bool) -> tuple:
    """Gradients (input, gain, bias) of ``_ln_forward`` from the output's
    ``g``; each is None unless asked for."""
    gx = ggain = gbias = None
    if need_x:
        n = y.shape[axis]
        gy = g if gain is None else g * gain
        gm = gy.sum(axis=axis, keepdims=True)
        gm /= n
        gyy = (gy * y).sum(axis=axis, keepdims=True)
        gyy /= n
        # (gy - gm - y · gyy) / std, in gy where it is not the caller's g
        gx = g - gm if gain is None else np.subtract(gy, gm, out=gy)
        gx -= y * gyy
        gx /= std
    if need_gain:
        ggain = _unbroadcast(g * y, gain.shape)
    if need_bias:
        gbias = _unbroadcast(g, bias.shape)
    return gx, ggain, gbias


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, c: float,
                       hidden: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(softmax(q kᵀ · c) v, the softmax) with ``hidden`` entries scored
    ``NEG_INF``; ``hidden`` broadcasts to the scores."""
    p = q @ k.swapaxes(-1, -2)
    p *= c
    if hidden is not None:
        np.copyto(p, NEG_INF, where=hidden)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p @ v, p


def _attention_backward(g: np.ndarray, q: np.ndarray, k: np.ndarray, v: np.ndarray,
                        p: np.ndarray, c: float, hidden: np.ndarray | None,
                        need_q: bool, need_k: bool, need_v: bool) -> tuple:
    """Gradients (q, k, v) of ``_attention_forward`` at their broadcast
    shapes; each is None unless asked for."""
    gq = gk = gv = None
    if need_v:
        gv = p.swapaxes(-1, -2) @ g
    if need_q or need_k:
        gs = g @ v.swapaxes(-1, -2)  # the softmax's gradient, then the scores'
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        if hidden is not None:
            np.copyto(gs, 0.0, where=hidden)
        gs *= c
        if need_q:
            gq = gs @ k
        if need_k:
            gk = gs.swapaxes(-1, -2) @ q
    return gq, gk, gv


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(x), the tanh it took) for the tanh approximation."""
    t = x * x  # x³ by products: pow is ~70x slower
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = t + 1.0  # 0.5 · x · (1 + t)
    y *= x
    y *= 0.5
    return y, t


def _gelu_backward(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g · (0.5 (1 + t) + 0.5 x (1 - t²) du) with du the derivative of the
    tanh's argument."""
    du = x * x
    du *= 3 * 0.044715
    du += 1.0
    du *= _GELU_C
    b = t * t
    np.subtract(1.0, b, out=b)
    b *= x
    b *= 0.5
    b *= du
    np.add(t, 1.0, out=du)
    du *= 0.5
    du += b
    du *= g
    return du


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
        def vjp(g):
            ga = g @ b.data.T if a.requires_grad else None
            gb = _weight_grad(a.data, g) if b.requires_grad else None
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


def layer_norm(a: Tensor, axis: int = -1, gain: Tensor | None = None,
               bias: Tensor | None = None) -> Tensor:
    """Normalize to zero mean / unit variance along one axis, adding
    ``LN_EPS`` to the variance as the fused kernels do, then multiply by
    ``gain`` and add ``bias`` where given: one node for ``y * gain + bias``."""
    a = _as_tensor(a)
    gain = None if gain is None else _as_tensor(gain)
    bias = None if bias is None else _as_tensor(bias)
    gd = None if gain is None else gain.data
    bd = None if bias is None else bias.data
    try:
        out, y, std = _ln_forward(a.data, axis, gd, bd)
    except ValueError:
        raise ShapeError(f"layer_norm: gain or bias does not broadcast to {a.shape}")
    inputs = tuple(t for t in (a, gain, bias) if t is not None)

    def vjp(g):
        gx, gg, gb = _ln_backward(g, y, std, axis, gd, bd, a.requires_grad,
                                  gain is not None and gain.requires_grad,
                                  bias is not None and bias.requires_grad)
        return (gx,) + ((gg,) if gain is not None else ()) \
            + ((gb,) if bias is not None else ())

    return _emit("layer_norm", inputs, out, vjp)


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
    if hidden is not None:
        hidden = np.asarray(hidden, dtype=bool)
    try:
        out, p = _attention_forward(q.data, k.data, v.data, c, hidden)
    except ValueError:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} "
                         f"or mask {np.shape(hidden)} do not broadcast")

    def vjp(g):
        gq, gk, gv = _attention_backward(g, q.data, k.data, v.data, p, c, hidden,
                                         q.requires_grad, k.requires_grad,
                                         v.requires_grad)
        return (None if gq is None else _unbroadcast(gq, q.shape),
                None if gk is None else _unbroadcast(gk, k.shape),
                None if gv is None else _unbroadcast(gv, v.shape))

    return _emit("attention", (q, k, v), out, vjp)


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)
    return _emit("tanh", (a,), y, lambda g: (g * (1.0 - y * y),))


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation."""
    a = _as_tensor(a)
    y, t = _gelu_forward(a.data)
    return _emit("gelu", (a,), y, lambda g: (_gelu_backward(g, a.data, t),))


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
# layer kernels: one node for a whole transformer layer


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """[B, s, d] -> [B, heads, s, d / heads], a view."""
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _join_heads(x: np.ndarray) -> np.ndarray:
    """[B, heads, s, dh] -> [B, s, heads * dh]."""
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def decoder_block(x: Tensor, ln1_g: Tensor, ln1_b: Tensor, wq: Tensor, wk: Tensor,
                  wv: Tensor, wo: Tensor, ln2_g: Tensor, ln2_b: Tensor,
                  mlp_w1: Tensor, mlp_b1: Tensor, mlp_w2: Tensor, mlp_b2: Tensor,
                  n_heads: int, hidden: np.ndarray | None = None,
                  past: tuple[np.ndarray, np.ndarray] | None = None
                  ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """A pre-LN transformer block over ``x`` [B, s, d] as one node:
    ``h = x + attention(LN1(x) wq, LN1(x) wk, LN1(x) wv) wo``, then
    ``h + gelu(LN2(h) w1 + b1) w2 + b2``, with ``n_heads`` heads.

    ``hidden`` is a constant bool mask that broadcasts to the scores [B,
    heads, s, past + s], as in ``attention``. ``past`` holds the keys and
    values [B, heads, past, d / heads] of earlier positions, as constants.
    Returns the output and the keys and values attended over (``past``'s
    first, then this call's), which a caller caches as the next ``past``.
    """
    x = _as_tensor(x)
    ws = (ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, mlp_w1, mlp_b1, mlp_w2, mlp_b2)
    if x.ndim != 3 or x.shape[-1] % n_heads:
        raise ShapeError(f"decoder_block: input {x.shape} is not [B, s, d] with d "
                         f"divisible by {n_heads} heads")
    (ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, w1, b1, w2, b2) = (w.data for w in ws)
    b, s, d = x.shape
    c = 1.0 / math.sqrt(d // n_heads)
    if hidden is not None:
        hidden = np.asarray(hidden, dtype=bool)
    try:
        z1, y1, std1 = _ln_forward(x.data, -1, ln1_g, ln1_b)
        q = _split_heads(z1 @ wq, n_heads)
        k = _split_heads(z1 @ wk, n_heads)
        v = _split_heads(z1 @ wv, n_heads)
        if past is not None:
            k = np.concatenate([past[0], k], axis=-2)
            v = np.concatenate([past[1], v], axis=-2)
        att, p = _attention_forward(q, k, v, c, hidden)
        merged = _join_heads(att)
        h = merged @ wo
        h += x.data
        z2, y2, std2 = _ln_forward(h, -1, ln2_g, ln2_b)
        pre = z2 @ w1
        pre += b1
        act, tanh_pre = _gelu_forward(pre)
        out = act @ w2
        out += b2
        out += h
    except ValueError:
        raise ShapeError(f"decoder_block: input {x.shape}, weights "
                         f"{[w.shape for w in ws]}, past "
                         f"{None if past is None else [a.shape for a in past]} "
                         f"or mask {np.shape(hidden)} do not conform")

    def vjp(g):
        want = [t.requires_grad for t in (x,) + ws]
        (want_x, want_ln1_g, want_ln1_b, want_wq, want_wk, want_wv, want_wo,
         want_ln2_g, want_ln2_b, want_w1, want_b1, want_w2, want_b2) = want
        grads = [None] * len(want)
        need_z1 = want_x or want_ln1_g or want_ln1_b
        need_q, need_k, need_v = need_z1 or want_wq, need_z1 or want_wk, need_z1 or want_wv
        need_h = need_q or need_k or need_v or want_wo
        need_z2 = need_h or want_ln2_g or want_ln2_b
        if want_b2:
            grads[12] = _unbroadcast(g, b2.shape)
        if want_w2:
            grads[11] = _weight_grad(act, g)
        gh = g
        if need_z2 or want_w1 or want_b1:
            gpre = _gelu_backward(g @ w2.T, pre, tanh_pre)
            if want_b1:
                grads[10] = _unbroadcast(gpre, b1.shape)
            if want_w1:
                grads[9] = _weight_grad(z2, gpre)
            if need_z2:
                gx2, grads[7], grads[8] = _ln_backward(
                    gpre @ w1.T, y2, std2, -1, ln2_g, ln2_b, need_h, want_ln2_g,
                    want_ln2_b)
                if need_h:
                    gh = gx2
                    gh += g
        if want_wo:
            grads[6] = _weight_grad(merged, gh)
        if need_q or need_k or need_v:
            gatt = _split_heads(gh @ wo.T, n_heads)
            gq, gk, gv = _attention_backward(gatt, q, k, v, p, c, hidden,
                                             need_q, need_k, need_v)
            # the past keys and values are constants: keep this call's rows
            gq, gk, gv = (None if a is None else _join_heads(a[..., -s:, :])
                          for a in (gq, gk, gv))
            for i, ga in ((3, gq), (4, gk), (5, gv)):
                if want[i]:
                    grads[i] = _weight_grad(z1, ga)
            if need_z1:
                # summed as the unfused chain's backward pass meets them
                gz1 = gv @ wv.T
                gz1 += gk @ wk.T
                gz1 += gq @ wq.T
                gx1, grads[1], grads[2] = _ln_backward(
                    gz1, y1, std1, -1, ln1_g, ln1_b, want_x, want_ln1_g, want_ln1_b)
                if want_x:
                    gx1 += gh
                    grads[0] = gx1
        return tuple(grads)

    return _emit("decoder_block", (x,) + ws, out, vjp), k, v


def gated_cross_attention(x: Tensor, ln_g: Tensor, ln_b: Tensor, down: Tensor,
                          wq: Tensor, wk: Tensor, wv: Tensor, up: Tensor,
                          gate: Tensor, visual: Tensor, hidden: np.ndarray,
                          kv: tuple[np.ndarray, np.ndarray] | None = None
                          ) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Tanh-gated, bottlenecked cross-attention from ``x`` [B, s, d] to the
    tokens ``visual`` [B, m, d] as one node:
    ``x + tanh(gate) · row · attention(LN(x) down wq, visual wk, visual wv) up``.

    ``hidden`` is a constant bool mask that broadcasts to the scores [B, s,
    m]; ``row`` is 0 for a query row hidden throughout, so a row that sees
    no visual token passes through unchanged. ``kv`` holds the visual keys
    and values [B, m, d / compress] of an earlier call, as constants; with
    it, ``visual`` is neither projected nor differentiated. Returns the
    output and the visual keys and values, which a caller caches as the next
    ``kv``.
    """
    x = _as_tensor(x)
    ws = (ln_g, ln_b, down, wq, wk, wv, up, gate, visual)
    (ln_g, ln_b, down, wq, wk, wv, up, gate, vis) = (w.data for w in ws)
    hidden = np.asarray(hidden, dtype=bool)
    try:
        xh, y, std = _ln_forward(x.data, -1, ln_g, ln_b)
        xb = xh @ down
        q = xb @ wq
        k, v = (vis @ wk, vis @ wv) if kv is None else kv
        c = 1.0 / math.sqrt(q.shape[-1])
        att, p = _attention_forward(q, k, v, c, hidden)
        row = (~hidden).any(axis=-1, keepdims=True).astype(np.float64)
        zm = att @ up
        zm *= row
        tg = np.tanh(gate)
        out = zm * tg
        out += x.data
    except ValueError:
        raise ShapeError(f"gated_cross_attention: input {x.shape}, weights "
                         f"{[w.shape for w in ws]} or mask {hidden.shape} "
                         f"do not conform")

    def vjp(g):
        want = [t.requires_grad for t in (x,) + ws]
        (want_x, want_ln_g, want_ln_b, want_down, want_wq, want_wk, want_wv,
         want_up, want_gate, want_vis) = want
        grads = [None] * len(want)
        if kv is not None:  # cached keys and values are constants
            want_wk = want_wv = want_vis = False
        need_xh = want_x or want_ln_g or want_ln_b
        need_xb = need_xh or want_down
        need_q = need_xb or want_wq
        need_k = want_wk or want_vis
        need_v = want_wv or want_vis
        if want_gate:
            grads[8] = _unbroadcast(g * zm, gate.shape) * (1.0 - tg * tg)
        if want_x:
            grads[0] = g
        if not (want_up or need_q or need_k or need_v):
            return tuple(grads)
        gz = g * tg
        gz *= row
        if want_up:
            grads[7] = _weight_grad(att, gz)
        gq, gk, gv = _attention_backward(gz @ up.T, q, k, v, p, c, hidden,
                                         need_q, need_k, need_v)
        if need_k:
            gk = _unbroadcast(gk, k.shape)
        if need_v:
            gv = _unbroadcast(gv, v.shape)
        if want_wq:
            grads[4] = _weight_grad(xb, gq)
        if need_xb:
            gxb = gq @ wq.T
            if want_down:
                grads[3] = _weight_grad(xh, gxb)
            if need_xh:
                gx, grads[1], grads[2] = _ln_backward(
                    gxb @ down.T, y, std, -1, ln_g, ln_b, want_x, want_ln_g, want_ln_b)
                if want_x:
                    gx += g
                    grads[0] = gx
        if want_wk:
            grads[5] = _weight_grad(vis, gk)
        if want_wv:
            grads[6] = _weight_grad(vis, gv)
        if want_vis:
            grads[9] = gv @ wv.T
            grads[9] += gk @ wk.T
        return tuple(grads)

    return _emit("gated_cross_attention", (x,) + ws, out, vjp), (k, v)


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
