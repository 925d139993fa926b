"""The numpy helpers behind the layer kernels, against out-of-place formulas.

Each ``ref_*`` function below is a helper as it read before the helpers
worked in place on their own temporaries. The helpers must return the same
bits, leave every argument as it was, and a node's ``vjp`` must return the
same gradients however often it runs.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from cosmo import autodiff as ad
from cosmo.autodiff import LN_EPS, NEG_INF, Tape, Tensor, _unbroadcast

_GELU_C = math.sqrt(2.0 / math.pi)


# -- the out-of-place formulas ------------------------------------------------

def ref_ln_forward(x, axis, gain, bias):
    n = x.shape[axis]
    mu = x.sum(axis=axis, keepdims=True) / n
    centred = x - mu
    std = np.sqrt((centred * centred).sum(axis=axis, keepdims=True) / n + LN_EPS)
    y = centred / std
    out = y
    if gain is not None:
        out = out * gain
    if bias is not None:
        out = out + bias
    return out, y, std


def ref_ln_backward(g, y, std, axis, gain, bias, need_x, need_gain, need_bias):
    gx = ggain = gbias = None
    if need_x:
        n = y.shape[axis]
        gy = g if gain is None else g * gain
        gm = gy.sum(axis=axis, keepdims=True) / n
        gyy = (gy * y).sum(axis=axis, keepdims=True) / n
        gx = (gy - gm - y * gyy) / std
    if need_gain:
        ggain = _unbroadcast(g * y, gain.shape)
    if need_bias:
        gbias = _unbroadcast(g, bias.shape)
    return gx, ggain, gbias


def ref_attention_forward(q, k, v, c, hidden):
    scores = (q @ k.swapaxes(-1, -2)) * c
    if hidden is not None:
        scores = np.where(hidden, NEG_INF, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return p @ v, p


def ref_attention_backward(g, q, k, v, p, c, hidden, need_q, need_k, need_v):
    gq = gk = gv = None
    if need_v:
        gv = p.swapaxes(-1, -2) @ g
    if need_q or need_k:
        gp = g @ v.swapaxes(-1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        if hidden is not None:
            gs = np.where(hidden, 0.0, gs)
        gs = gs * c
        if need_q:
            gq = gs @ k
        if need_k:
            gk = gs.swapaxes(-1, -2) @ q
    return gq, gk, gv


def ref_gelu_forward(x):
    u = _GELU_C * (x + 0.044715 * (x * x * x))
    t = np.tanh(u)
    return 0.5 * x * (1.0 + t), t


def ref_gelu_backward(g, x, t):
    du = _GELU_C * (1.0 + 3 * 0.044715 * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


# -- helpers ------------------------------------------------------------------

def assert_bits_equal(got, want):
    got, want = tuple(got), tuple(want)
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), i
        if a is not None:
            assert a.shape == b.shape and a.dtype == b.dtype, i
            assert np.array_equal(a, b), i
            assert np.array_equal(np.signbit(a), np.signbit(b)), i


def call_unchanged(f, *args):
    """``f(*args)``, asserting that it writes to none of its array arguments."""
    before = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    out = f(*args)
    for i, (a, b) in enumerate(zip(args, before)):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f"argument {i} was written to"
    return out


def broadcast_shape(draw, shape):
    """A shape that broadcasts to ``shape``: a suffix of it, each dim kept or 1."""
    suffix = shape[len(shape) - draw(st.integers(0, len(shape))):]
    return tuple(n if draw(st.booleans()) else 1 for n in suffix)


seeds = st.integers(0, 2**32 - 1)
spreads = st.sampled_from([0.1, 1.0, 8.0])


# -- layer norm -----------------------------------------------------------------

@st.composite
def ln_cases(draw):
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    axis = draw(st.integers(-len(shape), len(shape) - 1))
    gain, bias = (broadcast_shape(draw, shape) if draw(st.booleans()) else None
                  for _ in range(2))
    flags = tuple(draw(st.booleans()) for _ in range(3))
    return shape, axis, gain, bias, flags, draw(spreads), draw(seeds)


@settings(max_examples=60, deadline=None)
@given(ln_cases())
def test_layer_norm_helpers_equal_out_of_place_formulas(case):
    shape, axis, gain_shape, bias_shape, flags, spread, seed = case
    rng = np.random.default_rng(seed)
    x = spread * rng.normal(size=shape) + rng.normal()
    gain = None if gain_shape is None else 1.0 + rng.normal(size=gain_shape)
    bias = None if bias_shape is None else rng.normal(size=bias_shape)
    out, y, std = call_unchanged(ad._ln_forward, x, axis, gain, bias)
    assert_bits_equal((out, y, std), ref_ln_forward(x, axis, gain, bias))
    need_x, need_gain, need_bias = flags
    need_gain &= gain is not None
    need_bias &= bias is not None
    g = rng.normal(size=out.shape)
    args = (g, y, std, axis, gain, bias, need_x, need_gain, need_bias)
    assert_bits_equal(call_unchanged(ad._ln_backward, *args), ref_ln_backward(*args))


# -- attention ------------------------------------------------------------------

@st.composite
def attention_cases(draw):
    """Leading dims, sizes, a query block shared by the batch or not, a mask
    shape that broadcasts to the scores, and a scale."""
    lead = tuple(draw(st.lists(st.integers(1, 3), min_size=0, max_size=2)))
    sq, sk, dk, dv = (draw(st.integers(1, 5)) for _ in range(4))
    shared = draw(st.booleans())
    mask = broadcast_shape(draw, lead + (sq, sk)) if draw(st.booleans()) else None
    flags = tuple(draw(st.booleans()) for _ in range(3))
    scale = draw(st.sampled_from([0.25, 0.7, 3.0]))
    return lead, (sq, sk, dk, dv), shared, mask, flags, scale, draw(spreads), draw(seeds)


@settings(max_examples=60, deadline=None)
@given(attention_cases())
def test_attention_helpers_equal_out_of_place_formulas(case):
    lead, (sq, sk, dk, dv), shared, mask, flags, c, spread, seed = case
    rng = np.random.default_rng(seed)
    q = spread * rng.normal(size=(sq, dk) if shared else lead + (sq, dk))
    k = spread * rng.normal(size=lead + (sk, dk))
    v = rng.normal(size=lead + (sk, dv))
    hidden = None
    if mask is not None:
        hidden = rng.random(mask) < 0.4
        if len(mask) >= 2:
            hidden[..., 0, :] = True  # a query row hidden throughout
    out, p = call_unchanged(ad._attention_forward, q, k, v, c, hidden)
    assert_bits_equal((out, p), ref_attention_forward(q, k, v, c, hidden))
    g = rng.normal(size=out.shape)
    args = (g, q, k, v, p, c, hidden) + flags
    assert_bits_equal(call_unchanged(ad._attention_backward, *args),
                      ref_attention_backward(*args))


# -- gelu -----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4).map(tuple), spreads, seeds)
def test_gelu_helpers_equal_out_of_place_formulas(shape, spread, seed):
    rng = np.random.default_rng(seed)
    x = spread * rng.normal(size=shape)
    y, t = call_unchanged(ad._gelu_forward, x)
    assert_bits_equal((y, t), ref_gelu_forward(x))
    g = rng.normal(size=shape)
    assert_bits_equal((call_unchanged(ad._gelu_backward, g, x, t),),
                      (ref_gelu_backward(g, x, t),))


# -- vjps run twice ---------------------------------------------------------------

def kernel_nodes(rng):
    """One taped node per op that calls a helper, every input requiring a
    gradient."""
    def leaf(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    b, s, d, h = 2, 3, 4, 2
    causal = np.triu(np.ones((s, s + 1), dtype=bool), k=2)
    past = tuple(rng.normal(size=(b, h, 1, d // h)) for _ in range(2))
    block_ws = [leaf(*shape) for shape in [(d,), (d,), (d, d), (d, d), (d, d), (d, d),
                                           (d,), (d,), (d, 4 * d), (4 * d,),
                                           (4 * d, d), (d,)]]
    cross_ws = [leaf(*shape) for shape in [(d,), (d,), (d, 2), (2, 2), (d, 2), (d, 2),
                                           (2, d), (1,)]]
    cross_hidden = rng.random((b, s, 5)) < 0.5
    cross_hidden[:, 0] = True
    with Tape() as tape:
        ad.layer_norm(leaf(b, s, d), gain=leaf(d), bias=leaf(d))
        ad.layer_norm(leaf(b, s, d), axis=1)
        ad.attention(leaf(s, d), leaf(b, s + 1, d), leaf(b, s + 1, d), 0.5,
                     np.eye(s, s + 1, dtype=bool))
        ad.gelu(leaf(b, s, d))
        ad.decoder_block(leaf(b, s, d), *block_ws, n_heads=h, hidden=causal, past=past)
        ad.gated_cross_attention(leaf(b, s, d), *cross_ws, leaf(b, 5, d), cross_hidden)
    return tape.nodes


def test_each_vjp_returns_the_same_gradients_twice_and_keeps_its_input():
    rng = np.random.default_rng(3)
    nodes = kernel_nodes(rng)
    assert [n.op for n in nodes] == ["layer_norm", "layer_norm", "attention", "gelu",
                                     "decoder_block", "gated_cross_attention"]
    for node in nodes:
        g = rng.normal(size=node.output.shape)
        first = call_unchanged(node.vjp, g)
        first = [None if a is None else a.copy() for a in first]
        assert all(a is not None for a in first), node.op
        assert_bits_equal(call_unchanged(node.vjp, g), first)


# -- allocations --------------------------------------------------------------

def peak_bytes(f, *args):
    """(f(*args), the peak of the bytes it held at once beyond its arguments)."""
    f(*args)  # leave one-off allocations out of the count
    tracemalloc.start()
    try:
        out = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_gelu_and_layer_norm_hold_their_outputs_and_one_temporary():
    """On the [4, 34, 128] MLP hidden of the few-shot prompt pass, the peak
    is the kept outputs plus at most one input-sized temporary (the
    out-of-place formulas read 5.0x and 4.5x the input's bytes)."""
    x = np.random.default_rng(0).normal(size=(4, 34, 128))
    small = 4096  # per-row sums and means
    kept, peak = peak_bytes(ad._gelu_forward, x)
    assert peak <= sum(a.nbytes for a in kept) + x.nbytes + small
    gain, bias = np.ones(128), np.zeros(128)
    kept, peak = peak_bytes(ad._ln_forward, x, -1, gain, bias)
    assert peak <= sum(a.nbytes for a in kept) + x.nbytes + small
