"""The numpy helpers behind the layer kernels, against out-of-place formulas.

Each ``ref_*`` function below is a helper as it read before the helpers
worked in place on their own temporaries. The helpers must return the same
bits, leave every argument as it was, and a node's ``vjp`` must return the
same gradients however often it runs. The same holds for the fused loss op,
the tape walk, the causal mask and the optimizer step against the forms they
replaced: the op chain of a log-softmax and a gather, a ``backward`` that
accumulates every gradient out of place, ``np.triu`` and a per-parameter
AdamW loop.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cosmo import autodiff as ad
from cosmo import model as cm
from cosmo import training as tr
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


# -- the log-softmax gather against its op chain -----------------------------------

def ref_log_softmax_gather(a, index, axis):
    """The chain ``ad.log_softmax_gather`` replaces, one node per op."""
    shifted = ad.add(a, Tensor(-a.data.max(axis=axis, keepdims=True)))
    lse = ad.log(ad.sum_(ad.exp(shifted), axis=axis, keepdims=True))
    return ad.add(shifted, ad.scale(lse, -1.0))[index]


@st.composite
def gather_cases(draw):
    """A 1-D to 3-D shape, an axis, and as many index entries as the tensor
    has or more, so that some entry is read more than once."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    axis = draw(st.sampled_from([0, -1]))
    n = draw(st.integers(1, 2 * int(np.prod(shape)) + 1))
    return shape, axis, n, draw(st.sampled_from([0.1, 1.0, 30.0, 1000.0])), draw(seeds)


def gather_value_and_grad(op, x, index, axis, w):
    x.zero_grad()
    with Tape() as tape:
        out = op(x, index, axis)
        ad.backward(ad.sum_(ad.mul(out, Tensor(w))), tape)
    return out.data, x.grad


@settings(max_examples=80, deadline=None)
@given(gather_cases())
def test_log_softmax_gather_equals_the_op_chain(case):
    shape, axis, n, spread, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(spread * rng.normal(size=shape), requires_grad=True)
    index = tuple(rng.integers(0, d, size=n) for d in shape)
    # zero weights give -0.0 gradients, whose sign must survive too
    w = rng.normal(size=n) * (rng.random(n) < 0.7)
    got = gather_value_and_grad(ad.log_softmax_gather, x, index, axis, w)
    want = gather_value_and_grad(ref_log_softmax_gather, x, index, axis, w)
    assert_bits_equal(got, want)
    with Tape() as tape:
        ad.log_softmax_gather(x, index, axis)
    assert [node.op for node in tape.nodes] == ["log_softmax_gather"]


# -- the lean tape walk against an out-of-place one --------------------------------

def ref_backward(loss, tape):
    """``ad.backward`` as it read before the walk accumulated leaf
    gradients in place."""
    grads = {id(loss): np.ones_like(loss.data)}
    internal = {id(node.output) for node in tape.nodes}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.output), None)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.vjp(g)):
            if gi is None or not t.requires_grad:
                continue
            gi = np.asarray(gi, dtype=t.data.dtype).reshape(t.shape)
            if id(t) in internal:
                acc = grads.get(id(t))
                grads[id(t)] = gi if acc is None else acc + gi
            else:
                if t.grad is None:
                    t.grad = np.zeros_like(t.data)
                t.grad = t.grad + gi


@st.composite
def graphs(draw):
    """A random op sequence over [3, 4] tensors. Each step reads earlier
    tensors, leaves or outputs, so reuse fans out, and the loss reads the
    last few outputs. An output the loss does not read gets its first
    gradient from a later node, which may be an array an add also hands to
    its other input."""
    steps = draw(st.lists(st.tuples(st.sampled_from(["add", "mul", "matmul", "scale",
                                                     "gather", "slice", "sum"]),
                                    st.integers(0, 99), st.integers(0, 99)),
                          min_size=1, max_size=12))
    return (steps, draw(st.lists(st.booleans(), min_size=3, max_size=3)),
            draw(st.integers(1, len(steps))), draw(seeds))


def build_graph(steps, grad_flags, n_loss, rng):
    leaves = [Tensor(rng.normal(size=(3, 4)), requires_grad=f) for f in grad_flags]
    leaves.append(Tensor(rng.normal(size=(3, 4))))  # a constant
    pool = list(leaves)
    square = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    for op, i, j in steps:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if op == "add":
            out = ad.add(a, b)
        elif op == "mul":
            out = ad.mul(a, b)
        elif op == "matmul":
            out = ad.matmul(a, square)
        elif op == "scale":
            out = ad.scale(a, -0.5)
        elif op == "gather":
            out = ad.add(a[np.array([0, 2, 0]), :], b)
        elif op == "slice":  # basic slices, broadcast back up by an add
            out = ad.add(b, ad.add(a[0:1, :], a[2:3, :]))
        else:
            out = ad.add(b, ad.sum_(a, axis=0, keepdims=True))
        pool.append(out)
    # zero weights give -0.0 gradients, whose sign must survive too
    weights = [rng.normal(size=t.shape) * (rng.random(t.shape) < 0.8)
               for t in pool[-n_loss:]]
    terms = [ad.sum_(ad.mul(t, Tensor(w))) for t, w in zip(pool[-n_loss:], weights)]
    return leaves + [square], ad.add_all(terms)


@settings(max_examples=80, deadline=None)
@given(graphs())
# an add hands one array to a leaf and to an output, and the leaf, or in the
# second case the add's other input, gets a gradient again before the output
# passes its own back: an in-place sum would change the output's gradient
@example(([("scale", 1, 0), ("mul", 0, 0), ("add", 0, 4)], [True, True, True], 2, 0))
@example(([("scale", 0, 0), ("scale", 1, 1), ("mul", 4, 4), ("add", 4, 5)],
          [True, True, True], 2, 0))
def test_lean_backward_equals_an_out_of_place_walk(case):
    steps, grad_flags, n_loss, seed = case
    with Tape() as tape:
        leaves, loss = build_graph(steps, grad_flags, n_loss,
                                   np.random.default_rng(seed))
    if not loss.requires_grad:
        return
    results = []
    for walk in (ad.backward, ref_backward):
        ad.zero_grads(leaves)
        for _ in range(2):  # a second walk adds to the first one's gradients
            walk(loss, tape)
            results.append([None if t.grad is None else t.grad.copy() for t in leaves])
    lean, ref = results[:2], results[2:]
    for got, want in zip(lean, ref):
        assert_bits_equal(got, want)


# -- the causal mask ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 12), st.integers(1, 16))
def test_causal_view_equals_triu_and_refuses_writes(s, start, max_seq):
    got = cm._causal(s, start, max_seq)
    if s == 1:
        assert got is None
        return
    want = np.triu(np.ones((s, start + s), dtype=bool), k=1 + start)
    assert got.shape == want.shape and np.array_equal(got, want)
    with pytest.raises(ValueError, match="read-only"):
        got[0, -1] = False
    assert cm._causal(s, start, max_seq).base is got.base  # one mask, shared


# -- the flat AdamW against the per-parameter loop -----------------------------------

def ref_adamw_update(model, state, lr, config):
    """``training.adamw_update`` as it read before it ran on one flat vector."""
    b1, b2 = tr.ADAM_BETAS
    state.opt_steps += 1
    for name, p in model.learnable_params.items():
        g = p.grad
        if g is None:
            continue
        t = state.param_steps[name] = state.param_steps[name] + 1
        m = state.adam_m[name] = b1 * state.adam_m[name] + (1 - b1) * g
        v = state.adam_v[name] = b2 * state.adam_v[name] + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        update = mhat / (np.sqrt(vhat) + 1e-8)
        if config.weight_decay and not tr._no_decay(name):
            update = update + config.weight_decay * p.data
        p.data = p.data - lr * update


ADAM_PARAMS = {"resampler/wq": (3, 4), "fusion2/ln_g": (4,), "fusion2/gate": (1,),
               "fusion2/down": (4, 2), "contrastive/log_scale": (1,),
               "contrastive/text_head": (4, 3)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=len(ADAM_PARAMS), max_size=len(ADAM_PARAMS)),
       st.lists(st.integers(0, 50), min_size=len(ADAM_PARAMS), max_size=len(ADAM_PARAMS)),
       st.sampled_from([0.0, 0.1]), st.integers(1, 3), seeds)
def test_flat_adamw_equals_the_per_parameter_loop(has_grad, steps, decay, n_updates,
                                                  seed):
    rng = np.random.default_rng(seed)
    init = {name: rng.normal(size=shape) for name, shape in ADAM_PARAMS.items()}
    moments = {name: (rng.normal(size=shape) ** 2, rng.random(shape))
               for name, shape in ADAM_PARAMS.items()}
    grads = [{name: rng.normal(size=shape) if keep else None
              for (name, shape), keep in zip(ADAM_PARAMS.items(), has_grad)}
             for _ in range(n_updates)]
    config = tr.TrainConfig(weight_decay=decay)
    runs = []
    for update in (tr.adamw_update, ref_adamw_update):
        params = {name: Tensor(a.copy(), requires_grad=True, name=name)
                  for name, a in init.items()}
        model = SimpleNamespace(learnable_params=params)
        state = tr.TrainState(param_steps=dict(zip(ADAM_PARAMS, steps)),
                              adam_m={n: m.copy() for n, (m, _) in moments.items()},
                              adam_v={n: v.copy() for n, (_, v) in moments.items()})
        for step_grads in grads:
            for name, p in params.items():
                p.grad = step_grads[name]
            update(model, state, 3e-3, config)
        runs.append((params, state))
    (params, state), (ref_params, ref_state) = runs
    assert state.param_steps == ref_state.param_steps
    assert state.opt_steps == ref_state.opt_steps
    for name in ADAM_PARAMS:
        assert_bits_equal((params[name].data, state.adam_m[name], state.adam_v[name]),
                          (ref_params[name].data, ref_state.adam_m[name],
                           ref_state.adam_v[name]))
        if not any(g[name] is not None for g in grads):  # untouched: not moved
            assert params[name].data.tobytes() == init[name].tobytes()
