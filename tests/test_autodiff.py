import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmo import autodiff as ad
from cosmo.autodiff import Tape, Tensor
from gradcheck import grad_check


def test_apply_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor([[1.0, 0.0], [0.0, 1.0]])
    out = ad.matmul(a, eye)
    np.testing.assert_allclose(out.data, [[1, 2], [3, 4]])


def test_apply_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25])


def test_layer_norm_three_values():
    # (x - mean) / sqrt(var + 1e-5) on [2, 4, 6]: mean 4, var 8/3
    out = ad.layer_norm(Tensor([2.0, 4.0, 6.0]), axis=0)
    np.testing.assert_allclose(out.data, [-1.2247, 0.0, 1.2247], atol=1e-3)


def test_shape_error_names_op_and_shapes():
    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\)"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_backward_sum_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(x)
        ad.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(ad.mul(x, x))
        ad.backward(loss, tape)
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_cross_entropy_two_logits():
    # d(-log softmax(z)[0])/dz = softmax(z) - onehot(0) = [-0.5, 0.5] at z = [0, 0]
    z = Tensor([0.0, 0.0], requires_grad=True)
    with Tape() as tape:
        p = ad.softmax(z, axis=0)
        loss = scale_neg_log = ad.scale(ad.log(p[0:1]), -1.0)
        loss = ad.sum_(scale_neg_log)
        ad.backward(loss, tape)
    np.testing.assert_allclose(z.grad, [-0.5, 0.5], atol=1e-12)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError, match="scalar"):
            ad.backward(y, tape)


def test_reuse_accumulates_like_sum_of_single_uses():
    # y = x*x + x*x + x*x uses x six times; grad must equal 6x
    x = Tensor([1.5, -2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.sum_(ad.add(ad.add(ad.mul(x, x), ad.mul(x, x)), ad.mul(x, x)))
        ad.backward(y, tape)
    np.testing.assert_allclose(x.grad, 6 * x.data)


def test_no_grad_without_requires_grad():
    x = Tensor([1.0, 2.0])
    y = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_(ad.mul(x, y))
        ad.backward(loss, tape)
    assert x.grad is None
    np.testing.assert_allclose(y.grad, x.data)


def test_grad_check_quadratic():
    x = Tensor([1.0, 2.0], requires_grad=True)
    err = grad_check(lambda: ad.sum_(ad.mul(x, x)), [x], eps=1e-5)
    assert err < 1e-8


def test_grad_check_constant():
    x = Tensor([1.0], requires_grad=True)
    c = Tensor([5.0])
    err = grad_check(lambda: ad.sum_(c), [x], eps=1e-5)
    assert err == 0.0


def test_grad_check_rejects_bad_eps():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: ad.sum_(x), [x], eps=1e-2)


def test_grad_check_non_finite_loss():
    x = Tensor([0.0], requires_grad=True)
    with pytest.raises(FloatingPointError), \
            pytest.warns(RuntimeWarning, match="divide by zero"):
        grad_check(lambda: ad.sum_(ad.log(x)), [x], eps=1e-5)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = Tensor(rng.normal(size=(5, 7)) * 10)
        y = ad.softmax(x, axis=-1)
        assert (y.data >= 0).all()
        np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(5), atol=1e-12)


def _rand_shape(rng, nd):
    return tuple(int(rng.integers(1, 9)) for _ in range(nd))


def test_every_op_matches_finite_differences():
    """Analytic vs central-difference gradients on randomized shapes, 50 seeds."""
    for seed in range(50):
        rng = np.random.default_rng(seed)

        m, k, n = (int(rng.integers(1, 9)) for _ in range(3))
        a = Tensor(rng.normal(size=(m, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, n)), requires_grad=True)
        assert grad_check(lambda: ad.sum_(ad.matmul(a, b)), [a, b]) < 1e-6

        sh = _rand_shape(rng, 2)
        x = Tensor(rng.normal(size=sh), requires_grad=True)
        y = Tensor(rng.normal(size=sh), requires_grad=True)
        row = Tensor(rng.normal(size=(1, sh[1])), requires_grad=True)

        cases = [
            lambda: ad.sum_(ad.add(x, y)),
            lambda: ad.sum_(ad.mul(x, y)),
            lambda: ad.sum_(ad.add(x, row)),         # broadcast add
            lambda: ad.sum_(ad.mul(x, row)),         # broadcast mul
            lambda: ad.sum_(ad.scale(x, -2.5)),
            lambda: ad.sum_(ad.mul(ad.transpose(x), ad.transpose(x))),
            lambda: ad.sum_(ad.mul(ad.reshape(x, (-1,)), ad.reshape(x, (-1,)))),
            lambda: ad.sum_(ad.mul(x[0:1, :], x[0:1, :])),
            lambda: ad.sum_(ad.mul(ad.concat([x, y], axis=0), ad.concat([y, x], axis=0))),
            lambda: ad.sum_(ad.mul(ad.softmax(x, axis=-1), y)),
            lambda: ad.sum_(ad.mul(ad.layer_norm(x, axis=-1), y)) if sh[1] > 1
            else ad.sum_(x),
            lambda: ad.sum_(ad.tanh(x)),
            lambda: ad.sum_(ad.gelu(x)),
            lambda: ad.sum_(ad.exp(ad.scale(x, 0.3))),
            lambda: ad.sum_(ad.log(ad.add(ad.mul(x, x), Tensor(np.ones(sh))))),
            lambda: ad.sum_(ad.mul(ad.mean(x, axis=0, keepdims=True), row)),
            lambda: ad.sum_(ad.mul(ad.sum_(x, axis=1, keepdims=True),
                                   ad.sum_(y, axis=1, keepdims=True))),
            lambda: ad.mean(ad.masked_fill(x, x.data > 0.5, -1.0)),
        ]
        for f in cases:
            assert grad_check(f, [x, y, row]) < 1e-4

        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = rng.integers(0, 6, size=5)
        assert grad_check(
            lambda: ad.sum_(ad.mul(ad.embedding_lookup(table, ids),
                                   ad.embedding_lookup(table, ids))),
            [table]) < 1e-6

        # stacked matmul as used by multi-head attention
        h = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        assert grad_check(lambda: ad.sum_(ad.matmul(h, w)), [h, w]) < 1e-6
        w2 = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert grad_check(lambda: ad.sum_(ad.matmul(h, w2)), [h, w2]) < 1e-6


def test_embedding_lookup_range_check():
    table = Tensor(np.ones((4, 2)))
    with pytest.raises(ad.ShapeError, match="embedding_lookup"):
        ad.embedding_lookup(table, [0, 4])


def test_composites():
    x = Tensor([4.0, 9.0], requires_grad=True)
    np.testing.assert_allclose(ad.rsqrt(x).data, [0.5, 1.0 / 3.0])
    np.testing.assert_allclose(ad.clamp(Tensor([-2.0, 0.5, 3.0]), 0.0, 1.0).data,
                               [0.0, 0.5, 1.0])
    assert grad_check(lambda: ad.sum_(ad.rsqrt(x)), [x]) < 1e-6


def test_gather_with_a_repeated_index_adds_its_gradients():
    x = Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        ad.backward(ad.sum_(x[[0, 0, 2]]), tape)
    np.testing.assert_array_equal(x.grad, [2.0, 0.0, 1.0, 0.0])


def test_add_all_sums_left_to_right():
    # 1e16 + 1 rounds back to 1e16, so only left-to-right order gives 0
    parts = [Tensor(1e16), Tensor(1.0), Tensor(-1e16)]
    assert ad.add_all(parts).item() == 0.0
    one = Tensor(2.0)
    assert ad.add_all([one]) is one
    with pytest.raises(ad.ShapeError, match="add_all"):
        ad.add_all([])


def test_ops_outside_tape_do_not_record():
    x = Tensor([1.0], requires_grad=True)
    y = ad.mul(x, x)
    assert ad.active_tape() is None
    assert y.requires_grad  # flag propagates, but nothing recorded


# -- property tests: gradients of the ops batched model code uses -------------
# Each loss weighs every output entry by a fixed random weight, so a wrong
# entry of a vector-Jacobian product cannot hide in a plain sum.

dims = st.integers(1, 3)
shapes = st.lists(dims, min_size=2, max_size=4).map(tuple)
seeds = st.integers(0, 2**32 - 1)


def leaf(rng, shape) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True)


@settings(max_examples=25, deadline=None)
@given(shapes, dims, seeds)
def test_matmul_nd_by_2d_gradients(shape, n, seed):
    rng = np.random.default_rng(seed)
    a, b = leaf(rng, shape), leaf(rng, (shape[-1], n))
    w = rng.normal(size=shape[:-1] + (n,))
    assert grad_check(lambda: ad.sum_(ad.mul(ad.matmul(a, b), Tensor(w))),
                         [a, b]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, dims, seeds)
def test_matmul_nd_by_nd_gradients(shape, n, seed):
    rng = np.random.default_rng(seed)
    a, b = leaf(rng, shape), leaf(rng, shape[:-2] + (shape[-1], n))
    w = rng.normal(size=shape[:-1] + (n,))
    assert grad_check(lambda: ad.sum_(ad.mul(ad.matmul(a, b), Tensor(w))),
                         [a, b]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(st.just(s),
                                          st.permutations(range(len(s))))), seeds)
def test_transpose_with_axes_gradients(shape_axes, seed):
    shape, axes = shape_axes
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    w = rng.normal(size=tuple(shape[i] for i in axes))
    assert grad_check(lambda: ad.sum_(ad.mul(ad.transpose(x, tuple(axes)),
                                                Tensor(w))), [x]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, seeds)
def test_reshape_and_softmax_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    axis = int(rng.integers(-len(shape), len(shape)))
    w = rng.normal(size=shape)
    for target in (tuple(reversed(shape)), (-1, shape[-1]), (1, *shape)):
        assert grad_check(
            lambda: ad.sum_(ad.mul(ad.reshape(x, target), Tensor(w.reshape(target)))),
            [x]) < 1e-6
    assert grad_check(lambda: ad.sum_(ad.mul(ad.softmax(x, axis=axis),
                                                Tensor(w))), [x]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, dims, seeds)
def test_concat_and_slice_gradients(shape, extra, seed):
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(-len(shape), len(shape)))
    other = list(shape)
    other[axis] = extra
    x, y = leaf(rng, shape), leaf(rng, tuple(other))
    joined = ad.concat([x, y], axis=axis)
    w = rng.normal(size=joined.shape)
    assert grad_check(lambda: ad.sum_(ad.mul(ad.concat([x, y], axis=axis),
                                                Tensor(w))), [x, y]) < 1e-6
    lo = int(rng.integers(0, shape[axis]))
    key = [slice(None)] * len(shape)
    key[axis] = slice(lo, shape[axis])
    key = tuple(key)
    ws = rng.normal(size=x.data[key].shape)
    assert grad_check(lambda: ad.sum_(ad.mul(x[key], Tensor(ws))), [x]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, seeds)
def test_masked_fill_broadcast_mask_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    # the mask drops some leading axes and keeps some others at size 1
    kept = shape[int(rng.integers(0, len(shape))):]
    mask = rng.random(tuple(s if rng.random() < 0.5 else 1 for s in kept)) < 0.5
    w = rng.normal(size=shape)
    assert grad_check(lambda: ad.sum_(ad.mul(ad.masked_fill(x, mask, -3.0),
                                                Tensor(w))), [x]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, seeds)
def test_gather_with_repeated_indices_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    # more reads than entries along the axis, so some entry is read twice
    axis = int(rng.integers(0, len(shape)))
    idx = rng.integers(0, shape[axis], size=2 * shape[axis] + 1)
    along = tuple(idx if i == axis else slice(None) for i in range(len(shape)))
    # paired arrays over the first two axes, as the losses pick their targets
    n = 2 * shape[0] * shape[1] + 1
    paired = (rng.integers(0, shape[0], size=n), rng.integers(0, shape[1], size=n))
    for key in (along, paired):
        w = rng.normal(size=x.data[key].shape)
        assert grad_check(lambda: ad.sum_(ad.mul(x[key], Tensor(w))), [x]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, seeds, st.sampled_from([1.0, 30.0, 1000.0]))
def test_log_softmax_values_and_gradients(shape, seed, spread):
    rng = np.random.default_rng(seed)
    x = Tensor(spread * rng.normal(size=shape), requires_grad=True)
    axis = int(rng.integers(-len(shape), len(shape)))
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    want = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    every = tuple(np.indices(shape).reshape(len(shape), -1))  # each entry once
    got = ad.log_softmax_gather(x, every, axis=axis).data
    assert np.abs(got - want.ravel()).max() <= 1e-12
    w = rng.normal(size=want.size)
    assert grad_check(lambda: ad.sum_(ad.mul(ad.log_softmax_gather(x, every, axis=axis),
                                                Tensor(w))), [x]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, seeds)
def test_exp_and_log_values_and_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    positive = Tensor(rng.uniform(0.1, 3.0, size=shape), requires_grad=True)
    w = rng.normal(size=shape)
    assert ad.exp(x).data.tobytes() == np.exp(x.data).tobytes()
    assert ad.log(positive).data.tobytes() == np.log(positive.data).tobytes()
    for op, t in ((ad.exp, x), (ad.log, positive)):
        assert grad_check(lambda: ad.sum_(ad.mul(op(t), Tensor(w))), [t]) < 1e-6


# -- fused kernels against the chains they replace ----------------------------

def unfused_attention(q, k, v, scale, hidden=None):
    """The op chain ``ad.attention`` replaces: a query block with fewer
    leading dims is broadcast up to the keys' by an add."""
    lead = k.shape[:-2]
    if q.shape[:-2] != lead:
        q = ad.add(q, Tensor(np.zeros(lead + q.shape[-2:])))
    nd = k.ndim
    kt = ad.transpose(k, tuple(range(nd - 2)) + (nd - 1, nd - 2))
    scores = ad.scale(ad.matmul(q, kt), scale)
    if hidden is not None:
        scores = ad.masked_fill(scores, hidden, ad.NEG_INF)
    return ad.matmul(ad.softmax(scores, axis=-1), v)


@st.composite
def attention_cases(draw):
    """Leading dims for 2-D to 4-D operands, the sizes, whether the query
    block is shared by the whole batch, and a seed."""
    lead = tuple(draw(st.lists(dims, min_size=0, max_size=2)))
    sq, sk, dk, dv = (draw(dims) for _ in range(4))
    return lead, sq, sk, dk, dv, draw(st.booleans()), draw(seeds)


def attention_inputs(case):
    lead, sq, sk, dk, dv, shared_query, seed = case
    rng = np.random.default_rng(seed)
    q = leaf(rng, ((sq, dk) if shared_query else lead + (sq, dk)))
    k, v = leaf(rng, lead + (sk, dk)), leaf(rng, lead + (sk, dv))
    # some entries hidden, the first query row hidden throughout; the mask
    # leaves out the leading dims and broadcasts over them
    hidden = rng.random((sq, sk)) < 0.4
    hidden[0] = True
    return rng, q, k, v, hidden


@settings(max_examples=40, deadline=None)
@given(attention_cases())
def test_attention_equals_unfused_chain(case):
    rng, q, k, v, hidden = attention_inputs(case)
    for mask in (None, hidden):
        got = ad.attention(q, k, v, 0.7, hidden=mask).data
        want = unfused_attention(q, k, v, 0.7, mask).data
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12
    # a row that sees nothing averages the values uniformly
    out = ad.attention(q, k, v, 0.7, hidden=hidden).data
    assert np.isfinite(out).all()
    uniform = np.broadcast_to(v.data.mean(axis=-2), out[..., 0, :].shape)
    assert np.abs(out[..., 0, :] - uniform).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(attention_cases())
def test_attention_gradients(case):
    rng, q, k, v, hidden = attention_inputs(case)
    w = rng.normal(size=ad.attention(q, k, v, 0.7).shape)
    for mask in (None, hidden):
        assert grad_check(lambda: ad.sum_(ad.mul(ad.attention(q, k, v, 0.7, mask),
                                                    Tensor(w))), [q, k, v]) < 1e-6
    # the fused node's gradients equal the chain's
    grads = []
    for f in (ad.attention, unfused_attention):
        ad.zero_grads([q, k, v])
        with Tape() as tape:
            ad.backward(ad.sum_(ad.mul(f(q, k, v, 0.7, hidden), Tensor(w))), tape)
        grads.append([t.grad.copy() for t in (q, k, v)])
    for a, b in zip(*grads):
        assert np.abs(a - b).max() <= 1e-12


def test_attention_rejects_nonconforming_shapes():
    with pytest.raises(ad.ShapeError, match="attention"):
        ad.attention(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))),
                     Tensor(np.ones((4, 5))), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(dims, min_size=2, max_size=4).map(tuple), seeds)
def test_affine_layer_norm_equals_unfused_and_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    g, b = leaf(rng, shape[-1:]), leaf(rng, shape[-1:])
    want = ad.add(ad.mul(ad.layer_norm(x), g), b).data
    assert np.abs(ad.layer_norm(x, gain=g, bias=b).data - want).max() <= 1e-12
    assert np.abs(ad.layer_norm(x, gain=g).data
                  - ad.mul(ad.layer_norm(x), g).data).max() <= 1e-12
    assert np.abs(ad.layer_norm(x, bias=b).data
                  - ad.add(ad.layer_norm(x), b).data).max() <= 1e-12
    w = rng.normal(size=shape)
    loss = lambda **kw: ad.sum_(ad.mul(ad.layer_norm(x, **kw), Tensor(w)))  # noqa: E731
    grads = []
    for f in (lambda: loss(gain=g, bias=b),
              lambda: ad.sum_(ad.mul(ad.add(ad.mul(ad.layer_norm(x), g), b), Tensor(w)))):
        ad.zero_grads([x, g, b])
        with Tape() as tape:
            ad.backward(f(), tape)
        grads.append([t.grad.copy() for t in (x, g, b)])
    for a, c in zip(*grads):
        np.testing.assert_allclose(a, c, rtol=1e-12, atol=1e-12)
    # a row of nearly equal values has a std near sqrt(eps), where central
    # differences are coarse for the fused and unfused forms alike: spread it
    # (sorted, then stepped by 1, so no two entries of a row come closer than 1)
    x.data = np.sort(x.data, axis=-1) + np.arange(shape[-1])
    for kw, params in (({"gain": g, "bias": b}, [x, g, b]), ({"gain": g}, [x, g]),
                       ({"bias": b}, [x, b])):
        assert grad_check(lambda: loss(**kw), params) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.lists(dims, min_size=2, max_size=4).map(tuple), seeds,
       st.sampled_from([1.0, 3.0, 30.0]))
def test_gelu_matches_the_pow_formula(shape, seed, spread):
    x = spread * np.random.default_rng(seed).normal(size=shape)
    want = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))
    assert np.abs(ad.gelu(Tensor(x)).data - want).max() <= 1e-12


# -- layer norm and GELU over N-D shapes --------------------------------------

def spread_along(x, axis):
    """Sorted along ``axis`` and stepped by 1, so no two entries of a row come
    closer than 1: a row of nearly equal values has a std near sqrt(eps),
    where central differences are coarse."""
    steps = np.arange(x.shape[axis]).reshape((-1,) + (1,) * (x.ndim - 1 - axis % x.ndim))
    return np.sort(x, axis=axis) + steps


@settings(max_examples=25, deadline=None)
@given(st.lists(dims, min_size=1, max_size=4).map(tuple), seeds)
def test_layer_norm_nd_matches_mean_and_var_and_differences(shape, seed):
    rng = np.random.default_rng(seed)
    axis = int(rng.integers(-len(shape), len(shape)))
    x = Tensor(3.0 * rng.normal(size=shape), requires_grad=True)
    mu = np.mean(x.data, axis=axis, keepdims=True)
    want = (x.data - mu) / np.sqrt(np.var(x.data, axis=axis, keepdims=True) + 1e-5)
    assert np.abs(ad.layer_norm(x, axis=axis).data - want).max() <= 1e-12
    # gain and bias along the normalized axis, broadcast over the others
    along = tuple(shape[i] if i == axis % len(shape) else 1
                  for i in range(axis % len(shape), len(shape)))
    g, b = leaf(rng, along), leaf(rng, along)
    x.data = spread_along(x.data, axis)
    w = rng.normal(size=shape)
    for kw, params in (({}, [x]), ({"gain": g}, [x, g]), ({"bias": b}, [x, b]),
                       ({"gain": g, "bias": b}, [x, g, b])):
        f = lambda: ad.sum_(ad.mul(ad.layer_norm(x, axis=axis, **kw), Tensor(w)))  # noqa: E731
        assert grad_check(f, params) < 1e-6


@settings(max_examples=25, deadline=None)
@given(st.lists(dims, min_size=1, max_size=4).map(tuple), seeds,
       st.sampled_from([1.0, 3.0, 30.0]))
def test_gelu_nd_gradients_match_differences(shape, seed, spread):
    rng = np.random.default_rng(seed)
    x = Tensor(spread * rng.normal(size=shape), requires_grad=True)
    w = rng.normal(size=shape)
    assert grad_check(lambda: ad.sum_(ad.mul(ad.gelu(x), Tensor(w))), [x]) < 1e-6


# -- layer kernels against the op chains they replace -------------------------

def unfused_block(x, ws, n_heads, hidden=None, past=None):
    """The op chain ``ad.decoder_block`` replaces; ``past`` keys and values
    enter as constants. Returns the output and the keys and values."""
    ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, w1, b1, w2, b2 = ws
    b, s, d = x.shape

    def heads(t):
        return ad.transpose(ad.reshape(t, (b, s, n_heads, d // n_heads)), (0, 2, 1, 3))

    z = ad.layer_norm(x, gain=ln1_g, bias=ln1_b)
    q, k, v = (heads(ad.matmul(z, w)) for w in (wq, wk, wv))
    if past is not None:
        k = ad.concat([Tensor(past[0]), k], axis=-2)
        v = ad.concat([Tensor(past[1]), v], axis=-2)
    att = ad.attention(q, k, v, 1.0 / math.sqrt(d // n_heads), hidden=hidden)
    merged = ad.reshape(ad.transpose(att, (0, 2, 1, 3)), (b, s, d))
    h = ad.add(x, ad.matmul(merged, wo))
    z = ad.layer_norm(h, gain=ln2_g, bias=ln2_b)
    z = ad.add(ad.matmul(z, w1), b1)
    z = ad.add(ad.matmul(ad.gelu(z), w2), b2)
    return ad.add(h, z), k.data, v.data


def unfused_cross(x, ws, visual, hidden, kv=None):
    """The op chain ``ad.gated_cross_attention`` replaces."""
    ln_g, ln_b, down, wq, wk, wv, up, gate = ws
    q = ad.matmul(ad.matmul(ad.layer_norm(x, gain=ln_g, bias=ln_b), down), wq)
    if kv is None:
        k, v = ad.matmul(visual, wk), ad.matmul(visual, wv)
    else:
        k, v = Tensor(kv[0]), Tensor(kv[1])
    att = ad.attention(q, k, v, 1.0 / math.sqrt(q.shape[-1]), hidden=hidden)
    row = (~hidden).any(axis=-1, keepdims=True).astype(np.float64)
    z = ad.mul(ad.matmul(att, up), Tensor(row))
    return ad.add(x, ad.mul(z, ad.tanh(gate))), (k.data, v.data)


def block_weights(rng, d, want):
    """Layer-norm gains near 1 and biases near 0, projections at 1/sqrt(fan-in);
    ``want[i]`` says whether weight ``i`` requires a gradient."""
    shapes = [(d,), (d,), (d, d), (d, d), (d, d), (d, d), (d,), (d,),
              (d, 4 * d), (4 * d,), (4 * d, d), (d,)]
    ws = []
    for shape, w in zip(shapes, want):
        scale = 1.0 / math.sqrt(shape[0]) if len(shape) == 2 else 0.3
        base = 1.0 if shape == (d,) and len(ws) in (0, 6) else 0.0
        ws.append(Tensor(base + scale * rng.normal(size=shape), requires_grad=w))
    return ws


def cross_weights(rng, d, db, want):
    shapes = [(d,), (d,), (d, db), (db, db), (d, db), (d, db), (db, d), (1,)]
    ws = []
    for i, (shape, w) in enumerate(zip(shapes, want)):
        scale = 1.0 / math.sqrt(shape[0]) if len(shape) == 2 else 0.3
        ws.append(Tensor((1.0 if i == 0 else 0.0) + scale * rng.normal(size=shape),
                         requires_grad=w))
    return ws


def grads_of(f, inputs, w):
    """Gradients of sum(f() * w) on ``inputs`` (None where not required)."""
    ad.zero_grads(inputs)
    with Tape() as tape:
        ad.backward(ad.sum_(ad.mul(f(), Tensor(w))), tape)
    return [None if t.grad is None else t.grad.copy() for t in inputs]


def assert_same_grads(got, want):
    for i, (a, b) in enumerate(zip(got, want)):
        assert (a is None) == (b is None), i
        if a is not None:
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), i


@st.composite
def block_cases(draw):
    """Batch, new rows, heads, head width, past rows, the mask kind, which
    inputs require a gradient, and a seed."""
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3)),
            draw(st.integers(1, 3)), draw(st.integers(0, 3)),
            draw(st.sampled_from(["causal", "random", "none"])),
            draw(st.lists(st.booleans(), min_size=13, max_size=13)), draw(seeds))


def block_inputs(case):
    b, s, n_heads, dh, n_past, mask, want, seed = case
    rng = np.random.default_rng(seed)
    d = n_heads * dh
    x = Tensor(rng.normal(size=(b, s, d)), requires_grad=want[0])
    ws = block_weights(rng, d, want[1:])
    past = None if not n_past else tuple(rng.normal(size=(b, n_heads, n_past, dh))
                                         for _ in range(2))
    hidden = {"causal": np.triu(np.ones((s, n_past + s), dtype=bool), k=1 + n_past),
              # per row and head, some rows hidden throughout
              "random": rng.random((b, n_heads, s, n_past + s)) < 0.5,
              "none": None}[mask]
    return rng, x, ws, n_heads, hidden, past


@settings(max_examples=40, deadline=None)
@given(block_cases())
def test_decoder_block_equals_unfused_chain(case):
    rng, x, ws, n_heads, hidden, past = block_inputs(case)
    out, k, v = ad.decoder_block(x, *ws, n_heads=n_heads, hidden=hidden, past=past)
    want, want_k, want_v = unfused_block(x, ws, n_heads, hidden, past)
    assert np.array_equal(out.data, want.data)
    assert np.array_equal(k, want_k) and np.array_equal(v, want_v)
    # gradients only where required, and equal to the chain's
    inputs = [x] + ws
    if not any(t.requires_grad for t in inputs):
        return
    w = rng.normal(size=out.shape)
    got = grads_of(lambda: ad.decoder_block(x, *ws, n_heads=n_heads, hidden=hidden,
                                            past=past)[0], inputs, w)
    assert_same_grads(got, grads_of(lambda: unfused_block(x, ws, n_heads, hidden,
                                                          past)[0], inputs, w))
    assert all((g is None) == (not t.requires_grad) for g, t in zip(got, inputs))


@st.composite
def cross_cases(draw):
    """Batch, text rows, visual tokens, width, compression, whether the keys
    and values come cached, which inputs require a gradient, and a seed."""
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4)),
            draw(st.sampled_from([2, 4])), draw(st.sampled_from([1, 2])),
            draw(st.booleans()), draw(st.lists(st.booleans(), min_size=10, max_size=10)),
            draw(seeds))


def cross_inputs(case):
    b, s, m, d, ratio, _, want, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(b, s, d)), requires_grad=want[0])
    ws = cross_weights(rng, d, d // ratio, want[1:9])
    visual = Tensor(rng.normal(size=(b, m, d)), requires_grad=want[9])
    hidden = rng.random((b, s, m)) < 0.5
    hidden[:, 0] = True  # a row that sees no visual token passes through
    return rng, x, ws, visual, hidden


@settings(max_examples=40, deadline=None)
@given(cross_cases())
def test_gated_cross_attention_equals_unfused_chain(case):
    rng, x, ws, visual, hidden = cross_inputs(case)
    cached = case[5]
    kv = None
    if cached:
        uncached, kv = ad.gated_cross_attention(x, *ws, visual, hidden)
    out, (k, v) = ad.gated_cross_attention(x, *ws, visual, hidden, kv)
    if cached:
        assert np.array_equal(out.data, uncached.data)
    want, (want_k, want_v) = unfused_cross(x, ws, visual, hidden, kv)
    assert np.array_equal(out.data, want.data)
    assert np.array_equal(k, want_k) and np.array_equal(v, want_v)
    assert np.array_equal(out.data[:, 0], x.data[:, 0])
    inputs = [x] + ws + [visual]
    if not any(t.requires_grad for t in inputs):
        return
    w = rng.normal(size=out.shape)
    got = grads_of(lambda: ad.gated_cross_attention(x, *ws, visual, hidden, kv)[0],
                   inputs, w)
    assert_same_grads(got, grads_of(lambda: unfused_cross(x, ws, visual, hidden, kv)[0],
                                    inputs, w))
    # cached keys and values are constants: no gradient reaches visual, wk or wv
    if cached:
        assert got[5] is None and got[6] is None and got[9] is None


@pytest.mark.parametrize("hide_row", [False, True], ids=["causal", "row_hidden"])
def test_decoder_block_gradients_match_differences(hide_row):
    rng = np.random.default_rng(0)
    b, s, n_heads, dh, n_past = 2, 3, 2, 2, 2
    d = n_heads * dh
    x = Tensor(rng.normal(size=(b, s, d)), requires_grad=True)
    ws = block_weights(rng, d, [True] * 12)
    past = tuple(rng.normal(size=(b, n_heads, n_past, dh)) for _ in range(2))
    hidden = np.triu(np.ones((s, n_past + s), dtype=bool), k=1 + n_past)
    if hide_row:  # a row hidden throughout attends uniformly, as a constant
        hidden[1] = True
    w = rng.normal(size=(b, s, d))
    f = lambda: ad.sum_(ad.mul(ad.decoder_block(  # noqa: E731
        x, *ws, n_heads=n_heads, hidden=hidden, past=past)[0], Tensor(w)))
    assert grad_check(f, [x] + ws) <= 1e-6


def test_gated_cross_attention_gradients_match_differences():
    rng = np.random.default_rng(1)
    b, s, m, d = 2, 3, 4, 4
    x = Tensor(rng.normal(size=(b, s, d)), requires_grad=True)
    ws = cross_weights(rng, d, d // 2, [True] * 8)
    visual = Tensor(rng.normal(size=(b, m, d)), requires_grad=True)
    hidden = rng.random((b, s, m)) < 0.4
    hidden[0, 0] = True
    w = rng.normal(size=(b, s, d))
    f = lambda: ad.sum_(ad.mul(ad.gated_cross_attention(  # noqa: E731
        x, *ws, visual, hidden)[0], Tensor(w)))
    assert grad_check(f, [x] + ws + [visual]) <= 1e-6


@pytest.mark.parametrize("n_past", [1, 3])
def test_cached_block_call_equals_uncached_on_new_rows(n_past):
    rng = np.random.default_rng(n_past)
    b, s, n_heads, dh = 2, 5, 2, 3
    x = Tensor(rng.normal(size=(b, s, n_heads * dh)))
    ws = block_weights(rng, n_heads * dh, [False] * 12)

    def causal(rows, before):
        return np.triu(np.ones((rows, before + rows), dtype=bool), k=1 + before)

    full, k, v = ad.decoder_block(x, *ws, n_heads=n_heads, hidden=causal(s, 0))
    _, past_k, past_v = ad.decoder_block(x[:, :n_past], *ws, n_heads=n_heads,
                                         hidden=causal(n_past, 0))
    new, k2, v2 = ad.decoder_block(x[:, n_past:], *ws, n_heads=n_heads,
                                   hidden=causal(s - n_past, n_past),
                                   past=(past_k, past_v))
    scale = np.abs(full.data).max()
    assert np.abs(new.data - full.data[:, n_past:]).max() <= 1e-12 * scale
    assert np.abs(k2 - k).max() <= 1e-12 * np.abs(k).max()
    assert np.abs(v2 - v).max() <= 1e-12 * np.abs(v).max()


def test_kernels_reject_nonconforming_shapes():
    rng = np.random.default_rng(0)
    ws = block_weights(rng, 4, [False] * 12)
    with pytest.raises(ad.ShapeError, match="decoder_block"):
        ad.decoder_block(Tensor(np.ones((2, 4))), *ws, n_heads=2)
    with pytest.raises(ad.ShapeError, match="decoder_block"):
        ad.decoder_block(Tensor(np.ones((1, 2, 4))), *ws, n_heads=3)
    with pytest.raises(ad.ShapeError, match="decoder_block"):
        ad.decoder_block(Tensor(np.ones((1, 2, 4))), *ws, n_heads=2,
                         hidden=np.zeros((3, 3), dtype=bool))
    cws = cross_weights(rng, 4, 2, [False] * 8)
    with pytest.raises(ad.ShapeError, match="gated_cross_attention"):
        ad.gated_cross_attention(Tensor(np.ones((1, 2, 4))), *cws,
                                 Tensor(np.ones((1, 3, 5))), np.zeros((1, 2, 3), bool))
