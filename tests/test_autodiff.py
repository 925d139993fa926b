import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmo import autodiff as ad
from cosmo.autodiff import Tape, Tensor


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
    err = ad.grad_check(lambda: ad.sum_(ad.mul(x, x)), [x], eps=1e-5)
    assert err < 1e-8


def test_grad_check_constant():
    x = Tensor([1.0], requires_grad=True)
    c = Tensor([5.0])
    err = ad.grad_check(lambda: ad.sum_(c), [x], eps=1e-5)
    assert err == 0.0


def test_grad_check_rejects_bad_eps():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        ad.grad_check(lambda: ad.sum_(x), [x], eps=1e-2)


def test_grad_check_non_finite_loss():
    x = Tensor([0.0], requires_grad=True)
    with pytest.raises(FloatingPointError):
        ad.grad_check(lambda: ad.sum_(ad.log(x)), [x], eps=1e-5)


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
        assert ad.grad_check(lambda: ad.sum_(ad.matmul(a, b)), [a, b]) < 1e-6

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
            assert ad.grad_check(f, [x, y, row]) < 1e-4

        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        ids = rng.integers(0, 6, size=5)
        assert ad.grad_check(
            lambda: ad.sum_(ad.mul(ad.embedding_lookup(table, ids),
                                   ad.embedding_lookup(table, ids))),
            [table]) < 1e-6

        # stacked matmul as used by multi-head attention
        h = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        assert ad.grad_check(lambda: ad.sum_(ad.matmul(h, w)), [h, w]) < 1e-6
        w2 = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        assert ad.grad_check(lambda: ad.sum_(ad.matmul(h, w2)), [h, w2]) < 1e-6


def test_embedding_lookup_range_check():
    table = Tensor(np.ones((4, 2)))
    with pytest.raises(ad.ShapeError, match="embedding_lookup"):
        ad.embedding_lookup(table, [0, 4])


def test_composites():
    x = Tensor([4.0, 9.0], requires_grad=True)
    np.testing.assert_allclose(ad.rsqrt(x).data, [0.5, 1.0 / 3.0])
    np.testing.assert_allclose(ad.clamp(Tensor([-2.0, 0.5, 3.0]), 0.0, 1.0).data,
                               [0.0, 0.5, 1.0])
    assert ad.grad_check(lambda: ad.sum_(ad.rsqrt(x)), [x]) < 1e-6


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
    assert ad.grad_check(lambda: ad.sum_(ad.mul(ad.matmul(a, b), Tensor(w))),
                         [a, b]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, dims, seeds)
def test_matmul_nd_by_nd_gradients(shape, n, seed):
    rng = np.random.default_rng(seed)
    a, b = leaf(rng, shape), leaf(rng, shape[:-2] + (shape[-1], n))
    w = rng.normal(size=shape[:-1] + (n,))
    assert ad.grad_check(lambda: ad.sum_(ad.mul(ad.matmul(a, b), Tensor(w))),
                         [a, b]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes.flatmap(lambda s: st.tuples(st.just(s),
                                          st.permutations(range(len(s))))), seeds)
def test_transpose_with_axes_gradients(shape_axes, seed):
    shape, axes = shape_axes
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    w = rng.normal(size=tuple(shape[i] for i in axes))
    assert ad.grad_check(lambda: ad.sum_(ad.mul(ad.transpose(x, tuple(axes)),
                                                Tensor(w))), [x]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, seeds)
def test_reshape_and_softmax_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    axis = int(rng.integers(-len(shape), len(shape)))
    w = rng.normal(size=shape)
    for target in (tuple(reversed(shape)), (-1, shape[-1]), (1, *shape)):
        assert ad.grad_check(
            lambda: ad.sum_(ad.mul(ad.reshape(x, target), Tensor(w.reshape(target)))),
            [x]) < 1e-6
    assert ad.grad_check(lambda: ad.sum_(ad.mul(ad.softmax(x, axis=axis),
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
    assert ad.grad_check(lambda: ad.sum_(ad.mul(ad.concat([x, y], axis=axis),
                                                Tensor(w))), [x, y]) < 1e-6
    lo = int(rng.integers(0, shape[axis]))
    key = [slice(None)] * len(shape)
    key[axis] = slice(lo, shape[axis])
    key = tuple(key)
    ws = rng.normal(size=x.data[key].shape)
    assert ad.grad_check(lambda: ad.sum_(ad.mul(x[key], Tensor(ws))), [x]) < 1e-6


@settings(max_examples=25, deadline=None)
@given(shapes, seeds)
def test_masked_fill_broadcast_mask_gradients(shape, seed):
    rng = np.random.default_rng(seed)
    x = leaf(rng, shape)
    # the mask drops some leading axes and keeps some others at size 1
    kept = shape[int(rng.integers(0, len(shape))):]
    mask = rng.random(tuple(s if rng.random() < 0.5 else 1 for s in kept)) < 0.5
    w = rng.normal(size=shape)
    assert ad.grad_check(lambda: ad.sum_(ad.mul(ad.masked_fill(x, mask, -3.0),
                                                Tensor(w))), [x]) < 1e-6
