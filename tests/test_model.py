import collections
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmo import autodiff as ad
from cosmo import model as cm
from cosmo import training as tr
from cosmo.autodiff import Tape, Tensor
from cosmo.model import ModelConfig
from gradcheck import grad_check

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import inputs, reference  # noqa: E402


def toy_config(**kw):
    base = dict(vocab_size=50, d_model=16, n_heads=2, n_layers_total=4,
                split_index=2, cross_interval=2, compress_ratio=2,
                n_latents=2, d_vision=8, n_patches=2, d_embed_contrastive=8,
                max_seq=64)
    base.update(kw)
    return ModelConfig(**base)


def media(rng, frames=1, patches=2, d=8):
    return rng.normal(size=(frames, patches, d))


# -- build ------------------------------------------------------------------

def test_fusion_layer_count_interval_two():
    cfg = toy_config(n_layers_total=8, split_index=4, cross_interval=2)
    m = cm.build(cfg, seed=0)
    assert cfg.fusion_positions() == [4, 6]
    gates = [k for k in m.learnable_params if k.endswith("gate")]
    assert len(gates) == 2


def test_fusion_layer_count_interval_one():
    cfg = toy_config(n_layers_total=8, split_index=4, cross_interval=1)
    assert cfg.fusion_positions() == [4, 5, 6, 7]


def test_gates_zero_and_partition_disjoint():
    m = cm.build(toy_config(), seed=3)
    for k, t in m.learnable_params.items():
        if k.endswith("gate"):
            assert (t.data == 0).all()
    assert not set(m.frozen_params) & set(m.learnable_params)


def test_build_deterministic():
    a = cm.build(toy_config(), seed=11)
    b = cm.build(toy_config(), seed=11)
    for k in a.frozen_params:
        assert a.frozen_params[k].data.tobytes() == b.frozen_params[k].data.tobytes()
    for k in a.learnable_params:
        assert (a.learnable_params[k].data.tobytes()
                == b.learnable_params[k].data.tobytes())


def test_invalid_config_messages():
    with pytest.raises(ValueError, match="split_index"):
        cm.build(toy_config(split_index=4, n_layers_total=4), seed=0)
    with pytest.raises(ValueError, match="cross_interval"):
        cm.build(toy_config(cross_interval=0), seed=0)
    with pytest.raises(ValueError, match="compress_ratio"):
        cm.build(toy_config(d_model=16, compress_ratio=3), seed=0)
    # NaN built a model whose logit scale is NaN; inf failed in math.log
    for temperature in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="temperature must be > 0 and finite"):
            cm.build(toy_config(temperature=temperature), seed=0)


@pytest.mark.parametrize("name, value", [
    ("vocab_size", 0), ("d_model", 0), ("n_heads", 0), ("n_heads", -2),
    ("n_latents", 0), ("d_vision", 0), ("n_patches", 0),
    ("d_embed_contrastive", 0), ("max_seq", 0)])
def test_size_fields_below_one_rejected_at_build(name, value):
    # unchecked, n_heads=0 divides by zero in validate, n_heads=-2 builds and
    # fails at the first forward, and n_latents=0 fails in a fusion layer
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        cm.build(toy_config(**{name: value}), seed=0)


# -- parameter counting -----------------------------------------------------

def closed_form_learnable(cfg: ModelConfig) -> int:
    d, dv, de = cfg.d_model, cfg.d_vision, cfg.d_embed_contrastive
    db = d // cfg.compress_ratio
    resampler = cfg.n_latents * d + 2 * d * d + 2 * dv * d
    per_fusion = 2 * d + 4 * d * db + db * db + 1
    contrastive = 2 * d + 2 * d * de + 1
    return resampler + len(cfg.fusion_positions()) * per_fusion + contrastive


def test_count_matches_closed_form():
    cfg = toy_config(d_model=64, n_heads=4, n_layers_total=8, split_index=4,
                     cross_interval=2, compress_ratio=2, d_vision=32,
                     n_latents=4, d_embed_contrastive=32)
    m = cm.build(cfg, seed=0)
    learnable, total = cm.count_params(m)
    assert learnable == closed_form_learnable(cfg)
    assert total > learnable


def test_param_reduction_ratio():
    base = dict(d_model=64, n_heads=4, n_layers_total=8, split_index=4,
                d_vision=32, n_latents=4, d_embed_contrastive=32)
    small = cm.count_params(cm.build(toy_config(cross_interval=2,
                                                compress_ratio=2, **base), 0))[0]
    big = cm.count_params(cm.build(toy_config(cross_interval=1,
                                              compress_ratio=1, **base), 0))[0]
    assert small < 0.55 * big


def test_param_monotonicity():
    base = dict(d_model=64, n_heads=4, n_layers_total=8, split_index=4,
                d_vision=32, n_latents=4, d_embed_contrastive=32)
    counts_interval = [
        cm.count_params(cm.build(toy_config(cross_interval=i, compress_ratio=1,
                                            **base), 0))[0]
        for i in (1, 2, 4)]
    assert counts_interval == sorted(counts_interval, reverse=True)
    counts_compress = [
        cm.count_params(cm.build(toy_config(cross_interval=1, compress_ratio=r,
                                            **base), 0))[0]
        for r in (1, 2, 4)]
    assert counts_compress == sorted(counts_compress, reverse=True)


# -- vision + resampler -----------------------------------------------------

def test_vision_encode_deterministic_and_row_count():
    m = cm.build(toy_config(), seed=0)
    rng = np.random.default_rng(0)
    vid = media(rng, frames=3).reshape(1, 3 * 2, 8)  # one item's rows
    a = cm.vision_encode(m, vid)
    b = cm.vision_encode(m, vid)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.shape == (1, 3 * 2, 8)


def test_vision_encode_zero_input_bias_pathway():
    m = cm.build(toy_config(), seed=0)
    out = cm.vision_encode(m, np.zeros((1, 2, 8)))
    assert np.isfinite(out.data).all()
    # zero input leaves only the bias pathway: both rows identical
    assert np.allclose(out.data[0, 0], out.data[0, 1])


def test_vision_encode_dim_mismatch():
    m = cm.build(toy_config(), seed=0)
    # only a batch [n, rows, d_vision] of feature rows is read
    for shape in [(1, 2, 5), (2, 8), (1, 1, 2, 8)]:
        with pytest.raises(ValueError, match="d_vision"):
            cm.vision_encode(m, np.zeros(shape))


def test_resample_shape_contract():
    m = cm.build(toy_config(n_latents=4), seed=0)
    rng = np.random.default_rng(1)
    feats = cm.vision_encode(m, rng.normal(size=(1, 16, 8)))  # 16 rows
    out = cm.resample(m, feats)
    assert out.shape == (1, 4, 16)
    # per-item tokens [n, n_latents, d], whatever each item's frames and patches
    visual = cm.encode_media(m, [rng.normal(size=(8, 2, 8)), media(rng),
                                 media(rng, frames=3, patches=1)])
    assert visual.shape == (3, 4, 16)


def test_resample_fixed_count_for_videos():
    m = cm.build(toy_config(), seed=0)
    rng = np.random.default_rng(1)
    one = cm.resample(m, cm.vision_encode(m, media(rng, frames=1)))
    many = cm.resample(m, cm.vision_encode(m, media(rng, frames=6).reshape(1, 12, 8)))
    assert one.shape == many.shape == (1, 2, 16)


def test_resample_permutation_invariant_at_init():
    # key projection starts at zero, so attention is uniform at init
    m = cm.build(toy_config(), seed=5)
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(12, 8))
    out = cm.resample(m, Tensor(feats))
    perm = rng.permutation(12)
    out_p = cm.resample(m, Tensor(feats[perm]))
    np.testing.assert_allclose(out.data, out_p.data, atol=1e-12)


def test_resampled_tokens_distinct_at_init():
    # the latents must not be swamped by the pooled term: if they were, every
    # resampled token would be the same vector and so would every fusion output
    rng = np.random.default_rng(3)
    feats = media(rng, frames=2)
    for seed in range(4):
        m = cm.build(toy_config(n_latents=4), seed=seed)
        toks = cm.encode_media(m, [feats]).data[0]
        unit = toks / np.linalg.norm(toks, axis=-1, keepdims=True)
        cos = unit @ unit.T
        assert cos[~np.eye(4, dtype=bool)].max() < 0.9, seed


def _value_and_grads(m, f):
    """``f()``'s value and the learnable gradients of a fixed weighted sum."""
    ad.zero_grads(m.learnable_params)
    with Tape() as tape:
        out = f()
        w = np.random.default_rng(0).normal(size=out.shape)
        ad.backward(ad.sum_(ad.mul(out, Tensor(w))), tape)
    grads = {k: p.grad for k, p in m.learnable_params.items() if p.grad is not None}
    ad.zero_grads(m.learnable_params)
    return out.data, grads


def test_encode_media_batches_by_shape_in_input_order(monkeypatch):
    # images and videos of 2 patches, interleaved with [f, 1, d] clips (as
    # interlink.clip_media_features gives them): one padded vision_encode and
    # resample call, and each item's values and resampler gradients as if it
    # ran alone, in its input place
    m = cm.build(toy_config(), seed=3)
    inputs.move_off_init(m, 3)
    rng = np.random.default_rng(3)
    feats = [media(rng, frames=f, patches=p) for f, p in
             ((1, 2), (3, 2), (2, 1), (1, 2), (3, 2), (1, 1), (3, 2), (3, 1), (1, 2))]
    want, want_grads = _value_and_grads(m, lambda: ad.concat(
        [cm.encode_media(m, [f]) for f in feats], axis=0))
    calls = collections.Counter()
    for name in ("vision_encode", "resample"):
        monkeypatch.setattr(cm, name, lambda *a, _fn=getattr(cm, name), _name=name:
                            calls.update([_name]) or _fn(*a))
    got, got_grads = _value_and_grads(m, lambda: cm.encode_media(m, feats))
    assert calls == {"vision_encode": 1, "resample": 1}
    assert got.shape == want.shape == (9, 2, 16)
    assert np.abs(got - want).max() <= 1e-12
    assert set(got_grads) == set(want_grads) == {k for k in m.learnable_params
                                                 if k.startswith("resampler/")}
    for k, g in want_grads.items():
        assert np.abs(got_grads[k] - g).max() <= 1e-12, k


@pytest.mark.parametrize("shape", [(4, 8), (1, 2, 5), (1, 4, 4), (2, 1, 2, 8),
                                   (0, 2, 8), (1, 0, 8)])
def test_encode_media_rejects_misshapen_item(shape):
    # a [1, 4, 4] item holds 16 numbers, so it would reshape to two 8-wide
    # rows without the check
    m = cm.build(toy_config(), seed=0)
    good = np.zeros((1, 2, 8))
    with pytest.raises(ValueError, match="d_vision 8"):
        cm.encode_media(m, [good, np.zeros(shape)])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_padded_unimodal_rows_equal_each_row_alone(lengths, seed):
    m = cm.build(toy_config(), seed=6)
    rng = np.random.default_rng(seed)
    rows = [rng.integers(0, m.config.vocab_size, size=n).tolist() for n in lengths]
    batch = cm.encode_text_unimodal(m, rows).data
    assert batch.shape == (len(rows), max(lengths), m.config.d_model)
    for r, ids in enumerate(rows):
        alone = cm.encode_text_unimodal(m, [ids]).data[0]
        assert np.abs(batch[r, :len(ids)] - alone).max() <= 1e-12


# -- fusion and logits ------------------------------------------------------

def make_inputs(m, rng, n_media=1, seq=10):
    ids = rng.integers(5, m.config.vocab_size, size=seq).tolist()
    feats = [media(rng) for _ in range(n_media)]
    positions = [(1 + 3 * i, i) for i in range(n_media)]
    return ids, feats, positions


def test_zero_gate_identity():
    m = cm.build(toy_config(), seed=7)
    rng = np.random.default_rng(7)
    ids, feats, pos = make_inputs(m, rng, n_media=2, seq=12)
    with_media = cm.forward_logits(m, ids, feats, pos)
    base = cm.forward_logits(m, ids, [], [])
    assert np.abs(with_media.data - base.data).max() < 1e-9


def test_no_media_passthrough_exact():
    # with no media the forward is the frozen base LM, which the plain-numpy
    # reference computes with no fusion layer anywhere
    m = cm.build(toy_config(), seed=7)
    rng = np.random.default_rng(7)
    ids, _, _ = make_inputs(m, rng)
    for k, t in m.learnable_params.items():
        if k.endswith("gate"):
            t.data[...] = 1.0
    got = cm.forward_logits(m, ids, [], []).data
    want = reference.logits(reference.params_of(m), m.config, ids, [], [])
    assert np.abs(got - want).max() < 1e-9


def test_gate_one_changes_logits():
    m = cm.build(toy_config(), seed=7)
    rng = np.random.default_rng(7)
    ids, feats, pos = make_inputs(m, rng, n_media=1, seq=10)
    base = cm.forward_logits(m, ids, [], [])
    for k, t in m.learnable_params.items():
        if k.endswith("gate"):
            t.data[...] = 1.0
    fused = cm.forward_logits(m, ids, feats, pos)
    assert np.abs(fused.data - base.data).max() > 1e-6


def test_dangling_media_position():
    m = cm.build(toy_config(), seed=7)
    rng = np.random.default_rng(7)
    ids, feats, _ = make_inputs(m, rng, n_media=1)
    with pytest.raises(ValueError, match="media index"):
        cm.forward_logits(m, ids, feats, [(1, 3)])


def test_out_of_vocab_token():
    m = cm.build(toy_config(), seed=7)
    with pytest.raises(ValueError, match="out of vocabulary"):
        cm.encode_text_unimodal(m, [[0, 50]])


def test_token_causality():
    m = cm.build(toy_config(), seed=9)
    rng = np.random.default_rng(9)
    ids, feats, pos = make_inputs(m, rng, n_media=1, seq=10)
    for k, t in m.learnable_params.items():
        if k.endswith("gate"):
            t.data[...] = 0.8
    before = cm.forward_logits(m, ids, feats, pos).data
    t = 6
    ids2 = list(ids)
    ids2[t] = (ids2[t] + 1 - 5) % (m.config.vocab_size - 5) + 5
    after = cm.forward_logits(m, ids2, feats, pos).data
    np.testing.assert_array_equal(before[:t], after[:t])
    assert np.abs(before[t:] - after[t:]).max() > 0


def test_media_causality():
    # changing a media item never changes logits before its media token
    m = cm.build(toy_config(), seed=9)
    rng = np.random.default_rng(9)
    ids = rng.integers(5, 50, size=12).tolist()
    feats = [media(rng), media(rng)]
    pos = [(1, 0), (7, 1)]
    for k, t in m.learnable_params.items():
        if k.endswith("gate"):
            t.data[...] = 0.8
    before = cm.forward_logits(m, ids, feats, pos).data
    feats2 = [feats[0], media(rng)]
    after = cm.forward_logits(m, ids, feats2, pos).data
    np.testing.assert_array_equal(before[:7], after[:7])
    assert np.abs(before[7:] - after[7:]).max() > 0


# -- one autodiff node per layer --------------------------------------------

def test_one_tape_node_per_decoder_block_and_fusion_layer():
    """Each block after the first fusion layer is one ``decoder_block`` node
    and each fusion layer one ``gated_cross_attention`` node; the frozen
    blocks before it need no gradient and record nothing."""
    m = cm.build(toy_config(n_layers_total=6, split_index=2, cross_interval=2), seed=0)
    ids, feats, pos = make_inputs(m, np.random.default_rng(0), n_media=2)
    with Tape() as tape:
        cm.forward_logits(m, ids, feats, pos)
    ops = collections.Counter(n.op for n in tape.nodes)
    assert ops["decoder_block"] == 4  # blocks 2 to 5
    assert ops["gated_cross_attention"] == 2  # before blocks 2 and 4
    assert ops["tanh"] == ops["transpose"] == ops["gelu"] == 0


def test_decode_cache_holds_arrays(monkeypatch):
    m, ids, feats, pos = decode_inputs(0, n_media=2)
    caches = []
    fuse = cm.fuse_and_decode

    def recording(model, th, visual, positions, cache, start):
        caches.append(cache)
        return fuse(model, th, visual, positions, cache, start)

    monkeypatch.setattr(cm, "fuse_and_decode", recording)
    out = cm.greedy_decode(m, ids, feats, pos, stop_id=-1, max_new=3)
    c = m.config
    dh = c.d_model // c.n_heads
    cache = caches[-1]
    assert sorted(cache) == sorted([f"frozen/block{i}/" for i in range(c.n_layers_total)]
                                   + [f"fusion{p}/" for p in c.fusion_positions()])
    for key, pair in cache.items():
        assert len(pair) == 2 and all(type(a) is np.ndarray for a in pair), key
    # every position but the last decoded token's was cached
    assert cache["frozen/block0/"][0].shape == (1, c.n_heads, len(ids) + len(out) - 1, dh)
    n_tokens = len(feats) * c.n_latents
    db = c.d_model // c.compress_ratio
    assert cache[f"fusion{c.fusion_positions()[0]}/"][1].shape == (1, n_tokens, db)


# -- cached greedy decoding -------------------------------------------------

def decode_inputs(seed, n_media=3, seq=20):
    """A model with the gates opened and the other learnable parameters
    jittered, and a prompt with image and video media."""
    m = cm.build(toy_config(), seed=seed)
    inputs.move_off_init(m, seed)
    rng = np.random.default_rng([seed, 1])
    ids = rng.integers(5, m.config.vocab_size, size=seq).tolist()
    feats = [media(rng, frames=1 + i % 2) for i in range(n_media)]
    positions = [(1 + 5 * i, i) for i in range(n_media)]
    return m, ids, feats, positions


def argmax_loop(m, ids, feats, pos, stop_id, max_new):
    """Greedy decoding by a full forward over the whole sequence per token;
    returns the tokens and each step's last-row logits."""
    ids, out, rows = list(ids), [], []
    for _ in range(max_new):
        rows.append(cm.forward_logits(m, ids, feats, pos).data[-1])
        nxt = int(np.argmax(rows[-1]))
        if nxt == stop_id:
            break
        out.append(nxt)
        ids.append(nxt)
    return out, rows


def cached_decode(monkeypatch, m, ids, feats, pos, stop_id, max_new):
    """``greedy_decode``'s tokens and the last-row logits of each step."""
    rows = []
    fuse = cm.fuse_and_decode

    def recording(*args, **kwargs):
        logits = fuse(*args, **kwargs)
        rows.append(logits.data[..., -1, :])
        return logits

    with monkeypatch.context() as mp:
        mp.setattr(cm, "fuse_and_decode", recording)
        out = cm.greedy_decode(m, ids, feats, pos, stop_id=stop_id, max_new=max_new)
    return out, rows


@pytest.mark.parametrize("seed,n_media", [(0, 3), (1, 3), (2, 2), (3, 0)])
def test_cached_decode_equals_argmax_loop(monkeypatch, seed, n_media):
    m, ids, feats, pos = decode_inputs(seed, n_media)
    want, want_rows = argmax_loop(m, ids, feats, pos, stop_id=-1, max_new=10)
    got, rows = cached_decode(monkeypatch, m, ids, feats, pos, stop_id=-1,
                              max_new=10)
    assert got == want
    assert len(rows) == len(want_rows) == 10
    for row, want_row in zip(rows, want_rows):
        assert np.abs(row - want_row).max() <= 1e-12 * np.abs(want_row).max()
    # stopping: both stop before the first occurrence of a decoded token
    stop = want[4]
    stopped, _ = argmax_loop(m, ids, feats, pos, stop_id=stop, max_new=10)
    assert cm.greedy_decode(m, ids, feats, pos, stop_id=stop, max_new=10) == stopped
    assert len(stopped) == want.index(stop)


def test_cached_decode_context_error_at_same_step(monkeypatch):
    m, _, feats, pos = decode_inputs(0)
    ids = np.random.default_rng(5).integers(5, 50, size=m.config.max_seq - 3).tolist()
    passes = []
    encode = cm.encode_text_unimodal

    def recording(*args, **kwargs):
        passes[-1] += 1
        return encode(*args, **kwargs)

    monkeypatch.setattr(cm, "encode_text_unimodal", recording)
    error = (f"sequence length {m.config.max_seq + 1} exceeds context "
             f"{m.config.max_seq}")
    for decode in (argmax_loop, cm.greedy_decode):
        passes.append(0)
        with pytest.raises(ValueError, match=error):
            decode(m, ids, feats, pos, stop_id=-1, max_new=8)
    # passes 1..4 see max_seq - 3 .. max_seq tokens; the fifth raises
    assert passes == [5, 5]


def test_cached_decode_encodes_each_media_once(monkeypatch):
    m, ids, feats, pos = decode_inputs(0, n_media=3)
    # the items share one padded call, so count the items each call encodes:
    # the leading dim of its batch
    items = {"vision_encode": 0, "resample": 0}
    for name in items:
        fn = getattr(cm, name)

        def counting(model, x, *rest, _fn=fn, _name=name):
            items[_name] += x.shape[0]
            return _fn(model, x, *rest)

        monkeypatch.setattr(cm, name, counting)
    out = cm.greedy_decode(m, ids, feats, pos, stop_id=-1, max_new=6)
    assert len(out) == 6
    assert items == {"vision_encode": 3, "resample": 3}


def test_cached_pass_forms_the_last_position_alone():
    """Under a cache, the prompt pass and each one-token pass return [B, 1,
    vocab], the last row of the full forward's logits."""
    m, ids, feats, pos = decode_inputs(0, n_media=2)
    rows = [ids, ids[::-1]]
    visual = ad.reshape(cm.encode_media(m, feats + feats), (2, -1, m.config.d_model))
    cache: dict = {}
    th = cm.encode_text_unimodal(m, rows, cache, 0)
    logits = cm.fuse_and_decode(m, th, visual, [pos, pos], cache, 0)
    assert logits.shape == (2, 1, m.config.vocab_size)
    nxt = [[5], [6]]
    th = cm.encode_text_unimodal(m, nxt, cache, len(ids))
    step = cm.fuse_and_decode(m, th, visual, [pos, pos], cache, len(ids))
    assert step.shape == (2, 1, m.config.vocab_size)
    for r, row in enumerate(rows):
        for got, seq in ((logits, row), (step, row + nxt[r])):
            want = cm.forward_logits(m, seq, feats, pos).data[-1]
            assert np.abs(got.data[r, 0] - want).max() <= 1e-12 * np.abs(want).max()
    # without a cache every position's logits come back
    full = cm.fuse_and_decode(m, cm.encode_text_unimodal(m, rows), visual, [pos, pos])
    assert full.shape == (2, len(ids), m.config.vocab_size)


def test_decode_rejects_a_media_position_without_its_media_item():
    m, ids, feats, pos = decode_inputs(0, n_media=2)
    with pytest.raises(ValueError, match=r"media index 0 out of range \(0 items\)"):
        cm.greedy_decode(m, [0, 2], [], [(1, 0)], stop_id=-1, max_new=2)
    with pytest.raises(ValueError, match=r"media index 2 out of range \(2 items\)"):
        cm.greedy_decode(m, ids, feats, pos + [(9, 2)], stop_id=-1, max_new=2)
    with pytest.raises(ValueError, match="media index 0"):
        cm.forward_logits(m, ids, [], [(1, 0)])


def test_decode_rejects_an_empty_prompt_by_its_index():
    m, ids, feats, pos = decode_inputs(0, n_media=2)
    with pytest.raises(ValueError, match="prompt 1 is empty"):
        cm.greedy_decode_batch(m, [(ids, feats, pos), ([], [], [])], stop_id=-1,
                               max_new=2)
    with pytest.raises(ValueError, match="prompt 0 is empty"):
        cm.greedy_decode(m, [], feats, [], stop_id=-1, max_new=2)


# -- batched greedy decoding ------------------------------------------------

def ragged_prompts(m, seed):
    """Prompts of mixed lengths and media counts (0 included); the two
    5-media prompts of length 30 and the three text-only ones of length 12
    form lockstep groups, the rest decode as groups of one."""
    rng = np.random.default_rng([seed, 2])
    prompts = []
    for seq, n_media in [(30, 5), (12, 0), (30, 5), (30, 2), (12, 0), (17, 1),
                         (12, 0)]:
        ids = rng.integers(5, m.config.vocab_size, size=seq).tolist()
        feats = [media(rng, frames=1 + i % 2) for i in range(n_media)]
        prompts.append((ids, feats, [(1 + 5 * i, i) for i in range(n_media)]))
    return prompts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_decode_equals_per_prompt_decode_on_ragged_prompts(seed):
    m = cm.build(toy_config(), seed=seed)
    inputs.move_off_init(m, seed)
    prompts = ragged_prompts(m, seed)
    free = cm.greedy_decode_batch(m, prompts, stop_id=-1, max_new=10)
    assert free == [cm.greedy_decode(m, *p, stop_id=-1, max_new=10) for p in prompts]
    assert all(len(out) == 10 for out in free)
    # a stop token the first row emits at step 3: the other rows stop at
    # other steps or never, and every row matches its own decode
    stop = free[0][3]
    got = cm.greedy_decode_batch(m, prompts, stop_id=stop, max_new=10)
    assert got == [cm.greedy_decode(m, *p, stop_id=stop, max_new=10) for p in prompts]
    assert got == [out[:out.index(stop)] if stop in out else out for out in free]
    assert len({len(out) for out in got}) > 1


def test_batch_decode_logits_match_full_forward(monkeypatch):
    m = cm.build(toy_config(), seed=4)
    inputs.move_off_init(m, 4)
    prompts = [p for p in ragged_prompts(m, 4) if len(p[0]) == 30 and len(p[1]) == 5]
    rows = []
    fuse = cm.fuse_and_decode

    def recording(*args, **kwargs):
        logits = fuse(*args, **kwargs)
        rows.append(logits.data[:, -1, :])
        return logits

    with monkeypatch.context() as mp:
        mp.setattr(cm, "fuse_and_decode", recording)
        got = cm.greedy_decode_batch(m, prompts, stop_id=-1, max_new=8)
    assert len(rows) == 8  # one batched pass per step
    for r, prompt in enumerate(prompts):
        want, want_rows = argmax_loop(m, *prompt, stop_id=-1, max_new=8)
        assert got[r] == want
        for step, want_row in enumerate(want_rows):
            assert np.abs(rows[step][r] - want_row).max() \
                <= 1e-12 * np.abs(want_row).max()


def test_batch_decode_context_error_like_single_decode():
    m, _, feats, pos = decode_inputs(0)
    rng = np.random.default_rng(5)
    prompts = [(rng.integers(5, 50, size=m.config.max_seq - 3).tolist(), feats, pos)
               for _ in range(2)]
    error = (f"sequence length {m.config.max_seq + 1} exceeds context "
             f"{m.config.max_seq}")
    with pytest.raises(ValueError, match=error):
        cm.greedy_decode_batch(m, prompts, stop_id=-1, max_new=8)
    assert cm.greedy_decode_batch(m, prompts, stop_id=-1, max_new=4) == [
        cm.greedy_decode(m, *p, stop_id=-1, max_new=4) for p in prompts]


# -- contrastive head -------------------------------------------------------

def embed_pair(m, rng, seq=8):
    ids = rng.integers(5, m.config.vocab_size, size=seq).tolist()
    th = cm.encode_text_unimodal(m, [ids])
    vt = cm.encode_media(m, [media(rng)])
    return cm.contrastive_embed(m, th, vt, [(2, seq)])


def test_contrastive_unit_norm():
    m = cm.build(toy_config(), seed=1)
    rng = np.random.default_rng(1)
    t, v = embed_pair(m, rng)
    assert abs(np.linalg.norm(t.data) - 1.0) < 1e-9
    assert abs(np.linalg.norm(v.data) - 1.0) < 1e-9


def test_contrastive_duplicates_identical():
    m = cm.build(toy_config(), seed=1)
    rng = np.random.default_rng(1)
    ids = rng.integers(5, 50, size=8).tolist()
    f = media(rng)
    th = cm.encode_text_unimodal(m, [ids])
    vt = cm.encode_media(m, [f])
    t1, v1 = cm.contrastive_embed(m, th, vt, [(0, 8)])
    t2, v2 = cm.contrastive_embed(m, cm.encode_text_unimodal(m, [ids]),
                                  cm.encode_media(m, [f]), [(0, 8)])
    assert t1.data.tobytes() == t2.data.tobytes()
    assert v1.data.tobytes() == v2.data.tobytes()


def test_towers_equal_contrastive_embed_bit_for_bit():
    m = cm.build(toy_config(), seed=1)
    rng = np.random.default_rng(1)
    ids = rng.integers(5, 50, size=(2, 8)).tolist()
    feats = [media(rng, frames=2), media(rng, frames=1)]
    rows = []
    for r in range(2):  # each pair as a one-row batch
        th = cm.encode_text_unimodal(m, [ids[r]])
        vt = cm.encode_media(m, [feats[r]])
        t, v = cm.contrastive_embed(m, th, vt, [(2, 7)])
        assert cm.embed_text(m, th, [(2, 7)]).data.tobytes() == t.data.tobytes()
        assert cm.embed_media(m, vt).data.tobytes() == v.data.tobytes()
        assert t.shape == v.shape == (1, 8)
        rows.append((t.data[0], v.data[0]))
    # the two pairs as one batch: each row equals its one-row batch
    visual = ad.concat([cm.encode_media(m, [f]) for f in feats])
    t, v = cm.contrastive_embed(m, cm.encode_text_unimodal(m, ids), visual,
                                [(2, 7), (2, 7)])
    assert t.shape == v.shape == (2, 8)
    for r, (t_row, v_row) in enumerate(rows):
        assert np.abs(t.data[r] - t_row).max() <= 1e-12
        assert np.abs(v.data[r] - v_row).max() <= 1e-12


def test_contrastive_empty_text_errors():
    m = cm.build(toy_config(), seed=1)
    rng = np.random.default_rng(1)
    th = cm.encode_text_unimodal(m, [[5, 6, 7]])
    vt = cm.encode_media(m, [media(rng)])
    # empty, out of the row, or one span too many: a fully masked row would
    # pool every position uniformly instead
    for spans in ([(2, 2)], [(3, 2)], [(-1, 2)], [(1, 4)], [(0, 3), (0, 3)]):
        with pytest.raises(ValueError, match="empty text"):
            cm.contrastive_embed(m, th, vt, spans)


# -- losses -----------------------------------------------------------------

def test_lm_loss_uniform_logits():
    logits = Tensor(np.zeros((3, 4)))
    loss = cm.lm_loss(logits, [0, 1, 2], [1, 1, 1])
    assert abs(loss.item() - math.log(4)) < 1e-12


def test_lm_loss_to_zero_with_margin():
    last = None
    for margin in (5.0, 20.0, 80.0):
        z = np.zeros((2, 4))
        z[0, 1] = margin
        z[1, 3] = margin
        loss = cm.lm_loss(Tensor(z), [1, 3], [1, 1]).item()
        if last is not None:
            assert loss < last
        last = loss
    assert last < 1e-8


def test_lm_loss_two_token_hand_case():
    logits = Tensor([[1.0, 0.0], [0.0, 1.0]])
    loss = cm.lm_loss(logits, [0, 1], [1, 1])
    assert abs(loss.item() - math.log(1 + math.exp(-1))) < 1e-9  # 0.3133


def test_lm_loss_all_masked():
    with pytest.raises(ValueError, match="masked"):
        cm.lm_loss(Tensor(np.zeros((2, 4))), [0, 1], [0, 0])


@pytest.mark.parametrize("bad", [-1, 4, 7])
def test_lm_loss_rejects_targets_outside_the_vocabulary(bad):
    # -1 used to score the last vocabulary column and 4 to raise IndexError
    with pytest.raises(ValueError, match=rf"target id {bad} outside the vocabulary \[0, 4\)"):
        cm.lm_loss(Tensor(np.zeros((3, 4))), [0, bad, 1], [1, 1, 1])


def test_lm_loss_rejects_a_mask_of_another_length():
    # a length-1 mask used to broadcast over the targets without a word
    logits = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
    with pytest.raises(ValueError, match="loss mask of length 1 for 2 targets"):
        cm.lm_loss(logits, [0, 1], [1])
    with pytest.raises(ValueError, match="loss mask of length 3 for 2 targets"):
        cm.lm_loss(logits, [0, 1], [1, 1, 1])


def test_lm_loss_rejects_more_targets_than_rows():
    # this used to be a raw IndexError
    with pytest.raises(ValueError, match="4 targets for 3 rows of logits"):
        cm.lm_loss(Tensor(np.zeros((3, 5))), [0, 1, 2, 3], [1, 1, 1, 1])


def test_lm_loss_respects_mask():
    z = np.zeros((2, 4))
    z[1] = [9.0, 0.0, 0.0, 0.0]
    loss = cm.lm_loss(Tensor(z), [1, 0], [1, 0]).item()
    assert abs(loss - math.log(4)) < 1e-12


def stable_log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


@pytest.mark.parametrize("target", [0, 1])
def test_lm_loss_finite_where_softmax_underflows(target):
    # softmax of [0, -1000] is [1, 0] in float64, so log(softmax) reads
    # log(0) at entry 1: the loss is 0 for target 0 and 1000 for target 1
    z = np.array([[0.0, -1000.0]])
    want = -stable_log_softmax(z)[0, target]
    assert want == [0.0, 1000.0][target]
    logits = Tensor(z, requires_grad=True)
    with Tape() as tape:
        loss = cm.lm_loss(logits, [target], [1])
        ad.backward(loss, tape)
    assert abs(loss.item() - want) <= 1e-12 * max(1.0, want)
    assert np.isfinite(logits.grad).all()


def test_contrastive_loss_finite_where_softmax_underflows():
    e = np.eye(2)
    logits = 1e4 * e
    want = -0.5 * (np.diag(stable_log_softmax(logits, -1)).mean()
                   + np.diag(stable_log_softmax(logits, 0)).mean())
    assert want == 0.0
    assert abs(cm.contrastive_loss(Tensor(e), Tensor(e), 1e4).item() - want) <= 1e-12


@pytest.mark.parametrize("n_text,n_media", [(2, 3), (3, 2)])
def test_contrastive_loss_rejects_batches_of_unequal_size(n_text, n_media):
    # 2 texts against 3 media used to return a loss, 3 against 2 IndexError
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=f"{n_text} texts against {n_media} media"):
        cm.contrastive_loss(Tensor(rng.normal(size=(n_text, 4))),
                            Tensor(rng.normal(size=(n_media, 4))), 1.0)


def test_contrastive_loss_batch_of_one_is_zero():
    t = Tensor([[1.0, 0.0]])
    v = Tensor([[1.0, 0.0]])
    assert abs(cm.contrastive_loss(t, v, 1.0).item()) < 1e-12


def test_contrastive_loss_orthogonal_pair():
    t = Tensor(np.eye(2))
    v = Tensor(np.eye(2))
    loss = cm.contrastive_loss(t, v, 1.0)
    assert abs(loss.item() - math.log(1 + math.exp(-1))) < 1e-9


def test_contrastive_loss_prefers_alignment():
    rng = np.random.default_rng(0)
    e = np.eye(4)
    aligned = cm.contrastive_loss(Tensor(e), Tensor(e), 1.0).item()
    shuffled = cm.contrastive_loss(Tensor(e), Tensor(e[[1, 0, 3, 2]]), 1.0).item()
    assert aligned < shuffled


def test_contrastive_loss_permutation_invariant():
    rng = np.random.default_rng(3)
    t = rng.normal(size=(5, 4))
    v = rng.normal(size=(5, 4))
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    a = cm.contrastive_loss(Tensor(t), Tensor(v), 3.0).item()
    perm = rng.permutation(5)
    b = cm.contrastive_loss(Tensor(t[perm]), Tensor(v[perm]), 3.0).item()
    assert abs(a - b) < 1e-12


# -- the combined objective, as train_step forms it --------------------------

def _sample(rng, n=6, paired=True):
    ids = rng.integers(5, 50, size=n).tolist()
    return tr.Sample(ids, [media(rng)], [(0, 0)], np.ones(n),
                     text_span=(1, n) if paired else None)


def _source(data_type, weight=1.0):
    return tr.SourceSpec(data_type, data_type, weight, [])


def _cycle_grads(cycle, **train_kw):
    """Gradients of one train_step over ``cycle`` on a fresh model (no clipping)."""
    model = cm.build(toy_config(), seed=0)
    config = tr.TrainConfig(warmup_steps=1, max_steps=3,
                            grad_clip=0.0, **train_kw)
    rows = tr.train_step(model, cycle, tr.init_state(model, seed=0), config)
    return rows, {k: p.grad for k, p in model.learnable_params.items()}


def _lm_reference(model, batch):
    """The batch's LM loss from one plain ``forward_logits`` per sample."""
    per = [cm.lm_loss(cm.forward_logits(model, s.token_ids, s.media_features,
                                        s.media_positions),
                      s.token_ids[1:], s.loss_mask[1:]) for s in batch]
    return ad.scale(ad.add_all(per), 1.0 / len(per))


def _contrastive_reference(model, batch):
    """InfoNCE over the batch's pairs, each embedded on its own by
    ``contrastive_embed`` from its own text and first-media encodes."""
    ts, vs = [], []
    for s in batch:
        if s.text_span is None or not s.media_features:
            continue
        t, v = cm.contrastive_embed(model, cm.encode_text_unimodal(model, [s.token_ids]),
                                    cm.encode_media(model, s.media_features[:1]),
                                    [s.text_span])
        ts.append(t)
        vs.append(v)
    return cm.contrastive_loss(ad.concat(ts), ad.concat(vs), cm.logit_scale(model))


def test_combined_loss_single_type_lm_only():
    rng = np.random.default_rng(5)
    batch = [_sample(rng), _sample(rng)]
    rows, grads = _cycle_grads([(_source("image_text"), batch)],
                               lambda_contrastive=0.0)
    assert rows[0]["c_loss"] is None
    model = cm.build(toy_config(), seed=0)
    with Tape() as tape:
        lm = _lm_reference(model, batch)
        ad.backward(lm, tape)
    assert rows[0]["lm_loss"] == lm.item()
    for k, p in model.learnable_params.items():
        if p.grad is None:
            assert grads[k] is None, k
        else:
            np.testing.assert_array_equal(grads[k], p.grad, err_msg=k)


def test_combined_loss_three_types():
    rng = np.random.default_rng(6)
    cycle = [(_source("image_text"), [_sample(rng), _sample(rng)]),
             (_source("video_text"), [_sample(rng), _sample(rng)]),
             (_source("interleaved_image"), [_sample(rng, paired=False)])]
    rows, grads = _cycle_grads(cycle)
    assert [r["c_loss"] is not None for r in rows] == [True, True, False]
    # reference: every source adds 1 * (1 * L_lm + 1 * L_c), L_c on paired types
    model = cm.build(toy_config(), seed=0)
    for spec, batch in cycle:
        terms = [_lm_reference]
        if spec.data_type in tr.PAIRED_TYPES:
            terms.append(_contrastive_reference)
        for term in terms:
            with Tape() as tape:
                ad.backward(term(model, batch), tape)
    for k, p in model.learnable_params.items():
        np.testing.assert_allclose(grads[k], p.grad, rtol=1e-10, atol=1e-14,
                                   err_msg=k)


def test_combined_loss_interleaved_weight_doubles():
    rng = np.random.default_rng(7)
    batch = [_sample(rng, paired=False)]
    _, one = _cycle_grads([(_source("interleaved_image", 1.0), batch)])
    _, two = _cycle_grads([(_source("interleaved_image", 2.0), batch)])
    for k, g in one.items():
        if g is None:
            assert two[k] is None, k
        else:
            np.testing.assert_array_equal(two[k], 2.0 * g, err_msg=k)


def test_batch_contrastive_equals_per_pair_infonce(monkeypatch):
    # captions of two lengths and spans, interleaved, with image and video
    # media; the unpaired sample is left out
    m = cm.build(toy_config(), seed=4)
    inputs.move_off_init(m, 4)
    rng = np.random.default_rng(4)
    batch = []
    for n, frames in ((6, 1), (8, 3), (6, 3), (8, 1), (6, 1)):
        ids = rng.integers(5, 50, size=n).tolist()
        batch.append(tr.Sample(ids, [media(rng, frames=frames)], [(0, 0)], np.ones(n),
                               text_span=(1, n - 1)))
    batch.insert(2, _sample(rng, paired=False))

    calls, rows = collections.Counter(), collections.Counter()
    for name in ("encode_text_unimodal", "encode_media"):
        monkeypatch.setattr(cm, name, lambda *a, _fn=getattr(cm, name), _name=name:
                            calls.update([_name]) or rows.update({_name: len(a[1])})
                            or _fn(*a))
    got, got_grads = _value_and_grads(m, lambda: tr._batch_losses(m, batch, True)[1])
    # one encode_media per source batch, whatever mix of frames, and each
    # sample's text encoded once for both losses: the samples are all cut
    # windows, so one padded pass encodes them
    assert calls == {"encode_text_unimodal": 1, "encode_media": 1}
    assert rows["encode_text_unimodal"] == len(batch)
    monkeypatch.undo()
    want, want_grads = _value_and_grads(m, lambda: _contrastive_reference(m, batch))
    assert abs(float(got) - float(want)) <= 1e-12
    assert set(got_grads) == set(want_grads)
    for k, g in want_grads.items():
        assert np.abs(got_grads[k] - g).max() <= 1e-12, k


# -- gradients --------------------------------------------------------------

def test_pooling_query_gradient_matches_finite_differences():
    m = cm.build(toy_config(), seed=2)
    rng = np.random.default_rng(2)
    ids = rng.integers(5, 50, size=6).tolist()
    feats = [media(rng), media(rng)]
    params = {k: m.learnable_params[k]
              for k in ("contrastive/text_query", "contrastive/vis_query",
                        "contrastive/text_head", "contrastive/vis_head",
                        "contrastive/log_scale")}

    def f():
        ts, vs = [], []
        for fm in feats:
            th = cm.encode_text_unimodal(m, [ids])
            vt = cm.encode_media(m, [fm])
            t, v = cm.contrastive_embed(m, th, vt, [(0, 6)])
            ts.append(t)
            vs.append(v)
        return cm.contrastive_loss(ad.concat(ts, axis=0), ad.concat(vs, axis=0),
                                   cm.logit_scale(m))

    assert grad_check(f, params, eps=1e-5) < 1e-4


def test_fusion_gradients_match_finite_differences():
    m = cm.build(toy_config(), seed=2)
    rng = np.random.default_rng(2)
    ids, feats, pos = make_inputs(m, rng, n_media=1, seq=6)
    targets = ids[1:] + [1]
    mask = np.ones(len(ids))
    mask[[p for p, _ in pos]] = 0
    keys = [k for k in m.learnable_params
            if k.startswith("fusion") or k.startswith("resampler")]
    params = {k: m.learnable_params[k] for k in keys}

    def f():
        logits = cm.forward_logits(m, ids, feats, pos)
        return cm.lm_loss(logits, targets, mask)

    assert grad_check(f, params, eps=1e-5) < 1e-4
