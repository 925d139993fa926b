import math
import os
import sys

import numpy as np
import pytest

from cosmo import autodiff as ad
from cosmo import model as cm
from cosmo import training as tr
from cosmo.autodiff import Tape, Tensor
from cosmo.model import ModelConfig

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
    with pytest.raises(ValueError, match="temperature"):
        cm.build(toy_config(temperature=0.0), seed=0)


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
    vid = media(rng, frames=3)
    a = cm.vision_encode(m, vid)
    b = cm.vision_encode(m, vid)
    assert a.data.tobytes() == b.data.tobytes()
    assert a.shape == (3 * 2, 8)


def test_vision_encode_zero_input_bias_pathway():
    m = cm.build(toy_config(), seed=0)
    out = cm.vision_encode(m, np.zeros((1, 2, 8)))
    assert np.isfinite(out.data).all()
    # zero input leaves only the bias pathway: both rows identical
    assert np.allclose(out.data[0], out.data[1])


def test_vision_encode_dim_mismatch():
    m = cm.build(toy_config(), seed=0)
    with pytest.raises(ValueError, match="d_vision"):
        cm.vision_encode(m, np.zeros((1, 2, 5)))


def test_resample_shape_contract():
    m = cm.build(toy_config(n_latents=4), seed=0)
    rng = np.random.default_rng(1)
    feats = cm.vision_encode(m, rng.normal(size=(8, 2, 8)))  # 16 rows
    out = cm.resample(m, feats)
    assert out.shape == (1, 4, 16)


def test_resample_fixed_count_for_videos():
    m = cm.build(toy_config(), seed=0)
    rng = np.random.default_rng(1)
    one = cm.resample(m, cm.vision_encode(m, media(rng, frames=1)))
    many = cm.resample(m, cm.vision_encode(m, media(rng, frames=6)))
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
        cm.encode_text_unimodal(m, [0, 50])


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
    calls = {"vision_encode": 0, "resample": 0}
    for name in calls:
        fn = getattr(cm, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cm, name, counting)
    out = cm.greedy_decode(m, ids, feats, pos, stop_id=-1, max_new=6)
    assert len(out) == 6
    assert calls == {"vision_encode": 3, "resample": 3}


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
    th = cm.encode_text_unimodal(m, ids)
    vt = cm.encode_media(m, [media(rng)])
    return cm.contrastive_embed(m, th, vt, text_span=(2, seq))


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
    th = cm.encode_text_unimodal(m, ids)
    vt = cm.encode_media(m, [f])
    t1, v1 = cm.contrastive_embed(m, th, vt)
    t2, v2 = cm.contrastive_embed(m, cm.encode_text_unimodal(m, ids),
                                  cm.encode_media(m, [f]))
    assert t1.data.tobytes() == t2.data.tobytes()
    assert v1.data.tobytes() == v2.data.tobytes()


def test_towers_equal_contrastive_embed_bit_for_bit():
    m = cm.build(toy_config(), seed=1)
    rng = np.random.default_rng(1)
    ids = rng.integers(5, 50, size=8).tolist()
    th = cm.encode_text_unimodal(m, ids)
    vt = cm.encode_media(m, [media(rng, frames=2)])
    t, v = cm.contrastive_embed(m, th, vt, text_span=(2, 7))
    assert cm.embed_text(m, th[2:7, :]).data.tobytes() == t.data.tobytes()
    assert cm.embed_media(m, vt).data.tobytes() == v.data.tobytes()
    assert t.shape == v.shape == (1, 8)


def test_contrastive_empty_text_errors():
    m = cm.build(toy_config(), seed=1)
    rng = np.random.default_rng(1)
    th = cm.encode_text_unimodal(m, [5, 6, 7])
    vt = cm.encode_media(m, [media(rng)])
    with pytest.raises(ValueError, match="empty text"):
        cm.contrastive_embed(m, th, vt, text_span=(2, 2))


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


def test_lm_loss_respects_mask():
    z = np.zeros((2, 4))
    z[1] = [9.0, 0.0, 0.0, 0.0]
    loss = cm.lm_loss(Tensor(z), [1, 0], [1, 0]).item()
    assert abs(loss - math.log(4)) < 1e-12


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


def test_contrastive_scope_shards():
    rng = np.random.default_rng(4)
    t = rng.normal(size=(8, 4))
    v = rng.normal(size=(8, 4))
    per = cm.contrastive_loss(Tensor(t), Tensor(v), 1.0, n_shards=2).item()
    halves = (cm.contrastive_loss(Tensor(t[:4]), Tensor(v[:4]), 1.0).item()
              + cm.contrastive_loss(Tensor(t[4:]), Tensor(v[4:]), 1.0).item()) / 2
    assert abs(per - halves) < 1e-12
    whole = cm._infonce(Tensor(t), Tensor(v), 1.0).item()
    assert cm.contrastive_loss(Tensor(t), Tensor(v), 1.0, n_shards=1).item() == whole
    assert abs(per - whole) > 1e-6
    # fewer than two pairs per shard: the batch is scored whole
    assert cm.contrastive_loss(Tensor(t), Tensor(v), 1.0, n_shards=5).item() == whole


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
    config = tr.TrainConfig(schedule="constant", warmup_steps=1, max_steps=3,
                            grad_clip=0.0, **train_kw)
    rows = tr.train_step(model, cycle, tr.init_state(model, seed=0), config)
    return rows, {k: p.grad for k, p in model.learnable_params.items()}


def test_combined_loss_single_type_lm_only():
    rng = np.random.default_rng(5)
    batch = [_sample(rng), _sample(rng)]
    rows, grads = _cycle_grads([(_source("image_text"), batch)],
                               lambda_contrastive=0.0)
    assert rows[0]["c_loss"] is None
    model = cm.build(toy_config(), seed=0)
    with Tape() as tape:
        lm = tr._batch_lm_loss(model, batch)
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
    config = tr.TrainConfig(warmup_steps=1)
    for spec, batch in cycle:
        terms = [tr._batch_lm_loss]
        if spec.data_type in tr.PAIRED_TYPES:
            terms.append(lambda m, b: tr._batch_contrastive(m, b, config))
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
            th = cm.encode_text_unimodal(m, ids)
            vt = cm.encode_media(m, [fm])
            t, v = cm.contrastive_embed(m, th, vt)
            ts.append(t)
            vs.append(v)
        return cm.contrastive_loss(ad.concat(ts, axis=0), ad.concat(vs, axis=0),
                                   cm.logit_scale(m))

    assert ad.grad_check(f, params, eps=1e-5) < 1e-4


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

    assert ad.grad_check(f, params, eps=1e-5) < 1e-4
