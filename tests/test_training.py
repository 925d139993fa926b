import dataclasses
import json
import math
import os

import numpy as np
import pytest

from cosmo import autodiff as ad
from cosmo import model as cm
from cosmo import training as tr
from cosmo.autodiff import Tensor
from cosmo.docs import Document, MediaItem, MediaRef, TextSpan, build_vocab, write_shard
from cosmo.training import (EPOCH_END, CycleLoader, DataSource, SourceSpec,
                            TrainConfig, guard, lr_at)


def cfg(**kw):
    base = dict(lr_max=1e-3, schedule="constant", warmup_steps=2, max_steps=10,
                batch_size=2, loader_strategy="min", window_len=16)
    base.update(kw)
    return TrainConfig(**base)


def write_pair_shard(path, n_docs, seed=0, caption="red widget", d=8):
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n_docs):
        feats = rng.normal(size=(1, 2, d)).astype(np.float32)
        docs.append(Document(
            segments=[MediaRef(0), TextSpan(caption)],
            media=[MediaItem("image", feats, source_id=f"s{i}")],
            doc_id=f"d{i}"))
    write_shard(docs, path)


@pytest.fixture()
def tiny_setup(tmp_path):
    vocab = build_vocab(["red widget blue gizmo green lever"], max_size=300)
    pa = str(tmp_path / "a.jsonl")
    pb = str(tmp_path / "b.jsonl")
    write_pair_shard(pa, 4, seed=0, caption="red widget")
    write_pair_shard(pb, 4, seed=1, caption="blue gizmo")
    specs = [SourceSpec("a", "image_text", 1.0, [pa]),
             SourceSpec("b", "video_text", 1.0, [pb])]
    model = cm.build(cm.ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                                    n_layers_total=4, split_index=2,
                                    n_latents=2, d_vision=8, n_patches=2,
                                    d_embed_contrastive=8, max_seq=64), seed=0)
    return vocab, specs, model, tmp_path


# -- schedules ---------------------------------------------------------------

def test_lr_warmup_endpoints():
    c = cfg(schedule="cosine", warmup_steps=100, max_steps=1000, lr_max=5e-4)
    assert lr_at(0, c) == 0.0
    assert lr_at(100, c) == 5e-4
    assert abs(lr_at(50, c) - 2.5e-4) < 1e-18


def test_cosine_closed_forms():
    c = cfg(schedule="cosine", warmup_steps=100, max_steps=1100, lr_max=1.0)
    assert abs(lr_at(1100, c)) < 1e-12  # cos(pi) = -1
    mid = 100 + (1100 - 100) // 2
    assert abs(lr_at(mid, c) - 0.5) < 1e-12
    assert abs(lr_at(600, c) - 0.5 * (1 + math.cos(math.pi * 0.5))) < 1e-12


def test_constant_schedule():
    c = cfg(schedule="constant", warmup_steps=10, max_steps=100, lr_max=0.3)
    for s in (10, 55, 100):
        assert lr_at(s, c) == 0.3


def test_step_clamped_beyond_max():
    c = cfg(schedule="cosine", warmup_steps=0, max_steps=100)
    assert lr_at(150, c) == lr_at(100, c)


def test_default_config_has_no_warmup_and_two_schedules():
    assert lr_at(0, TrainConfig(lr_max=0.3)) == 0.3
    for name in ("cosine_restart", "inverse_sqrt"):
        with pytest.raises(ValueError, match="unknown schedule"):
            TrainConfig(schedule=name)


@pytest.mark.parametrize("field, value, message", [
    ("batch_size", 0, "batch_size must be >= 1"),
    ("warmup_steps", -1, "warmup_steps must be >= 0"),
    ("window_len", 4, "window_len must be >= 8"),
    ("lambda_contrastive", -1.0, "lambda_contrastive must be >= 0"),
    ("weight_decay", -0.1, "weight_decay must be >= 0")])
def test_train_config_rejects_out_of_range(field, value, message):
    # unchecked, batch_size 0 divides by zero in DataSource.n_batches, warmup
    # -1 shifts the cosine schedule silently, a window below 8 tokens fails
    # only at the first windowed sample, a negative lambda maximizes the
    # contrastive loss, and a negative weight decay grows the weights
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


# -- guard -------------------------------------------------------------------

def test_guard_scale_to_ema():
    d = guard(5.0, 1.0)
    assert d.action == "scale"
    assert abs(d.factor - 0.2) < 1e-15
    # while a key warms up, only a value above factor * slack is a spike
    wide = tr.GUARD_SPIKE_FACTOR * tr.GUARD_WARMUP_SLACK
    assert guard(5.0, 1.0, warming_up=True).action == "accept"
    d = guard(2 * wide, 1.0, warming_up=True)
    assert d.action == "scale" and abs(d.factor - 1 / (2 * wide)) < 1e-15


def test_guard_skips_nan_and_inf():
    assert guard(float("nan"), 1.0).action == "skip"
    assert guard(float("inf"), 1.0).action == "skip"


def test_guard_accepts_mild_increase():
    d = guard(1.1, 1.0)
    assert d.action == "accept"


def test_guard_first_batch_accepts():
    assert guard(7.0, None).action == "accept"


def test_guard_accepts_ordinary_contrastive_swings(tiny_setup):
    """A 4-pair contrastive loss on the benchmark's mixed training run read
    1.19, 1.62, 2.70 and 3.27 over its first steps: the spread of small
    batches, which the guard must not scale."""
    vocab, specs, model, tmp = tiny_setup
    losses = [1.19, 1.62, 2.70, 3.27]
    seen = []

    def hook(step, name, kind, loss):
        if kind != "contrastive":
            return loss
        seen.append(step)
        return ad.scale(loss, losses[step] / float(loss.data))

    config = cfg(max_steps=len(losses))
    sources = tr.make_sources(specs[:1], vocab, config)
    state = tr.train(model, sources, config, str(tmp / "out"), vocab, loss_hook=hook)
    assert seen == [0, 1, 2, 3]
    assert [e for e in state.events if e.get("event") == "scale"] == []
    assert state.guard_counts == {"image_text/lm": 4, "image_text/contrastive": 4}


def test_guard_scales_gross_spike_during_warmup(tiny_setup):
    """A spike among a key's first values is judged with a wider threshold
    and kept out of the average, so a later, smaller spike is still caught."""
    vocab, specs, model, tmp = tiny_setup
    losses = [2.0, 1e6, 2.0, 2.0, 9.0]

    def hook(step, name, kind, loss):
        if kind != "contrastive":
            return loss
        return ad.scale(loss, losses[step] / float(loss.data))

    config = cfg(max_steps=len(losses))
    sources = tr.make_sources(specs[:1], vocab, config)
    state = tr.train(model, sources, config, str(tmp / "out"), vocab, loss_hook=hook)
    scales = [e for e in state.events if e.get("event") == "scale"]
    assert [(e["step"], e["kind"]) for e in scales] == [
        (1, "contrastive"), (4, "contrastive")]
    assert abs(scales[0]["factor"] - 2.0 / 1e6) < 1e-15
    average = (state.emas["image_text/contrastive"]
               / (1.0 - tr.GUARD_EMA_DECAY ** 5))
    assert abs(average - 2.0) < 1e-9


def test_ema_update():
    assert abs(tr.update_ema(0.0, 2.0, 0.99) - 0.02) < 1e-15
    assert abs(tr.update_ema(1.0, 2.0, 0.9) - 1.1) < 1e-15


# -- cycles ------------------------------------------------------------------

def make_sized_sources(tmp_path, vocab, sizes):
    specs = []
    for i, n in enumerate(sizes):
        p = str(tmp_path / f"src{i}.jsonl")
        write_pair_shard(p, n, seed=i)
        specs.append(SourceSpec(f"src{i}", "image_text", 1.0, [p]))
    return [DataSource(s, vocab, batch_size=1, window_len=16) for s in specs]


def count_cycles(loader, rng):
    loader.start_epoch(rng)
    n = 0
    while True:
        c = loader.next_cycle(rng)
        if c is EPOCH_END:
            return n
        n += 1


def test_min_strategy_cycle_count(tmp_path):
    vocab = build_vocab(["red widget"], max_size=300)
    sources = make_sized_sources(tmp_path, vocab, [10, 20])
    loader = CycleLoader(sources, "min")
    assert count_cycles(loader, np.random.default_rng(0)) == 10


def test_max_strategy_restarts_small_source(tmp_path):
    vocab = build_vocab(["red widget"], max_size=300)
    sources = make_sized_sources(tmp_path, vocab, [10, 20])
    loader = CycleLoader(sources, "max")
    rng = np.random.default_rng(0)
    loader.start_epoch(rng)
    n = 0
    while loader.next_cycle(rng) is not EPOCH_END:
        n += 1
    assert n == 20


def test_round_robin_single_draws(tmp_path):
    vocab = build_vocab(["red widget"], max_size=300)
    sources = make_sized_sources(tmp_path, vocab, [1, 1, 1])
    loader = CycleLoader(sources, "round_robin")
    rng = np.random.default_rng(0)
    loader.start_epoch(rng)
    seen = []
    while True:
        c = loader.next_cycle(rng)
        if c is EPOCH_END:
            break
        assert len(c) == 1
        seen.append(c[0][0].name)
    assert seen == ["src0", "src1", "src2"]


def test_min_max_cycle_has_one_batch_per_source(tmp_path):
    vocab = build_vocab(["red widget"], max_size=300)
    sources = make_sized_sources(tmp_path, vocab, [3, 3])
    loader = CycleLoader(sources, "min")
    rng = np.random.default_rng(0)
    loader.start_epoch(rng)
    c = loader.next_cycle(rng)
    assert [s.name for s, _ in c] == ["src0", "src1"]


@pytest.mark.parametrize("change, message", [
    (lambda st: st["sources"].pop(), "loader state holds 2 sources, the loader 3"),
    (lambda st: st["sources"][1]["perm"].pop(),
     "perm of source 'src1' has 2 entries, the source 3 documents"),
    (lambda st: st.update(rr_next=3), "rr_next 3 is out of range for 3 sources")],
    ids=["source_count", "perm_length", "rr_next"])
def test_loader_state_must_fit_sources(tmp_path, change, message):
    vocab = build_vocab(["red widget"], max_size=300)
    sources = make_sized_sources(tmp_path, vocab, [3, 3, 3])
    loader = CycleLoader(sources, "round_robin")
    loader.start_epoch(np.random.default_rng(0))
    st = loader.get_state()
    change(st)
    with pytest.raises(ValueError, match=message):
        CycleLoader(sources, "round_robin").set_state(st)


def test_empty_source_rejected(tmp_path):
    vocab = build_vocab(["red widget"], max_size=300)
    p = str(tmp_path / "empty.jsonl")
    write_shard([], p)
    with pytest.raises(ValueError, match="no documents"):
        DataSource(SourceSpec("e", "image_text", 1.0, [p]), vocab, 1, 16)
    with pytest.raises(ValueError, match="sources"):
        CycleLoader([], "min")


def test_source_spec_validation():
    with pytest.raises(ValueError, match="data_type"):
        SourceSpec("x", "text_only", 1.0, [])
    with pytest.raises(ValueError, match="weight"):
        SourceSpec("x", "image_text", 0.0, [])


# -- train_step --------------------------------------------------------------

def test_grad_clip_scales_norm():
    m = cm.build(cm.ModelConfig(vocab_size=40, d_model=16, n_heads=2,
                                n_layers_total=4, split_index=2, n_latents=2,
                                d_vision=8, d_embed_contrastive=8), seed=0)
    total = 0.0
    rng = np.random.default_rng(0)
    for p in m.learnable_params.values():
        p.grad = rng.normal(size=p.shape)
        total += (p.grad ** 2).sum()
    scale = 5.0 / math.sqrt(total)
    for p in m.learnable_params.values():
        p.grad = p.grad * scale  # norm exactly 5
    norm = tr.clip_gradients(m, 1.0)
    assert abs(norm - 5.0) < 1e-9
    after = math.sqrt(sum((p.grad ** 2).sum()
                          for p in m.learnable_params.values()))
    assert abs(after - 1.0) < 1e-9


def test_single_type_lm_only_runs(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(lambda_contrastive=0.0, max_steps=3)
    sources = tr.make_sources(specs[:1], vocab, config)
    state = tr.init_state(model, seed=0)
    loader = CycleLoader(sources, "min")
    loader.start_epoch(state.rng)
    rows = tr.train_step(model, loader.next_cycle(state.rng), state, config)
    assert len(rows) == 1
    assert rows[0]["c_loss"] is None
    assert rows[0]["lm_loss"] > 0


def test_paired_type_gets_contrastive(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=3)
    sources = tr.make_sources(specs, vocab, config)
    state = tr.init_state(model, seed=0)
    loader = CycleLoader(sources, "min")
    loader.start_epoch(state.rng)
    rows = tr.train_step(model, loader.next_cycle(state.rng), state, config)
    assert all(r["c_loss"] is not None for r in rows)
    # every row carries the step's global gradient norm, taken before clipping
    assert len({r["grad_norm"] for r in rows}) == 1
    assert all(math.isfinite(r["grad_norm"]) and r["grad_norm"] > 0 for r in rows)


ROW_KEYS = {"step", "type", "lm_loss", "c_loss", "lr", "guard_event", "grad_norm",
            "gates", "logit_scale"}


def test_metrics_rows_read_gates_and_logit_scale_before_the_update(tiny_setup):
    """The row schema of the metric stream (no timing in it), and the gates
    and logit scale read from the model as each step found it."""
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=4, warmup_steps=0)
    sources = tr.make_sources(specs, vocab, config)
    state = tr.init_state(model, seed=0)
    loader = CycleLoader(sources, "min")
    loader.start_epoch(state.rng)
    positions = model.config.fusion_positions()
    for _ in range(3):
        gates = [float(np.tanh(model.param(f"fusion{p}/gate").data[0]))
                 for p in positions]
        scale = float(np.exp(model.param("contrastive/log_scale").data[0]))
        cycle = loader.next_cycle(state.rng)
        if cycle is EPOCH_END:
            loader.start_epoch(state.rng)
            cycle = loader.next_cycle(state.rng)
        rows = tr.train_step(model, cycle, state, config)
        assert rows and all(set(r) == ROW_KEYS for r in rows)
        for r in rows:
            assert r["gates"] == gates
            assert r["logit_scale"] == pytest.approx(scale, rel=1e-15)
    # the update moved both, so the rows read them before it
    assert gates != [float(np.tanh(model.param(f"fusion{p}/gate").data[0]))
                     for p in positions]
    assert scale != float(np.exp(model.param("contrastive/log_scale").data[0]))
    # the written stream carries the same schema; a fresh model's gates are 0
    # and its logit scale 1 / temperature
    fresh = cm.build(model.config, seed=0)
    tr.train(fresh, sources, cfg(max_steps=2), str(tmp / "out"), vocab)
    lines = [json.loads(line) for line in
             (tmp / "out" / "metrics.ndjson").read_text().splitlines()]
    assert lines and all(set(r) == ROW_KEYS for r in lines)
    first = [r for r in lines if r["step"] == 0]
    assert all(r["gates"] == [0.0] * len(positions) for r in first)
    assert all(r["logit_scale"] == pytest.approx(1.0 / model.config.temperature)
               for r in first)


@pytest.mark.parametrize("caption", ["", "   "])
def test_empty_caption_sits_out_contrastive(tiny_setup, caption):
    # a pair whose caption tokenizes to nothing keeps its LM loss, and the
    # contrastive loss runs over the other pairs of the batch
    vocab, specs, model, tmp = tiny_setup
    rng = np.random.default_rng(2)
    docs = [Document(segments=[MediaRef(0), TextSpan(text)],
                     media=[MediaItem("image", rng.normal(size=(1, 2, 8)))],
                     doc_id=f"d{i}")
            for i, text in enumerate(["red widget", caption, "blue gizmo"])]
    path = str(tmp / "c.jsonl")
    write_shard(docs, path)
    source = DataSource(SourceSpec("c", "image_text", 1.0, [path]), vocab,
                        batch_size=3, window_len=16)
    source.reset_epoch(np.random.default_rng(0))
    batch = source.next_batch(np.random.default_rng(0))
    rows = tr.train_step(model, [(source.spec, batch)], tr.init_state(model, seed=0),
                         cfg(max_steps=3))
    assert sum(s.text_span is None for s in batch) == 1
    assert math.isfinite(rows[0]["lm_loss"]) and math.isfinite(rows[0]["c_loss"])


def test_source_weight_scales_gradient(tiny_setup):
    vocab, specs, model0, tmp = tiny_setup
    config = cfg(grad_clip=0.0, max_steps=3)
    sources = tr.make_sources(specs[:1], vocab, config)
    loader = CycleLoader(sources, "min")
    loader.start_epoch(np.random.default_rng(0))
    (spec, batch), = loader.next_cycle(np.random.default_rng(1))
    grads = []
    for weight in (1.0, 2.0):
        model = cm.build(model0.config, seed=0)
        rows = tr.train_step(model, [(dataclasses.replace(spec, weight=weight), batch)],
                             tr.init_state(model, seed=0), config)
        assert rows[0]["c_loss"] is not None  # both losses are weighted
        grads.append({k: p.grad for k, p in model.learnable_params.items()})
    for k, g in grads[0].items():
        np.testing.assert_array_equal(grads[1][k], 2.0 * g, err_msg=k)


def test_untouched_params_not_updated(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(lambda_contrastive=0.0, max_steps=4)
    sources = tr.make_sources(specs[:1], vocab, config)
    state = tr.init_state(model, seed=0)
    loader = CycleLoader(sources, "min")
    loader.start_epoch(state.rng)
    head = [k for k in model.learnable_params if k.startswith("contrastive/")]
    before = {k: model.learnable_params[k].data.copy() for k in head}
    for _ in range(2):
        tr.train_step(model, loader.next_cycle(state.rng), state, config)
    assert state.opt_steps == 2
    for k in head:
        np.testing.assert_array_equal(model.learnable_params[k].data, before[k],
                                      err_msg=k)
        assert not state.adam_m[k].any() and not state.adam_v[k].any(), k
    assert model.learnable_params["fusion2/gate"].data[0] != 0.0


def test_skipped_param_resumes_with_fresh_adam_step():
    # Each parameter is bias-corrected by its own update count: one that sat
    # out 29 steps takes a first Adam step of lr, as a fresh parameter does.
    a = Tensor(np.zeros(1), requires_grad=True)
    b = Tensor(np.zeros(1), requires_grad=True)
    model = cm.Model(config=None, seed=0, learnable_params={"a": a, "b": b})
    state = tr.init_state(model, seed=0)
    for step in range(30):
        a.grad = np.ones(1)
        b.grad = np.ones(1) if step == 29 else None
        tr.adamw_update(model, state, 1.0, cfg(weight_decay=0.0))
    assert b.data[0] == pytest.approx(-1.0, rel=1e-6)
    assert (state.opt_steps, state.param_steps) == (30, {"a": 30, "b": 1})


def test_loss_decreases_on_fixed_caption(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    # The fusion gates start at zero and Adam moves a gate by about lr per
    # step, so the visual path opens slowly: 90 steps at 3e-3 lets tanh(gate)
    # reach about 0.3, enough for the caption to be fitted.
    config = cfg(max_steps=90, warmup_steps=2, lr_max=3e-3,
                 lambda_contrastive=0.0)
    sources = tr.make_sources(specs[:1], vocab, config)
    state = tr.train(model, sources, config, str(tmp / "out"), vocab)
    lines = [json.loads(l) for l in
             (tmp / "out" / "metrics.ndjson").read_text().splitlines()]
    early = np.mean([l["lm_loss"] for l in lines[:5]])
    late = np.mean([l["lm_loss"] for l in lines[-5:]])
    assert late < 0.5 * early


def test_frozen_params_bit_identical_after_training(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    snapshot = {k: p.data.tobytes() for k, p in model.frozen_params.items()}
    config = cfg(max_steps=20)
    sources = tr.make_sources(specs, vocab, config)
    tr.train(model, sources, config, str(tmp / "out"), vocab)
    for k, p in model.frozen_params.items():
        assert p.data.tobytes() == snapshot[k], k


def test_no_decay_predicate():
    assert tr._no_decay("fusion2/gate")
    assert tr._no_decay("fusion2/ln_g")
    assert tr._no_decay("contrastive/log_scale")
    assert not tr._no_decay("fusion2/down")
    assert not tr._no_decay("resampler/latents")


def test_all_skipped_cycle_leaves_params(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=2)
    sources = tr.make_sources(specs[:1], vocab, config)
    state = tr.init_state(model, seed=0)
    loader = CycleLoader(sources, "min")
    loader.start_epoch(state.rng)
    before = {k: p.data.copy() for k, p in model.learnable_params.items()}

    def nan_hook(step, name, kind, loss):
        return ad.scale(loss, float("nan"))

    tr.train_step(model, loader.next_cycle(state.rng), state, config,
                  loss_hook=nan_hook)
    for k, p in model.learnable_params.items():
        np.testing.assert_array_equal(p.data, before[k])
    assert any(e.get("event") == "cycle_skipped" for e in state.events)


def test_guard_integration_spikes_and_nans(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=120, warmup_steps=2, lr_max=1e-3)
    sources = tr.make_sources(specs, vocab, config)

    def hook(step, name, kind, loss):
        if kind != "lm" or name != "a":
            return loss
        if step and step % 50 == 0:
            return ad.scale(loss, 1e6 / max(float(loss.data), 1e-9))
        if step and step % 77 == 0:
            return ad.scale(loss, float("nan"))
        return loss

    tr.train(model, sources, config, str(tmp / "out"), vocab, loss_hook=hook)
    for p in model.learnable_params.values():
        assert np.isfinite(p.data).all()
    scale_steps = {e["step"] for e in
                   [e for s in [0] for e in []]}  # placeholder removed below
    events = tr.load_checkpoint(str(tmp / "out" / "final.ckpt"))[1].events
    scales = {e["step"] for e in events if e.get("event") == "scale"}
    skips = {e["step"] for e in events if e.get("event") == "skip"}
    assert {50, 100} <= scales
    assert {77} <= skips


# -- checkpointing -----------------------------------------------------------

def test_checkpoint_roundtrip(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=4)
    sources = tr.make_sources(specs, vocab, config)
    state = tr.train(model, sources, config, str(tmp / "out"), vocab)
    loaded_model, loaded_state, loaded_config, loaded_vocab, loader_state = \
        tr.load_checkpoint(str(tmp / "out" / "final.ckpt"))
    assert loaded_state.step == state.step
    assert loaded_state.param_steps == state.param_steps
    for k, p in model.learnable_params.items():
        np.testing.assert_array_equal(loaded_model.learnable_params[k].data,
                                      p.data)
    assert loaded_config.max_steps == 4
    assert loaded_vocab.id_to_word == vocab.id_to_word
    assert loader_state is not None


def test_checkpoint_shape_mismatch_refused(tiny_setup, tmp_path):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=2)
    sources = tr.make_sources(specs, vocab, config)
    tr.train(model, sources, config, str(tmp / "out"), vocab)
    path = str(tmp / "out" / "final.ckpt")
    from cosmo.checkpoint import load_archive, save_archive, ArchiveError
    manifest, arrays = load_archive(path)
    arrays["resampler/latents"] = np.zeros((7, 7))
    bad = str(tmp_path / "bad.ckpt")
    save_archive(bad, {k: v for k, v in manifest.items() if k != "params"}, arrays)
    with pytest.raises(ArchiveError, match="shape mismatch"):
        tr.load_checkpoint(bad)


def test_checkpoint_config_field_mismatch_refused(tiny_setup, tmp_path):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=2)
    tr.train(model, tr.make_sources(specs, vocab, config), config,
             str(tmp / "out"), vocab)
    from cosmo.checkpoint import load_archive, save_archive, ArchiveError
    manifest, arrays = load_archive(str(tmp / "out" / "final.ckpt"))
    bad = str(tmp_path / "bad.ckpt")
    # a field this TrainConfig does not have, as an older version wrote it
    manifest["train"]["config"]["contrastive_shards"] = ["pairs.jsonl"]
    save_archive(bad, manifest, arrays)
    with pytest.raises(ArchiveError, match="train config has unknown field "
                                           "'contrastive_shards'"):
        tr.load_checkpoint(bad)
    # an older manifest still carries the guard settings
    del manifest["train"]["config"]["contrastive_shards"]
    manifest["train"]["config"]["guard"] = {"ema_decay": 0.99, "spike_factor": 2.0}
    save_archive(bad, manifest, arrays)
    with pytest.raises(ArchiveError, match="train config has unknown field 'guard'"):
        tr.load_checkpoint(bad)
    del manifest["train"]["config"]["guard"]
    del manifest["config"]["n_latents"]
    save_archive(bad, manifest, arrays)
    with pytest.raises(ArchiveError, match="model config lacks field 'n_latents'"):
        tr.load_checkpoint(bad)


def test_checkpoint_missing_key_refused(tiny_setup, tmp_path):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=2)
    tr.train(model, tr.make_sources(specs, vocab, config), config,
             str(tmp / "out"), vocab)
    from cosmo.checkpoint import load_archive, save_archive, ArchiveError
    manifest, arrays = load_archive(str(tmp / "out" / "final.ckpt"))
    bad = str(tmp_path / "bad.ckpt")
    train = manifest.pop("train")
    save_archive(bad, manifest, arrays)
    with pytest.raises(ArchiveError, match="manifest lacks field 'train'"):
        tr.load_checkpoint(bad)
    manifest["train"] = {k: v for k, v in train.items() if k != "emas"}
    save_archive(bad, manifest, arrays)
    with pytest.raises(ArchiveError, match="manifest 'train' lacks field 'emas'"):
        tr.load_checkpoint(bad)
    manifest["train"] = train
    del arrays["optim/m/resampler/latents"]
    save_archive(bad, manifest, arrays)
    with pytest.raises(ArchiveError,
                       match="checkpoint missing array optim/m/resampler/latents"):
        tr.load_checkpoint(bad)


def test_deterministic_replay(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=8)

    def run(tag):
        m = cm.build(model.config, seed=0)
        sources = tr.make_sources(specs, vocab, config)
        tr.train(m, sources, config, str(tmp / tag), vocab)
        metrics = (tmp / tag / "metrics.ndjson").read_bytes()
        ckpt = (tmp / tag / "final.ckpt").read_bytes()
        return metrics, ckpt

    m1, c1 = run("r1")
    m2, c2 = run("r2")
    assert m1 == m2
    assert c1 == c2


def test_resume_matches_uninterrupted(tiny_setup):
    vocab, specs, model, tmp = tiny_setup

    def fresh_model():
        return cm.build(model.config, seed=0)

    full_cfg = cfg(max_steps=6)
    sources = tr.make_sources(specs, vocab, full_cfg)
    tr.train(fresh_model(), sources, full_cfg, str(tmp / "full"), vocab)

    half_cfg = cfg(max_steps=3)
    sources = tr.make_sources(specs, vocab, half_cfg)
    tr.train(fresh_model(), sources, half_cfg, str(tmp / "resumed"), vocab)
    m2, state2, _, vocab2, loader_state = tr.load_checkpoint(
        str(tmp / "resumed" / "final.ckpt"))
    sources = tr.make_sources(specs, vocab2, full_cfg)
    tr.train(m2, sources, full_cfg, str(tmp / "resumed"), vocab2, state=state2,
             loader_state=loader_state)

    full_lines = (tmp / "full" / "metrics.ndjson").read_text().splitlines()
    resumed_lines = (tmp / "resumed" / "metrics.ndjson").read_text().splitlines()
    assert full_lines == resumed_lines
    a = (tmp / "full" / "final.ckpt").read_bytes()
    b = (tmp / "resumed" / "final.ckpt").read_bytes()
    assert a == b
