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
from cosmo.docs import (VISUAL, Document, MediaItem, MediaRef, TextSpan, build_vocab,
                        write_shard)
from cosmo.training import (EPOCH_END, CycleLoader, DataSource, SourceSpec,
                            TrainConfig, guard, lr_at)


def cfg(**kw):
    base = dict(lr_max=1e-3, warmup_steps=2, max_steps=10,
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


def test_step_clamped_beyond_max():
    c = cfg(schedule="cosine", warmup_steps=0, max_steps=100)
    assert lr_at(150, c) == lr_at(100, c)


def test_default_config_has_no_warmup_and_one_schedule():
    assert lr_at(0, TrainConfig(lr_max=0.3)) == 0.3
    for name in ("constant", "cosine_restart", "inverse_sqrt"):
        with pytest.raises(ValueError, match="unknown schedule"):
            TrainConfig(schedule=name)


@pytest.mark.parametrize("field, value, message", [
    ("batch_size", 0, "batch_size must be >= 1"),
    ("warmup_steps", -1, "warmup_steps must be >= 0"),
    ("window_len", 4, "window_len must be >= 8"),
    ("lambda_contrastive", -1.0, "lambda_contrastive must be >= 0"),
    ("weight_decay", -0.1, "weight_decay must be >= 0"),
    ("grad_clip", -1.0, "grad_clip must be >= 0"),
    ("lr_max", float("nan"), "lr_max must be > 0 and finite"),
    ("lr_max", float("inf"), "lr_max must be > 0 and finite"),
    ("lambda_contrastive", float("nan"), "lambda_contrastive must be >= 0 and finite"),
    ("weight_decay", float("nan"), "weight_decay must be >= 0 and finite"),
    ("grad_clip", float("nan"), "grad_clip must be >= 0 and finite"),
    ("max_steps", 0, "max_steps must be >= 1 and finite"),
    ("max_steps", -5, "max_steps must be >= 1 and finite"),
    ("max_steps", float("nan"), "max_steps must be >= 1 and finite"),
    ("max_steps", float("inf"), "max_steps must be >= 1 and finite"),
    ("checkpoint_every", -1, "checkpoint_every must be >= 0 and finite"),
    ("checkpoint_every", float("nan"), "checkpoint_every must be >= 0 and finite"),
    ("batch_size", 2.5, "batch_size must be an int"),
    ("batch_size", True, "batch_size must be an int"),
    ("window_len", 32.5, "window_len must be an int"),
    ("max_steps", 10.5, "max_steps must be an int"),
    ("warmup_steps", 1.5, "warmup_steps must be an int"),
    ("checkpoint_every", 0.5, "checkpoint_every must be an int")])
def test_train_config_rejects_out_of_range(field, value, message):
    # unchecked, batch_size 0 divides by zero in DataSource.n_batches, warmup
    # -1 shifts the cosine schedule silently, a window below 8 tokens fails
    # only at the first windowed sample, a negative lambda maximizes the
    # contrastive loss, and a negative weight decay grows the weights; a NaN
    # lr, lambda or weight decay turns learnables NaN after one step, and a
    # NaN or negative grad_clip turns clipping off; max_steps below 1 or NaN
    # wrote final.ckpt without a step, and checkpoint_every -1 saved every step;
    # checkpoint_every 0.5 divides every step, and a fractional batch_size or
    # window_len failed only when slicing
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


# -- guard -------------------------------------------------------------------

def kept(average, n=tr.GUARD_WARMUP):
    """A TrainState whose key "k" holds ``n`` kept values averaging ``average``."""
    return tr.TrainState(emas={"k": average * (1.0 - tr.GUARD_EMA_DECAY ** n)},
                         guard_counts={"k": n})


def test_guard_scale_to_ema():
    state = kept(1.0)
    assert abs(guard(state, "k", 5.0) - 0.2) < 1e-15
    assert state.guard_counts == {"k": tr.GUARD_WARMUP + 1}
    # while a key warms up, only a value above factor * slack is a spike
    wide = tr.GUARD_SPIKE_FACTOR * tr.GUARD_WARMUP_SLACK
    assert guard(kept(1.0, n=1), "k", 5.0) == 1.0
    assert abs(guard(kept(1.0, n=1), "k", 2 * wide) - 1 / (2 * wide)) < 1e-15


def test_guard_skips_nan_and_inf():
    for value in (float("nan"), float("inf")):
        state = kept(1.0)
        assert guard(state, "k", value) is None
        # a skipped value leaves the average alone
        assert (state.emas, state.guard_counts) == (kept(1.0).emas,
                                                    kept(1.0).guard_counts)


def test_guard_accepts_mild_increase():
    assert guard(kept(1.0), "k", 1.1) == 1.0


def test_guard_first_batch_accepts():
    state = tr.TrainState()
    assert guard(state, "k", 7.0) == 1.0
    # the EMA starts at 0 and takes (1 - decay) of each kept value
    assert abs(state.emas["k"] - 0.07) < 1e-15
    assert state.guard_counts == {"k": 1}
    assert guard(state, "k", 2.0) == 1.0
    assert abs(state.emas["k"] - (0.99 * 0.07 + 0.02)) < 1e-15


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


@pytest.mark.parametrize("strategy", ["round_robin", "max"])
def test_only_the_min_loader_rule_is_accepted(tmp_path, strategy):
    vocab = build_vocab(["red widget"], max_size=300)
    sources = make_sized_sources(tmp_path, vocab, [1, 1])
    with pytest.raises(ValueError, match="unknown loader strategy"):
        TrainConfig(loader_strategy=strategy)
    with pytest.raises(ValueError, match="unknown loader strategy"):
        CycleLoader(sources, strategy)


def test_min_cycle_has_one_batch_per_source(tmp_path):
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
    # -1 gave a cycle of empty batches, logged as skipped; -3 re-read documents
    (lambda st: st["sources"][0].update(cursor=-1),
     r"cursor -1 of source 'src0' is not a batch index in \[0, 3\]"),
    (lambda st: st["sources"][2].update(cursor=-3), "cursor -3 of source 'src2'"),
    (lambda st: st["sources"][1].update(cursor=4), "cursor 4 of source 'src1'"),
    (lambda st: st["sources"][1].update(cursor=1.0), "cursor 1.0 of source 'src1'"),
    # one document, trained on three times an epoch
    (lambda st: st["sources"][1].update(perm=[0, 0, 0]),
     "perm of source 'src1' is not a permutation of its document indices")],
    ids=["source_count", "perm_length", "cursor_minus_1", "cursor_minus_3",
         "cursor_past_end", "cursor_float", "perm_repeats"])
def test_loader_state_must_fit_sources(tmp_path, change, message):
    vocab = build_vocab(["red widget"], max_size=300)
    sources = make_sized_sources(tmp_path, vocab, [3, 3, 3])
    loader = CycleLoader(sources, "min")
    loader.start_epoch(np.random.default_rng(0))
    st = loader.get_state()
    change(st)
    with pytest.raises(ValueError, match=message):
        CycleLoader(sources, "min").set_state(st)


def test_loader_state_with_rotation_cursor_restores(tmp_path):
    # states saved before the round-robin rule was removed carry "rr_next"
    vocab = build_vocab(["red widget"], max_size=300)
    sources = make_sized_sources(tmp_path, vocab, [3, 3])
    rng = np.random.default_rng(0)
    loader = CycleLoader(sources, "min")
    loader.start_epoch(rng)
    loader.next_cycle(rng)
    st = loader.get_state()
    restored = CycleLoader(make_sized_sources(tmp_path, vocab, [3, 3]), "min")
    restored.set_state({**st, "rr_next": 1})
    assert restored.get_state() == st


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
    # a NaN weight turns every learnable NaN after one step
    for weight in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="source weight must be > 0 and finite"):
            SourceSpec("x", "image_text", weight, [])


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


def test_pair_longer_than_the_context_trains_in_a_window(tiny_setup):
    # a 100-word caption serializes to 103 tokens, past max_seq 64: the pair
    # is cut to the training window, and its caption span clipped to it
    vocab, specs, model, tmp = tiny_setup
    path = str(tmp / "long.jsonl")
    write_pair_shard(path, 2, caption=" ".join(["red widget"] * 50))
    config = cfg(window_len=32, max_steps=2)
    sources = tr.make_sources([SourceSpec("long", "image_text", 1.0, [path])],
                              vocab, config)
    assert len(sources[0]._serialized[0][0]) > model.config.max_seq
    state = tr.init_state(model, seed=0)
    loader = CycleLoader(sources, "min")
    loader.start_epoch(state.rng)
    cycle = loader.next_cycle(state.rng)
    (_, batch), = cycle
    assert len(batch) == 2
    for s in batch:
        assert len(s.token_ids) <= config.window_len
        lo, hi = s.text_span
        assert 0 <= lo < hi == len(s.token_ids)
        assert [s.token_ids[p] for p, _ in s.media_positions] == [VISUAL]
    rows = tr.train_step(model, cycle, state, config)
    assert math.isfinite(rows[0]["lm_loss"]) and math.isfinite(rows[0]["c_loss"])
    assert rows[0]["guard_event"] == "accept"


def test_pair_span_covers_the_caption_tokens_in_the_window(tiny_setup):
    # the caption precedes the media here, so the window's left shift decides
    # how much of it is kept; a window that keeps none gives no span
    vocab, specs, model, tmp = tiny_setup
    caption = vocab.tokenize("red widget")
    doc = Document(segments=[TextSpan(" ".join(["red widget"] * 10)), MediaRef(0),
                             TextSpan("blue gizmo")],
                   media=[MediaItem("image", np.ones((1, 2, 8)))])
    path = str(tmp / "late.jsonl")
    write_shard([doc], path)
    source = DataSource(SourceSpec("late", "image_text", 1.0, [path]), vocab,
                        batch_size=1, window_len=8)
    source.reset_epoch(np.random.default_rng(0))
    spans = set()
    for seed in range(40):
        s = source._make_sample(0, np.random.default_rng(seed))
        assert len(s.token_ids) <= 8
        in_caption = [i for i, t in enumerate(s.token_ids) if t in caption]
        if s.text_span is None:
            assert in_caption == []
        else:
            assert in_caption == list(range(*s.text_span))
        spans.add(s.text_span)
    assert None in spans and len(spans) > 2


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
    # step, so the visual path opens slowly. The cosine's mean over its span
    # is lr_max / 2, so 90 steps at lr_max 6e-3 let tanh(gate) reach about
    # 0.3, enough for the caption to be fitted.
    config = cfg(max_steps=90, warmup_steps=2, lr_max=6e-3,
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


# -- frozen work once --------------------------------------------------------

def whole_and_cut_sources(tmp, vocab, config):
    """A pair source of 4 short documents, each with its own caption and kept
    whole, and one of 4 pairs longer than the window, which are cut."""
    paths = []
    for i, caption in enumerate(("red widget", "blue gizmo", "green lever",
                                 "red gizmo")):
        paths.append(str(tmp / f"short{i}.jsonl"))
        write_pair_shard(paths[-1], 1, seed=i, caption=caption)
    long = str(tmp / "long.jsonl")
    write_pair_shard(long, 4, seed=9, caption=" ".join(["blue lever"] * 12))
    return tr.make_sources([SourceSpec("short", "image_text", 1.0, paths),
                            SourceSpec("long", "video_text", 1.0, [long])],
                           vocab, config)


def run_cycles(model, sources, config, steps):
    """``steps`` train steps over ``sources``; the cycles they ran."""
    state = tr.init_state(model, seed=0)
    loader = CycleLoader(sources, config.loader_strategy)
    loader.start_epoch(state.rng)
    cycles = []
    while len(cycles) < steps:
        cycle = loader.next_cycle(state.rng)
        if cycle is EPOCH_END:
            loader.start_epoch(state.rng)
            continue
        tr.train_step(model, cycle, state, config)
        cycles.append(cycle)
    return cycles


def test_whole_documents_run_their_first_half_once(tiny_setup, monkeypatch):
    vocab, _, model, tmp = tiny_setup
    config = cfg(max_steps=4)
    sources = whole_and_cut_sources(tmp, vocab, config)
    short_rows = [tuple(tokens) for tokens, _, _ in sources[0]._serialized]
    assert len(set(short_rows)) == 4
    assert all(len(tokens) > config.window_len
               for tokens, _, _ in sources[1]._serialized)
    encoded = []
    encode = cm.encode_text_unimodal

    def recording(m, token_ids, *rest):
        encoded.extend(tuple(r) for r in token_ids)
        return encode(m, token_ids, *rest)

    monkeypatch.setattr(cm, "encode_text_unimodal", recording)
    cycles = run_cycles(model, sources, config, steps=4)  # two epochs of 2 batches
    samples = [s for cycle in cycles for _, batch in cycle for s in batch]
    whole = [s for s in samples if s.whole]
    cut = [s for s in samples if not s.whole]
    assert sorted(tuple(s.token_ids) for s in whole) == sorted(short_rows * 2)
    assert len(cut) == 8
    # each whole document once over both epochs, each cut window every time
    assert sorted(r for r in encoded if r in short_rows) == sorted(short_rows)
    assert sorted(r for r in encoded if r not in short_rows) == sorted(
        tuple(s.token_ids) for s in cut)
    assert sorted(model.unimodal_states) == sorted(short_rows)


def test_encode_media_runs_once_per_source_batch(tiny_setup, monkeypatch):
    vocab, _, model, tmp = tiny_setup
    config = cfg(max_steps=2)
    sources = whole_and_cut_sources(tmp, vocab, config)
    items = []
    encode = cm.encode_media

    def recording(m, media_features):
        items.append(len(media_features))
        return encode(m, media_features)

    monkeypatch.setattr(cm, "encode_media", recording)
    cycles = run_cycles(model, sources, config, steps=2)
    assert items == [sum(len(s.media_features) for s in batch)
                     for cycle in cycles for _, batch in cycle]
    assert len(items) == 4 and min(items) > 0


def test_a_full_store_gives_the_bytes_of_an_empty_one(tiny_setup):
    vocab, _, model, tmp = tiny_setup
    config = cfg(max_steps=1)
    sources = whole_and_cut_sources(tmp, vocab, config)
    loader = CycleLoader(sources, "min")
    rng = np.random.default_rng(3)
    loader.start_epoch(rng)
    cycle = loader.next_cycle(rng)
    empty, full = (cm.build(model.config, seed=0) for _ in range(2))
    for _, batch in cycle:
        tr._batch_losses(full, batch, True)
    assert len(full.unimodal_states) == 2 and not empty.unimodal_states
    rows = [tr.train_step(m, cycle, tr.init_state(m, seed=0), config)
            for m in (empty, full)]
    assert json.dumps(rows[0]) == json.dumps(rows[1])
    for name, p in empty.learnable_params.items():
        q = full.learnable_params[name]
        assert p.grad.tobytes() == q.grad.tobytes(), name
        assert p.data.tobytes() == q.data.tobytes(), name
    assert sorted(empty.unimodal_states) == sorted(full.unimodal_states)
    for key, states in empty.unimodal_states.items():
        assert states.tobytes() == full.unimodal_states[key].tobytes()


def test_models_keep_their_own_first_half_states(tiny_setup):
    vocab, _, model, tmp = tiny_setup
    config = cfg(max_steps=4)
    models = [cm.build(model.config, seed=seed) for seed in (0, 1)]
    for m in models:
        run_cycles(m, whole_and_cut_sources(tmp, vocab, config), config, steps=4)
    assert sorted(models[0].unimodal_states) == sorted(models[1].unimodal_states)
    for m, other in (models, models[::-1]):
        for key, states in m.unimodal_states.items():
            own = cm.encode_text_unimodal(m, [list(key)]).data
            assert states.tobytes() == own.tobytes()
            assert states.tobytes() != other.unimodal_states[key].tobytes()


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


@pytest.mark.parametrize("section, key, value, message", [
    ("train", "schedule", "linear", "train config: unknown schedule 'linear'"),
    ("train", "loader_strategy", "round_robin",
     "train config: unknown loader strategy 'round_robin'"),
    ("model", "split_index", 0, "model config: split_index must satisfy")],
    ids=["schedule_linear", "loader_round_robin", "split_index_0"])
def test_checkpoint_refused_config_value_raises_archive_error(
        tiny_setup, tmp_path, section, key, value, message):
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=1)
    tr.train(model, tr.make_sources(specs, vocab, config), config,
             str(tmp / "out"), vocab)
    from cosmo.checkpoint import load_archive, save_archive, ArchiveError
    manifest, arrays = load_archive(str(tmp / "out" / "final.ckpt"))
    configs = {"train": manifest["train"]["config"], "model": manifest["config"]}
    configs[section][key] = value
    bad = str(tmp_path / "bad.ckpt")
    save_archive(bad, manifest, arrays)
    with pytest.raises(ArchiveError, match=message):
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


def test_resume_through_checkpoint_every_matches_uninterrupted(tiny_setup,
                                                              monkeypatch):
    # With warmup_steps=1 the rate of step 2 on depends on max_steps, so the
    # interrupted run and the one it is compared with share one config.
    vocab, specs, model, tmp = tiny_setup
    config = cfg(max_steps=6, warmup_steps=1, checkpoint_every=3)
    tr.train(cm.build(model.config, seed=0), tr.make_sources(specs, vocab, config),
             config, str(tmp / "full"), vocab)

    class Killed(Exception):
        pass

    step = tr.train_step

    def dies_after_four_steps(model, cycle, state, *args):
        if state.step == 4:
            raise Killed
        return step(model, cycle, state, *args)

    monkeypatch.setattr(tr, "train_step", dies_after_four_steps)
    with pytest.raises(Killed):
        tr.train(cm.build(model.config, seed=0),
                 tr.make_sources(specs, vocab, config), config,
                 str(tmp / "resumed"), vocab)
    monkeypatch.undo()
    rows = (tmp / "resumed" / "metrics.ndjson").read_text().splitlines()
    assert json.loads(rows[-1])["step"] == 3  # a row past step3.ckpt
    m2, state2, _, vocab2, loader_state = tr.load_checkpoint(
        str(tmp / "resumed" / "step3.ckpt"))
    tr.train(m2, tr.make_sources(specs, vocab2, config), config,
             str(tmp / "resumed"), vocab2, state=state2, loader_state=loader_state)

    assert ((tmp / "resumed" / "metrics.ndjson").read_bytes()
            == (tmp / "full" / "metrics.ndjson").read_bytes())
    assert ((tmp / "resumed" / "final.ckpt").read_bytes()
            == (tmp / "full" / "final.ckpt").read_bytes())


def test_resume_from_an_earlier_checkpoint_keeps_one_row_per_step(tiny_setup):
    vocab, specs, model, tmp = tiny_setup
    full_cfg = cfg(max_steps=4, checkpoint_every=2)
    tr.train(cm.build(model.config, seed=0), tr.make_sources(specs, vocab, full_cfg),
             full_cfg, str(tmp / "full"), vocab)

    # a run that went past step2.ckpt and died mid-row
    run_cfg = cfg(max_steps=3, checkpoint_every=2)
    tr.train(cm.build(model.config, seed=0), tr.make_sources(specs, vocab, run_cfg),
             run_cfg, str(tmp / "resumed"), vocab)
    with open(tmp / "resumed" / "metrics.ndjson", "a") as f:
        f.write('{"c_loss": 0.5, "gat')
    m2, state2, _, vocab2, loader_state = tr.load_checkpoint(
        str(tmp / "resumed" / "step2.ckpt"))
    tr.train(m2, tr.make_sources(specs, vocab2, full_cfg), full_cfg,
             str(tmp / "resumed"), vocab2, state=state2, loader_state=loader_state)

    assert ((tmp / "resumed" / "metrics.ndjson").read_bytes()
            == (tmp / "full" / "metrics.ndjson").read_bytes())
