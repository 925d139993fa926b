"""Multi-source training loop with accumulation, schedules, and loss guards.

One accumulation cycle visits every data source (one batch each, under the
min/max strategies), weights each source's loss, and applies a single
clipped AdamW update to the learnable parameters. Anomalous batches are
caught by an EMA guard. Non-finite losses are skipped outright. A finite
value above ``GUARD_SPIKE_FACTOR`` times its sub-loss's running average (a
bias-corrected EMA with decay ``GUARD_EMA_DECAY``) is scaled back down to
that average; over a sub-loss's first ``GUARD_WARMUP`` accepted values the
threshold is ``GUARD_WARMUP_SLACK`` times wider.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import autodiff as ad
from . import model as cm
from .autodiff import Tape, Tensor
from .checkpoint import ArchiveError, load_archive, save_archive
from .docs import (MIN_WINDOW, Vocab, loss_mask, read_shard, sample_window,
                   serialize)

PAIRED_TYPES = ("image_text", "video_text")
DATA_TYPES = ("image_text", "video_text", "interleaved_image", "interleaved_video")

EPOCH_END = object()


@dataclass
class SourceSpec:
    name: str
    data_type: str
    weight: float
    shards: list[str]

    def __post_init__(self):
        if self.data_type not in DATA_TYPES:
            raise ValueError(f"unknown data_type {self.data_type!r}")
        if self.weight <= 0:
            raise ValueError(f"source weight must be > 0, got {self.weight}")


@dataclass
class TrainConfig:
    lr_max: float = 5e-4
    schedule: str = "cosine"  # cosine | constant
    warmup_steps: int = 0
    max_steps: int = 1000
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    batch_size: int = 4
    loader_strategy: str = "min"  # round_robin | min | max
    lambda_contrastive: float = 1.0  # against the LM loss, whose weight is 1
    window_len: int = 128
    checkpoint_every: int = 0  # 0: only at the end

    def __post_init__(self):
        if self.lr_max <= 0:
            raise ValueError("lr_max must be > 0")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.window_len < MIN_WINDOW:
            raise ValueError(f"window_len must be >= {MIN_WINDOW}, got {self.window_len}")
        if self.lambda_contrastive < 0:
            raise ValueError(f"lambda_contrastive must be >= 0, got "
                             f"{self.lambda_contrastive}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.schedule not in ("cosine", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.loader_strategy not in ("round_robin", "min", "max"):
            raise ValueError(f"unknown loader strategy {self.loader_strategy!r}")


def lr_at(step: int, config: TrainConfig) -> float:
    """Learning rate at an integer step, per the configured schedule."""
    if step < 0:
        raise ValueError("step must be >= 0")
    step = min(step, config.max_steps)
    w = config.warmup_steps
    if w > 0 and step < w:
        return config.lr_max * step / w
    if config.schedule == "constant":
        return config.lr_max
    p = (step - w) / max(1, config.max_steps - w)
    return config.lr_max * 0.5 * (1.0 + math.cos(math.pi * p))


# ---------------------------------------------------------------------------
# loss guard


@dataclass
class GuardDecision:
    action: str  # accept | scale | skip
    factor: float = 1.0


# The warm-up widening: one batch says little about the spread of the next,
# so ordinary early swings pass while a gross outlier still cannot enter the
# average.
GUARD_EMA_DECAY = 0.99
GUARD_SPIKE_FACTOR = 2.0
GUARD_WARMUP = 3
GUARD_WARMUP_SLACK = 5.0


def guard(loss_value: float, average: float | None,
          warming_up: bool = False) -> GuardDecision:
    """Decide what to do with one sub-loss given its running average (None
    before the first accepted value, when only non-finite values are
    caught). ``warming_up`` widens the spike threshold by
    ``GUARD_WARMUP_SLACK``."""
    if not math.isfinite(loss_value):
        return GuardDecision("skip", 0.0)
    factor = GUARD_SPIKE_FACTOR * (GUARD_WARMUP_SLACK if warming_up else 1.0)
    if average is not None and loss_value > factor * average and loss_value > 0:
        return GuardDecision("scale", average / loss_value)
    return GuardDecision("accept", 1.0)


def update_ema(ema: float, effective: float, decay: float) -> float:
    return decay * ema + (1.0 - decay) * effective


# ---------------------------------------------------------------------------
# data sources


@dataclass
class Sample:
    token_ids: list[int]
    media_features: list[np.ndarray]
    media_positions: list[tuple[int, int]]
    loss_mask: np.ndarray
    text_span: tuple[int, int] | None = None


class DataSource:
    """Shard-backed stream of batches for one data type."""

    def __init__(self, spec: SourceSpec, vocab: Vocab, batch_size: int,
                 window_len: int):
        self.spec = spec
        self.batch_size = batch_size
        self.window_len = window_len
        self.docs = []
        for path in spec.shards:
            self.docs.extend(read_shard(path))
        if not self.docs:
            raise ValueError(f"source {spec.name!r} has no documents")
        self._serialized = [serialize(d, vocab) for d in self.docs]
        self.perm: np.ndarray | None = None
        self.cursor = 0

    @property
    def n_batches(self) -> int:
        return max(1, len(self.docs) // self.batch_size)

    def reset_epoch(self, rng: np.random.Generator) -> None:
        self.perm = rng.permutation(len(self.docs))
        self.cursor = 0

    def exhausted(self) -> bool:
        return self.perm is None or self.cursor >= self.n_batches

    def next_batch(self, rng: np.random.Generator) -> list[Sample]:
        assert not self.exhausted()
        lo = self.cursor * self.batch_size
        idx = self.perm[lo:lo + self.batch_size]
        self.cursor += 1
        batch = []
        for i in idx:
            s = self._make_sample(int(i), rng)
            if s is not None:
                batch.append(s)
        return batch

    def _make_sample(self, i: int, rng: np.random.Generator) -> Sample | None:
        tokens, media_slice, text_slice = self._serialized[i]
        feats = [m.features for m in self.docs[i].media]
        if self.spec.data_type in PAIRED_TYPES:
            span = text_slice[0] if text_slice else None
            if span is not None and span[0] == span[1]:
                # the caption tokenized to nothing: there is no text to embed,
                # so the sample keeps its LM loss and sits out the contrastive one
                span = None
            return Sample(tokens, feats, list(media_slice),
                          loss_mask(tokens, media_slice, 0), text_span=span)
        w = sample_window(tokens, media_slice, self.window_len, rng)
        if len(w.token_ids) < 2 or w.loss_mask[1:].sum() == 0:
            return None
        media_used = sorted({m for _, m in w.media_slice})
        remap = {m: j for j, m in enumerate(media_used)}
        positions = [(p, remap[m]) for p, m in w.media_slice]
        return Sample(w.token_ids, [feats[m] for m in media_used], positions,
                      w.loss_mask)


class CycleLoader:
    """Yields accumulation cycles per the configured sampling strategy."""

    def __init__(self, sources: list[DataSource], strategy: str):
        if not sources:
            raise ValueError("no data sources configured")
        self.sources = sources
        self.strategy = strategy
        self._rr_next = 0

    def start_epoch(self, rng: np.random.Generator) -> None:
        for s in self.sources:
            s.reset_epoch(rng)
        self._rr_next = 0

    def get_state(self) -> dict:
        return {"rr_next": self._rr_next,
                "sources": [{"perm": None if s.perm is None else s.perm.tolist(),
                             "cursor": s.cursor} for s in self.sources]}

    def set_state(self, st: dict) -> None:
        """Restore what ``get_state`` saved, which must fit these sources."""
        n = len(self.sources)
        if len(st["sources"]) != n:
            raise ValueError(f"loader state holds {len(st['sources'])} sources, "
                             f"the loader {n}")
        if not 0 <= st["rr_next"] < n:
            raise ValueError(f"loader state rr_next {st['rr_next']} is out of "
                             f"range for {n} sources")
        for s, ss in zip(self.sources, st["sources"]):
            if ss["perm"] is not None and len(ss["perm"]) != len(s.docs):
                raise ValueError(f"loader state perm of source {s.spec.name!r} has "
                                 f"{len(ss['perm'])} entries, the source "
                                 f"{len(s.docs)} documents")
        self._rr_next = st["rr_next"]
        for s, ss in zip(self.sources, st["sources"]):
            s.perm = None if ss["perm"] is None else np.asarray(ss["perm"])
            s.cursor = ss["cursor"]

    def next_cycle(self, rng: np.random.Generator):
        """A list of (SourceSpec, batch), or EPOCH_END."""
        if self.strategy == "min":
            if any(s.exhausted() for s in self.sources):
                return EPOCH_END
            return [(s.spec, s.next_batch(rng)) for s in self.sources]
        if self.strategy == "max":
            largest = max(self.sources, key=lambda s: s.n_batches)
            if largest.exhausted():
                return EPOCH_END
            out = []
            for s in self.sources:
                if s.exhausted():
                    s.reset_epoch(rng)
                out.append((s.spec, s.next_batch(rng)))
            return out
        # round_robin: drain one source per cycle in fixed rotation
        for _ in range(len(self.sources)):
            s = self.sources[self._rr_next]
            self._rr_next = (self._rr_next + 1) % len(self.sources)
            if not s.exhausted():
                return [(s.spec, s.next_batch(rng))]
        return EPOCH_END


# ---------------------------------------------------------------------------
# optimizer state and the step itself


@dataclass
class TrainState:
    step: int = 0
    opt_steps: int = 0
    param_steps: dict[str, int] = field(default_factory=dict)  # Adam's t per parameter
    emas: dict[str, float] = field(default_factory=dict)  # EMAs started at 0
    guard_counts: dict[str, int] = field(default_factory=dict)  # values in each EMA
    events: list[dict] = field(default_factory=list)
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)


def init_state(model: cm.Model, seed: int) -> TrainState:
    state = TrainState(rng=np.random.default_rng(seed))
    for name, p in model.learnable_params.items():
        state.adam_m[name] = np.zeros_like(p.data)
        state.adam_v[name] = np.zeros_like(p.data)
        state.param_steps[name] = 0
    return state


ADAM_BETAS = (0.9, 0.999)


def _no_decay(name: str) -> bool:
    return "/ln_" in name or name.endswith("gate") or name.endswith("log_scale")


def clip_gradients(model: cm.Model, max_norm: float) -> float:
    """Scale all learnable grads so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in model.learnable_params.values():
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        coef = max_norm / norm
        for p in model.learnable_params.values():
            if p.grad is not None:
                p.grad = p.grad * coef
    return norm


def adamw_update(model: cm.Model, state: TrainState, lr: float,
                 config: TrainConfig) -> None:
    """One AdamW step. A parameter is bias-corrected by its own count of
    updates, so one that sat out some steps resumes with a fresh-sized step."""
    b1, b2 = ADAM_BETAS
    state.opt_steps += 1
    for name, p in model.learnable_params.items():
        g = p.grad
        if g is None:  # untouched this step: no moment update, no decay
            continue
        t = state.param_steps[name] = state.param_steps[name] + 1
        m = state.adam_m[name] = b1 * state.adam_m[name] + (1 - b1) * g
        v = state.adam_v[name] = b2 * state.adam_v[name] + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        update = mhat / (np.sqrt(vhat) + 1e-8)
        if config.weight_decay and not _no_decay(name):
            update = update + config.weight_decay * p.data
        p.data = p.data - lr * update


def _batch_lm_loss(model: cm.Model, batch: list[Sample]) -> Tensor:
    per = []
    for s in batch:
        logits = cm.forward_logits(model, s.token_ids, s.media_features,
                                   s.media_positions)
        per.append(cm.lm_loss(logits, s.token_ids[1:], s.loss_mask[1:]))
    return ad.scale(ad.add_all(per), 1.0 / len(per))


def _batch_contrastive(model: cm.Model, batch: list[Sample]) -> Tensor | None:
    """InfoNCE over the batch's pairs. The pairs' token rows are embedded as
    one right-padded [B, seq] batch, each pooled over its own caption span,
    and their media as one padded media batch."""
    pairs = [s for s in batch if s.text_span is not None and s.media_features]
    if not pairs:
        return None
    th = cm.encode_text_unimodal(model, [s.token_ids for s in pairs])
    vt = cm.encode_media(model, [s.media_features[0] for s in pairs])
    t, v = cm.contrastive_embed(model, th, vt, [s.text_span for s in pairs])
    return cm.contrastive_loss(t, v, cm.logit_scale(model))


def train_step(model: cm.Model, cycle, state: TrainState, config: TrainConfig,
               loss_hook=None) -> list[dict]:
    """Run one accumulation cycle and, if anything was accepted, one update.

    Returns one metrics row per source batch: its losses, the learning rate,
    the guard's verdict, and the step's global gradient norm before clipping
    (``grad_norm``, None when the cycle was skipped). Every row also carries
    the model as the step found it, before the update: ``gates``, tanh(gate)
    of each fusion layer in ``fusion_positions`` order, which shows how much
    visual signal the decoder lets in, and ``logit_scale``, the contrastive
    head's clamped 1/temperature.

    ``loss_hook(step, source_name, kind, loss_tensor) -> loss_tensor`` is a
    fault-injection point used by the stability tests.
    """
    ad.zero_grads(model.learnable_params)
    metrics: list[dict] = []
    lr = lr_at(state.step, config)
    gates = [float(np.tanh(model.param(f"fusion{pos}/gate").data[0]))
             for pos in model.config.fusion_positions()]
    scale = float(cm.logit_scale(model).data[0])
    any_accepted = False
    for spec, batch in cycle:
        if not batch:
            continue
        row = {"step": state.step, "type": spec.name, "lm_loss": None,
               "c_loss": None, "lr": lr, "guard_event": None, "grad_norm": None,
               "gates": list(gates), "logit_scale": scale}
        with Tape() as tape:
            parts = []
            events = []
            sub = [("lm", 1.0, _batch_lm_loss(model, batch))]
            if config.lambda_contrastive:
                c = _batch_contrastive(model, batch)
                if c is not None:
                    sub.append(("contrastive", config.lambda_contrastive, c))
            for kind, lam, loss in sub:
                if loss_hook is not None:
                    loss = loss_hook(state.step, spec.name, kind, loss)
                value = float(loss.data)
                key = f"{spec.data_type}/{kind}"
                n = state.guard_counts.get(key, 0)
                # the bias-corrected EMA, as Adam corrects its moments
                average = (state.emas[key] / (1.0 - GUARD_EMA_DECAY ** n)
                           if n else None)
                decision = guard(value, average, warming_up=n < GUARD_WARMUP)
                events.append(decision.action)
                row["lm_loss" if kind == "lm" else "c_loss"] = value
                if decision.action == "skip":
                    state.events.append({"step": state.step, "type": spec.name,
                                         "kind": kind, "event": "skip"})
                    continue
                effective = value * decision.factor
                if decision.action == "scale":
                    loss = ad.scale(loss, decision.factor)
                    state.events.append({"step": state.step, "type": spec.name,
                                         "kind": kind, "event": "scale",
                                         "factor": decision.factor})
                state.emas[key] = update_ema(state.emas.get(key, 0.0), effective,
                                             GUARD_EMA_DECAY)
                state.guard_counts[key] = n + 1
                parts.append(ad.scale(loss, lam))
            if parts:
                ad.backward(ad.scale(ad.add_all(parts), spec.weight), tape)
                any_accepted = True
        row["guard_event"] = ("skip" if all(e == "skip" for e in events)
                              else ("scale" if "scale" in events else "accept"))
        metrics.append(row)
    if any_accepted:
        norm = clip_gradients(model, config.grad_clip)
        for row in metrics:
            row["grad_norm"] = norm
        adamw_update(model, state, lr, config)
    else:
        state.events.append({"step": state.step, "event": "cycle_skipped"})
    state.step += 1
    return metrics


# ---------------------------------------------------------------------------
# the loop, checkpointing, resume


def make_sources(specs: list[SourceSpec], vocab: Vocab,
                 config: TrainConfig) -> list[DataSource]:
    return [DataSource(s, vocab, config.batch_size, config.window_len)
            for s in specs]


def train(model: cm.Model, sources: list[DataSource], config: TrainConfig,
          out_dir: str, vocab: Vocab, state: TrainState | None = None,
          loader_state: dict | None = None, loss_hook=None) -> TrainState:
    """Train until max_steps; writes an ndjson metric stream and checkpoints."""
    os.makedirs(out_dir, exist_ok=True)
    if state is None:
        state = init_state(model, model.seed)
    loader = CycleLoader(sources, config.loader_strategy)
    if loader_state is not None:
        loader.set_state(loader_state)
    else:
        loader.start_epoch(state.rng)
    mode = "a" if state.step > 0 else "w"
    with open(os.path.join(out_dir, "metrics.ndjson"), mode) as mf:
        while state.step < config.max_steps:
            cycle = loader.next_cycle(state.rng)
            if cycle is EPOCH_END:
                loader.start_epoch(state.rng)
                continue
            for row in train_step(model, cycle, state, config, loss_hook):
                mf.write(json.dumps(row, sort_keys=True) + "\n")
            if config.checkpoint_every and state.step % config.checkpoint_every == 0:
                save_checkpoint(os.path.join(out_dir, f"step{state.step}.ckpt"),
                                model, state, config, vocab, loader.get_state())
    save_checkpoint(os.path.join(out_dir, "final.ckpt"), model, state, config,
                    vocab, loader.get_state())
    return state


def save_checkpoint(path: str, model: cm.Model, state: TrainState,
                    config: TrainConfig, vocab: Vocab,
                    loader_state: dict | None = None) -> None:
    arrays: dict[str, np.ndarray] = {}
    for name, p in model.frozen_params.items():
        arrays[name] = p.data
    for name, p in model.learnable_params.items():
        arrays[name] = p.data
    for name, m in state.adam_m.items():
        arrays["optim/m/" + name] = m
    for name, v in state.adam_v.items():
        arrays["optim/v/" + name] = v
    manifest = {
        "config": model.config.to_dict(),
        "seed": model.seed,
        "step": state.step,
        "train": {
            "config": asdict(config),
            "opt_steps": state.opt_steps,
            "param_steps": state.param_steps,
            "emas": state.emas,
            "guard_counts": state.guard_counts,
            "events": state.events,
            "rng_state": state.rng.bit_generator.state,
            "loader": loader_state,
        },
        "vocab": vocab.to_dict(),
    }
    save_archive(path, manifest, arrays)


def _require(d: dict, keys: list[str] | tuple[str, ...], what: str) -> None:
    """Raise ``ArchiveError`` naming the first of ``keys`` that ``d`` lacks."""
    for key in keys:
        if key not in d:
            raise ArchiveError(f"{what} lacks field {key!r}")


def _check_fields(cls, d: dict, what: str) -> None:
    """Raise ``ArchiveError`` naming a field of ``d`` that the dataclass
    ``cls`` lacks, or one of ``cls`` that ``d`` lacks: such a checkpoint was
    written by another version of the config."""
    names = sorted(f.name for f in fields(cls))
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise ArchiveError(f"{what} has unknown field {unknown[0]!r}")
    _require(d, names, what)


def _array(arrays: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """The checkpoint's array ``name``, which must have the model's ``shape``."""
    if name not in arrays:
        raise ArchiveError(f"checkpoint missing array {name}")
    if arrays[name].shape != shape:
        raise ArchiveError(f"shape mismatch for {name}: checkpoint "
                           f"{arrays[name].shape} vs model {shape}")
    return arrays[name]


def load_checkpoint(path: str) -> tuple[cm.Model, TrainState, TrainConfig,
                                        Vocab, dict | None]:
    manifest, arrays = load_archive(path)
    _require(manifest, ("config", "seed", "step", "train", "vocab"), "manifest")
    tr = manifest["train"]
    _require(tr, ("config", "opt_steps", "param_steps", "emas", "guard_counts",
                  "events", "rng_state"), "manifest 'train'")
    _check_fields(cm.ModelConfig, manifest["config"], "model config")
    _check_fields(TrainConfig, tr["config"], "train config")
    config = cm.ModelConfig(**manifest["config"])
    model = cm.build(config, seed=manifest["seed"])
    for name, p in list(model.frozen_params.items()) + \
            list(model.learnable_params.items()):
        p.data = _array(arrays, name, p.shape)
    state = TrainState(step=manifest["step"], opt_steps=tr["opt_steps"],
                       param_steps=dict(tr["param_steps"]),
                       emas=dict(tr["emas"]), guard_counts=dict(tr["guard_counts"]),
                       events=list(tr["events"]))
    rng = np.random.default_rng(0)
    rng.bit_generator.state = tr["rng_state"]
    state.rng = rng
    for name, p in model.learnable_params.items():
        state.adam_m[name] = _array(arrays, "optim/m/" + name, p.shape)
        state.adam_v[name] = _array(arrays, "optim/v/" + name, p.shape)
    train_config = TrainConfig(**tr["config"])
    vocab = Vocab.from_dict(manifest["vocab"])
    return model, state, train_config, vocab, tr.get("loader")
