"""Multi-source training loop with accumulation, schedules, and loss guards.

One accumulation cycle visits every data source (one batch each, under the
min/max strategies), weights each source's loss, and applies a single
clipped AdamW update to the learnable parameters. Anomalous batches are
caught by an EMA guard: non-finite losses are skipped outright, finite
spikes are scaled back down to the running average once that average has
seen a few accepted values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import model as cm
from .autodiff import Tape, Tensor
from .checkpoint import ArchiveError, load_archive, save_archive
from .docs import Vocab, loss_mask, read_shard, sample_window, serialize

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
class GuardConfig:
    ema_decay: float = 0.99
    spike_factor: float = 2.0

    def __post_init__(self):
        if self.spike_factor <= 1:
            raise ValueError("spike_factor must be > 1")


@dataclass
class TrainConfig:
    lr_max: float = 5e-4
    schedule: str = "cosine"  # cosine | constant
    warmup_steps: int = 0
    max_steps: int = 1000
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    batch_size: int = 4
    loader_strategy: str = "min"  # round_robin | min | max
    lambda_lm: float = 1.0
    lambda_contrastive: float = 1.0
    window_len: int = 128
    contrastive_shards: int = 1
    guard: GuardConfig = field(default_factory=GuardConfig)
    checkpoint_every: int = 0  # 0: only at the end

    def __post_init__(self):
        if isinstance(self.guard, dict):
            self.guard = GuardConfig(**self.guard)
        self.betas = tuple(self.betas)
        if self.lr_max <= 0:
            raise ValueError("lr_max must be > 0")
        if self.schedule not in ("cosine", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.loader_strategy not in ("round_robin", "min", "max"):
            raise ValueError(f"unknown loader strategy {self.loader_strategy!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["betas"] = list(self.betas)
        return d


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


# Accepted values a sub-loss needs before its running average judges spikes
# with ``GuardConfig.spike_factor``: one batch says little about the spread of
# the next. Until then a value counts as a spike only above
# ``spike_factor * GUARD_WARMUP_SLACK`` times the average, so ordinary early
# swings pass while a gross outlier still cannot enter the average.
GUARD_WARMUP = 3
GUARD_WARMUP_SLACK = 5.0


def guard(loss_value: float, average: float | None, config: GuardConfig,
          warming_up: bool = False) -> GuardDecision:
    """Decide what to do with one sub-loss given its running average (None
    before the first accepted value, when only non-finite values are
    caught). ``warming_up`` widens the spike threshold by
    ``GUARD_WARMUP_SLACK``."""
    if not math.isfinite(loss_value):
        return GuardDecision("skip", 0.0)
    factor = config.spike_factor * (GUARD_WARMUP_SLACK if warming_up else 1.0)
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
            return Sample(tokens, feats, list(media_slice),
                          loss_mask(tokens, media_slice, 0),
                          text_span=text_slice[0] if text_slice else None)
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
    b1, b2 = config.betas
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
        per.append(cm.lm_loss(logits[0:len(s.token_ids) - 1, :],
                              s.token_ids[1:], s.loss_mask[1:]))
    return ad.scale(ad.add_all(per), 1.0 / len(per))


def _batch_contrastive(model: cm.Model, batch: list[Sample],
                       config: TrainConfig) -> Tensor | None:
    ts, vs = [], []
    for s in batch:
        if s.text_span is None or not s.media_features:
            continue
        th = cm.encode_text_unimodal(model, s.token_ids)
        vt = cm.encode_media(model, [s.media_features[0]])
        t, v = cm.contrastive_embed(model, th, vt, text_span=s.text_span)
        ts.append(t)
        vs.append(v)
    if not ts:
        return None
    t_emb = ts[0] if len(ts) == 1 else ad.concat(ts, axis=0)
    v_emb = vs[0] if len(vs) == 1 else ad.concat(vs, axis=0)
    return cm.contrastive_loss(t_emb, v_emb, cm.logit_scale(model),
                               n_shards=config.contrastive_shards)


def train_step(model: cm.Model, cycle, state: TrainState, config: TrainConfig,
               loss_hook=None) -> list[dict]:
    """Run one accumulation cycle and, if anything was accepted, one update.

    ``loss_hook(step, source_name, kind, loss_tensor) -> loss_tensor`` is a
    fault-injection point used by the stability tests.
    """
    ad.zero_grads(model.learnable_params)
    metrics: list[dict] = []
    lr = lr_at(state.step, config)
    any_accepted = False
    for spec, batch in cycle:
        if not batch:
            continue
        row = {"step": state.step, "type": spec.name, "lm_loss": None,
               "c_loss": None, "lr": lr, "guard_event": None}
        with Tape() as tape:
            parts = []
            events = []
            sub = [("lm", config.lambda_lm, _batch_lm_loss(model, batch))]
            if config.lambda_contrastive:
                c = _batch_contrastive(model, batch, config)
                if c is not None:
                    sub.append(("contrastive", config.lambda_contrastive, c))
            for kind, lam, loss in sub:
                if loss_hook is not None:
                    loss = loss_hook(state.step, spec.name, kind, loss)
                value = float(loss.data)
                key = f"{spec.data_type}/{kind}"
                n = state.guard_counts.get(key, 0)
                # the bias-corrected EMA, as Adam corrects its moments
                average = (state.emas[key] / (1.0 - config.guard.ema_decay ** n)
                           if n else None)
                decision = guard(value, average, config.guard,
                                 warming_up=n < GUARD_WARMUP)
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
                                             config.guard.ema_decay)
                state.guard_counts[key] = n + 1
                parts.append(ad.scale(loss, lam))
            if parts:
                ad.backward(ad.scale(ad.add_all(parts), spec.weight), tape)
                any_accepted = True
        row["guard_event"] = ("skip" if all(e == "skip" for e in events)
                              else ("scale" if "scale" in events else "accept"))
        metrics.append(row)
    if any_accepted:
        clip_gradients(model, config.grad_clip)
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
          loader_state: dict | None = None, loss_hook=None,
          metrics_name: str = "metrics.ndjson") -> TrainState:
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
    with open(os.path.join(out_dir, metrics_name), mode) as mf:
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
            "config": config.to_dict(),
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


def load_checkpoint(path: str) -> tuple[cm.Model, TrainState, TrainConfig,
                                        Vocab, dict | None]:
    manifest, arrays = load_archive(path)
    config = cm.ModelConfig.from_dict(manifest["config"])
    model = cm.build(config, seed=manifest["seed"])
    for name, p in list(model.frozen_params.items()) + \
            list(model.learnable_params.items()):
        if name not in arrays:
            raise ArchiveError(f"checkpoint missing parameter {name}")
        if arrays[name].shape != p.shape:
            raise ArchiveError(
                f"shape mismatch for {name}: checkpoint {arrays[name].shape} "
                f"vs model {p.shape}")
        p.data = arrays[name]
    tr = manifest["train"]
    state = TrainState(step=manifest["step"], opt_steps=tr["opt_steps"],
                       param_steps=dict(tr["param_steps"]),
                       emas=dict(tr["emas"]), guard_counts=dict(tr["guard_counts"]),
                       events=list(tr["events"]))
    rng = np.random.default_rng(0)
    rng.bit_generator.state = tr["rng_state"]
    state.rng = rng
    for name in model.learnable_params:
        state.adam_m[name] = arrays["optim/m/" + name]
        state.adam_v[name] = arrays["optim/v/" + name]
    train_config = TrainConfig(**tr["config"])
    vocab = Vocab.from_dict(manifest["vocab"])
    return model, state, train_config, vocab, tr.get("loader")
