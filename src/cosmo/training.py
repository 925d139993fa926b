"""Multi-source training loop with accumulation, a schedule, and loss guards.

Every document, pairs included, is cut by ``sample_window``, so
``window_len`` bounds every sample. One accumulation cycle takes one batch
from every data source, weights each source's loss, and applies a single
clipped AdamW update to the learnable parameters; the epoch ends with the
shortest source. The learning rate warms up linearly, then follows a cosine.
``guard`` judges each sub-loss against its running average (a bias-corrected
EMA, decay ``GUARD_EMA_DECAY``): it skips a non-finite value and scales one
above ``GUARD_SPIKE_FACTOR`` times the average back down to it, with a
threshold ``GUARD_WARMUP_SLACK`` times wider over the first ``GUARD_WARMUP``.

A source batch encodes each frozen input once for both losses, as CoCa (Yu
et al. 2022, arXiv 2205.01917) runs its text encoder once. All the batch's
media go through one ``encode_media`` call, whose rows feed each sample's
fusion half and the media tower. Each sample's first-half states feed its
fusion half and the text tower. The batch's cut windows, whose states change
with the cut, are encoded anew each time in one right-padded
``encode_text_unimodal`` pass. A sample that is its whole document keeps its
states in ``Model.unimodal_states``, so later epochs reuse them. A kept row
and a fresh one still come from the same one-row pass, so they are the same
bytes and resume stays bit-identical; a window's row from the padded pass may
differ from a one-row pass in the last bit, as BLAS blocks a batch otherwise.
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
from .docs import MIN_WINDOW, Vocab, read_shard, sample_window, serialize

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
        if not 0 < self.weight < math.inf:
            raise ValueError(f"source weight must be > 0 and finite, got {self.weight}")


@dataclass
class TrainConfig:
    lr_max: float = 5e-4
    schedule: str = "cosine"  # the only schedule; kept while perfbench passes it
    warmup_steps: int = 0
    max_steps: int = 1000
    weight_decay: float = 0.1
    grad_clip: float = 1.0
    batch_size: int = 4
    loader_strategy: str = "min"  # the only loader rule; kept while perfbench passes it
    lambda_contrastive: float = 1.0  # against the LM loss, whose weight is 1
    window_len: int = 128
    checkpoint_every: int = 0  # 0: only at the end

    def __post_init__(self):
        # chained comparisons, so that NaN fails them too
        if not 0 < self.lr_max < math.inf:
            raise ValueError(f"lr_max must be > 0 and finite, got {self.lr_max}")
        if not 1 <= self.max_steps < math.inf:
            raise ValueError(f"max_steps must be >= 1 and finite, got {self.max_steps}")
        if not 0 <= self.checkpoint_every < math.inf:
            raise ValueError(f"checkpoint_every must be >= 0 and finite, got "
                             f"{self.checkpoint_every}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.window_len < MIN_WINDOW:
            raise ValueError(f"window_len must be >= {MIN_WINDOW}, got {self.window_len}")
        for name in ("warmup_steps", "max_steps", "batch_size", "window_len",
                     "checkpoint_every"):
            if type(getattr(self, name)) is not int:  # bool and float are not counts
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in ("lambda_contrastive", "weight_decay", "grad_clip"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be >= 0 and finite, got "
                                 f"{getattr(self, name)}")
        if self.schedule != "cosine":
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.loader_strategy != "min":
            raise ValueError(f"unknown loader strategy {self.loader_strategy!r}")


def lr_at(step: int, config: TrainConfig) -> float:
    """Learning rate at an integer step: linear warm-up, then a cosine to 0."""
    if step < 0:
        raise ValueError("step must be >= 0")
    step = min(step, config.max_steps)
    w = config.warmup_steps
    if w > 0 and step < w:
        return config.lr_max * step / w
    p = (step - w) / max(1, config.max_steps - w)
    return config.lr_max * 0.5 * (1.0 + math.cos(math.pi * p))


# ---------------------------------------------------------------------------
# loss guard


# The warm-up widening: one batch says little about the spread of the next,
# so ordinary early swings pass while a gross outlier still cannot enter the
# average.
GUARD_EMA_DECAY = 0.99
GUARD_SPIKE_FACTOR = 2.0
GUARD_WARMUP = 3
GUARD_WARMUP_SLACK = 5.0


def guard(state: TrainState, key: str, value: float) -> float | None:
    """The factor sub-loss ``key`` enters with at ``value``: None (skip) if
    it is not finite, ``average / value`` for a spike, else 1.0. A kept value
    enters ``state``'s average for ``key`` at its guarded size."""
    if not math.isfinite(value):
        return None
    n = state.guard_counts.get(key, 0)
    factor = 1.0
    if n:  # before the first kept value there is no average to judge by
        # the bias-corrected EMA, as Adam corrects its moments
        average = state.emas[key] / (1.0 - GUARD_EMA_DECAY ** n)
        slack = GUARD_WARMUP_SLACK if n < GUARD_WARMUP else 1.0
        if value > GUARD_SPIKE_FACTOR * slack * average and value > 0:
            factor = average / value
    state.emas[key] = (GUARD_EMA_DECAY * state.emas.get(key, 0.0)
                       + (1.0 - GUARD_EMA_DECAY) * (value * factor))
    state.guard_counts[key] = n + 1
    return factor


# ---------------------------------------------------------------------------
# data sources


@dataclass
class Sample:
    token_ids: list[int]
    media_features: list[np.ndarray]
    media_positions: list[tuple[int, int]]
    loss_mask: np.ndarray
    text_span: tuple[int, int] | None = None
    whole: bool = False  # the window is the whole document


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
        w = sample_window(tokens, media_slice, self.window_len, rng)
        if len(w.token_ids) < 2 or w.loss_mask[1:].sum() == 0:
            return None
        span = None
        if self.spec.data_type in PAIRED_TYPES and text_slice:
            # the caption in window coordinates; with no caption tokens in the
            # window the sample keeps its LM loss and sits out the contrastive one
            lo, hi = (min(max(p - w.start, 0), len(w.token_ids))
                      for p in text_slice[0])
            span = (lo, hi) if lo < hi else None
        media_used = sorted({m for _, m in w.media_slice})
        remap = {m: j for j, m in enumerate(media_used)}
        return Sample(w.token_ids, [self.docs[i].media[m].features for m in media_used],
                      [(p, remap[m]) for p, m in w.media_slice], w.loss_mask, span,
                      whole=len(w.token_ids) == len(tokens))


class CycleLoader:
    """Cycles of one batch per source until any source runs out: rule "min"."""

    def __init__(self, sources: list[DataSource], strategy: str):
        if not sources:
            raise ValueError("no data sources configured")
        if strategy != "min":
            raise ValueError(f"unknown loader strategy {strategy!r}")
        self.sources = sources

    def start_epoch(self, rng: np.random.Generator) -> None:
        for s in self.sources:
            s.reset_epoch(rng)

    def get_state(self) -> dict:
        return {"sources": [{"perm": None if s.perm is None else s.perm.tolist(),
                             "cursor": s.cursor} for s in self.sources]}

    def set_state(self, st: dict) -> None:
        """Restore what ``get_state`` saved, which must fit these sources. Other
        keys, such as an older state's rotation cursor, are ignored."""
        n = len(self.sources)
        if len(st["sources"]) != n:
            raise ValueError(f"loader state holds {len(st['sources'])} sources, "
                             f"the loader {n}")
        for s, ss in zip(self.sources, st["sources"]):
            name, cursor, perm = s.spec.name, ss["cursor"], ss["perm"]
            if type(cursor) is not int or not 0 <= cursor <= s.n_batches:
                raise ValueError(f"loader state cursor {cursor!r} of source {name!r} "
                                 f"is not a batch index in [0, {s.n_batches}]")
            if perm is not None and len(perm) != len(s.docs):
                raise ValueError(f"loader state perm of source {name!r} has "
                                 f"{len(perm)} entries, the source "
                                 f"{len(s.docs)} documents")
            if perm is not None and sorted(perm) != list(range(len(s.docs))):
                raise ValueError(f"loader state perm of source {name!r} is not a "
                                 f"permutation of its document indices")
        for s, ss in zip(self.sources, st["sources"]):
            s.perm = None if ss["perm"] is None else np.asarray(ss["perm"])
            s.cursor = ss["cursor"]

    def next_cycle(self, rng: np.random.Generator):
        """A list of (SourceSpec, batch), one per source, or EPOCH_END."""
        if any(s.exhausted() for s in self.sources):
            return EPOCH_END
        return [(s.spec, s.next_batch(rng)) for s in self.sources]


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
    updates, so one that sat out some steps resumes with a fresh-sized step.

    The step runs once over the parameters with a gradient, laid end to end
    in one vector, with each element's bias corrections and decay repeated
    from its parameter. Elementwise it is the per-parameter formula, so the
    values are the same; parameters and moments are rebound to views of the
    fresh vectors, never written in place."""
    b1, b2 = ADAM_BETAS
    state.opt_steps += 1
    live = [(name, p) for name, p in model.learnable_params.items()
            if p.grad is not None]  # an untouched one: no moment update, no decay
    if not live:
        return
    steps = []
    for name, _ in live:
        steps.append(state.param_steps[name] + 1)
        state.param_steps[name] = steps[-1]
    sizes = [p.data.size for _, p in live]
    g, m, v, data = (np.concatenate([a.ravel() for a in arrays]) for arrays in (
        [p.grad for _, p in live], [state.adam_m[n] for n, _ in live],
        [state.adam_v[n] for n, _ in live], [p.data for _, p in live]))
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mhat = m / np.repeat([1 - b1 ** t for t in steps], sizes)
    vhat = v / np.repeat([1 - b2 ** t for t in steps], sizes)
    update = mhat / (np.sqrt(vhat) + 1e-8)
    if config.weight_decay:
        decays = np.repeat([not _no_decay(n) for n, _ in live], sizes)
        update = np.where(decays, update + config.weight_decay * data, update)
    data = data - lr * update
    offsets = np.cumsum([0] + sizes)
    for (name, p), lo, hi in zip(live, offsets, offsets[1:]):
        shape = p.data.shape
        state.adam_m[name] = m[lo:hi].reshape(shape)
        state.adam_v[name] = v[lo:hi].reshape(shape)
        p.data = data[lo:hi].reshape(shape)


def _text_states(model: cm.Model, batch: list[Sample]) -> list[Tensor]:
    """First-half states [1, seq, d] of each sample of ``batch``. The cut
    windows come from one right-padded ``encode_text_unimodal`` pass, each
    row cut back to its length. A whole document comes from a one-row pass,
    kept in ``model.unimodal_states`` and read back from there on later
    visits."""
    cut = [s.token_ids for s in batch if not s.whole]
    fresh = cm.encode_text_unimodal(model, cut) if cut else None
    states, row = [], 0
    for s in batch:
        if not s.whole:
            states.append(fresh[row:row + 1, :len(s.token_ids)])
            row += 1
            continue
        key = tuple(s.token_ids)
        kept = model.unimodal_states.get(key)
        if kept is None:
            kept = cm.encode_text_unimodal(model, [s.token_ids]).data
            kept.flags.writeable = False
            model.unimodal_states[key] = kept
        states.append(Tensor(kept))
    return states


def _batch_losses(model: cm.Model, batch: list[Sample], contrastive: bool
                  ) -> tuple[Tensor, Tensor | None]:
    """The batch's LM loss, the mean over its samples, and, if
    ``contrastive``, the InfoNCE over its pairs (None without a pair).

    Both losses read one encoding of each input: the samples' first-half
    states (``_text_states``) and one ``encode_media`` call over all the
    batch's media. The text tower pads the pairs' states into one [P, W, d]
    batch, each row pooled over its own caption span; the media tower reads
    each pair's first media item."""
    states = _text_states(model, batch)
    media = cm.encode_media(model, [f for s in batch for f in s.media_features])
    first = np.cumsum([0] + [len(s.media_features) for s in batch])
    per = []
    for s, th, lo in zip(batch, states, first):
        visual = media[lo:lo + len(s.media_features)] if s.media_features else None
        logits = cm.forward_logits(model, s.token_ids, s.media_features,
                                   s.media_positions, th, visual)
        per.append(cm.lm_loss(logits, s.token_ids[1:], s.loss_mask[1:]))
    lm = ad.scale(ad.add_all(per), 1.0 / len(per))
    pairs = [i for i, s in enumerate(batch)
             if s.text_span is not None and s.media_features]
    if not contrastive or not pairs:
        return lm, None
    padded = np.zeros((len(pairs), max(states[i].shape[1] for i in pairs),
                       model.config.d_model))
    for row, i in zip(padded, pairs):
        row[:states[i].shape[1]] = states[i].data[0]
    t, v = cm.contrastive_embed(model, Tensor(padded), media[first[pairs]],
                                [batch[i].text_span for i in pairs])
    return lm, cm.contrastive_loss(t, v, cm.logit_scale(model))


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
            scaled = False
            lm, c = _batch_losses(model, batch, bool(config.lambda_contrastive))
            sub = [("lm", 1.0, lm)]
            if c is not None:
                sub.append(("contrastive", config.lambda_contrastive, c))
            for kind, lam, loss in sub:
                if loss_hook is not None:
                    loss = loss_hook(state.step, spec.name, kind, loss)
                value = float(loss.data)
                row["lm_loss" if kind == "lm" else "c_loss"] = value
                factor = guard(state, f"{spec.data_type}/{kind}", value)
                if factor is None:
                    state.events.append({"step": state.step, "type": spec.name,
                                         "kind": kind, "event": "skip"})
                    continue
                if factor != 1.0:
                    loss = ad.scale(loss, factor)
                    scaled = True
                    state.events.append({"step": state.step, "type": spec.name,
                                         "kind": kind, "event": "scale",
                                         "factor": factor})
                parts.append(ad.scale(loss, lam))
            if parts:
                ad.backward(ad.scale(ad.add_all(parts), spec.weight), tape)
                any_accepted = True
        row["guard_event"] = "scale" if scaled else "accept" if parts else "skip"
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
    """Train until max_steps; writes an ndjson metric stream and checkpoints.
    The stream drops its rows from ``state.step`` on, which a run past the
    resumed checkpoint wrote, and reaches the disk before each save."""
    os.makedirs(out_dir, exist_ok=True)
    if state is None:
        state = init_state(model, model.seed)
    loader = CycleLoader(sources, config.loader_strategy)
    if loader_state is not None:
        loader.set_state(loader_state)
    else:
        loader.start_epoch(state.rng)
    with open(os.path.join(out_dir, "metrics.ndjson"), "a+") as mf:
        mf.seek(0)
        end = 0
        for line in iter(mf.readline, ""):  # rows are in step order
            if not line.endswith("\n") or json.loads(line)["step"] >= state.step:
                break  # a torn last row goes too
            end = mf.tell()
        mf.truncate(end)

        def checkpoint(name: str) -> None:
            mf.flush()
            os.fsync(mf.fileno())
            save_checkpoint(os.path.join(out_dir, name), model, state, config,
                            vocab, loader.get_state())
        while state.step < config.max_steps:
            cycle = loader.next_cycle(state.rng)
            if cycle is EPOCH_END:
                loader.start_epoch(state.rng)
                continue
            for row in train_step(model, cycle, state, config, loss_hook):
                mf.write(json.dumps(row, sort_keys=True) + "\n")
            if config.checkpoint_every and state.step % config.checkpoint_every == 0:
                checkpoint(f"step{state.step}.ckpt")
        checkpoint("final.ckpt")
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
    try:  # a value this version refuses
        model = cm.build(cm.ModelConfig(**manifest["config"]), seed=manifest["seed"])
    except (TypeError, ValueError) as e:
        raise ArchiveError(f"model config: {e}") from e
    try:
        train_config = TrainConfig(**tr["config"])
    except (TypeError, ValueError) as e:
        raise ArchiveError(f"train config: {e}") from e
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
    vocab = Vocab.from_dict(manifest["vocab"])
    return model, state, train_config, vocab, tr.get("loader")
