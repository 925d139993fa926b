"""The three benchmark workloads and the timed loop they share.

A workload is run as: generate inputs (untimed), set up several times
(``setup_s`` is the median), one warm-up round, then whole rounds of units
until ``seconds`` have passed, then the output checks. With tracing on, every
second unit runs with the tracer installed; the per-layer metrics come from
those units and the others give the untraced figures the overhead is taken
against.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from cosmo import docs, interleave, interlink, select, synthetic, training
from cosmo import model as cm

from . import checks, inputs, reference
from .metrics import PER_LAYER
from .tracing import Tracer

SETUP_REPEATS = 9
MIN_ROUNDS = 2  # measured rounds, whatever the time limit
LOADER_SEED = 1234  # fixes batch order and window cuts, so step sizes repeat


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


@dataclass
class UnitRecord:
    index: int
    round: int
    seconds: float
    traced: bool
    info: dict


def _median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def _quartiles(xs) -> list[float]:
    xs = list(xs)
    if len(xs) < 2:
        return [_median(xs)] * 3
    return [float(q) for q in statistics.quantiles(xs, n=4)]


class Workload:
    """Subclasses fill in inputs, set-up, one unit, the round end and checks."""

    name = ""
    units_per_round = 1
    per_unit_divisor = 1  # unit_ms_p50 is per unit / this (episodes per block)

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def generate(self) -> None: ...

    def setup(self) -> None: ...

    def unit(self, i: int) -> dict: ...

    def end_round(self, r: int) -> None: ...

    def check(self) -> list[str]: ...

    def failed_units(self) -> int:
        return 0

    def per_layer(self, traced: list[UnitRecord], first: list[UnitRecord],
                  plain: list[UnitRecord], spans: dict, tracer: Tracer) -> dict:
        """Per-layer metric values by name, from the traced units (``first``:
        those of the first measured round, for counts) and the untraced ones
        (``plain``)."""


def run(w: Workload, seconds: float, trace: bool) -> Outcome:
    tracer = Tracer() if trace else None
    w.generate()

    setups = []
    for _ in range(SETUP_REPEATS):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()

    units: list[UnitRecord] = []
    rounds: list[tuple[float, float]] = []  # (seconds, items) per round
    i = r = 0
    clock = None
    while True:
        if r == 1:
            clock = time.perf_counter()  # round 0 is warm-up
        t_round = time.perf_counter()
        items = 0.0
        for _ in range(w.units_per_round):
            traced = bool(tracer) and i % 2 == 1
            if traced:
                tracer.install()
                tracer.start_unit(i)
            t0 = time.perf_counter()
            info = w.unit(i)
            dt = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            units.append(UnitRecord(i, r, dt, traced, info))
            items += info["items"]
            i += 1
        if tracer:
            tracer.install()
            tracer.start_unit(f"round{r}")
        w.end_round(r)
        if tracer:
            tracer.uninstall()
        rounds.append((time.perf_counter() - t_round, items))
        r += 1
        if r > MIN_ROUNDS and time.perf_counter() - clock >= seconds:
            break

    out = Outcome(attempted=len(units), failed=w.failed_units())
    out.failures = w.check()
    measured = [u for u in units if u.round >= 1]
    plain = [u for u in measured if not u.traced]
    unit_ms = [1e3 * u.seconds / w.per_unit_divisor for u in plain]
    out.detail = {
        "units": len(units), "rounds": r, "measured_seconds":
            round(time.perf_counter() - clock, 3),
        "setup_s_all": setups,
        "unit_ms_quartiles": _quartiles(unit_ms), "unit_ms_n": len(unit_ms),
        "round_items": rounds[0][1], "unit_ms_all": [round(x, 3) for x in unit_ms],
    }
    if tracer is None:
        out.metrics = {
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "unit_ms_p50": (_median(unit_ms), "ms"),
            "items_per_s": (_median(items / s for s, items in rounds[1:]), "1/s"),
        }
    else:
        spans = tracer.per_unit()
        traced = [u for u in measured if u.traced]
        first = [u for u in traced if u.round == 1]
        overhead = 100.0 * (_median(u.seconds for u in traced)
                            / _median(u.seconds for u in plain) - 1.0)
        layer = w.per_layer(traced, first, plain, spans, tracer)
        layer["trace.overhead_pct"] = overhead
        # a layer this workload does not reach did no work: 0
        out.metrics = {name: (float(layer.get(name, 0.0)), unit)
                       for name, (unit, _) in PER_LAYER.items()}
        out.detail["tracer"] = tracer
    return out


# ---------------------------------------------------------------------------
# helpers over traced units


def _span_total(spans, units, names, per=1.0, which=1) -> float:
    """Median over units of the summed total (which=1) or self (2) seconds, in ms."""
    return _median(1e3 * sum(spans.get(u.index, {}).get(n, [0, 0.0, 0.0])[which]
                             for n in names) / per for u in units)


def _span_calls(spans, units, name, per=1.0) -> float:
    return sum(spans.get(u.index, {}).get(name, [0])[0] for u in units) \
        / (per * max(1, len(units)))


def _op_counts(tracer, units, per=1.0) -> dict:
    total = {}
    for u in units:
        for k, v in tracer.unit_counts.get(u.index, {}).items():
            total[k] = total.get(k, 0) + v
    n = per * max(1, len(units))
    return {k: v / n for k, v in total.items()}


# ---------------------------------------------------------------------------
# train_mixed


class TrainMixed(Workload):
    name = "train_mixed"

    def __init__(self, seed, work_dir, sizes: inputs.TrainSizes = inputs.TrainSizes(),
                 model_overrides: dict | None = None):
        super().__init__(seed, work_dir)
        self.sizes = sizes
        self.model_overrides = model_overrides or {}
        self.units_per_round = sizes.docs_per_source // sizes.batch_size

    def _model_config(self, vocab_size: int) -> cm.ModelConfig:
        return cm.ModelConfig(vocab_size=vocab_size, **self.model_overrides)

    def generate(self):
        probe = self._model_config(300)
        self.paths = inputs.write_train_inputs(self.seed, self.sizes, probe.d_vision,
                                               probe.n_patches, self.work_dir)

    def setup(self):
        meta = synthetic.TaskMeta.load(self.paths["meta"])
        self.vocab = docs.build_vocab(synthetic.corpus_texts(meta), max_size=300)
        self.tcfg = training.TrainConfig(
            lr_max=self.sizes.lr_max, schedule="cosine",
            warmup_steps=self.sizes.warmup_steps, max_steps=2000,
            batch_size=self.sizes.batch_size, window_len=self.sizes.window_len,
            loader_strategy="min", checkpoint_every=self.units_per_round)
        specs = [training.SourceSpec(name, name, 1.0, [self.paths["shards"][name]])
                 for name, _, _ in inputs.TRAIN_SOURCES]
        self.sources = training.make_sources(specs, self.vocab, self.tcfg)
        self.model = cm.build(self._model_config(len(self.vocab)), seed=self.seed)
        self.state = training.init_state(self.model, LOADER_SEED)
        self.loader = training.CycleLoader(self.sources, self.tcfg.loader_strategy)
        self.loader.start_epoch(self.state.rng)
        self.init_params = reference.params_of(self.model)
        self.rows: list[list[dict]] = []
        self.first_cycle = None
        self.last_cycle = None
        self.ckpt = os.path.join(self.work_dir, "train.ckpt")
        self.ckpt_bytes = []

    def unit(self, i):
        cycle = self.loader.next_cycle(self.state.rng)
        if cycle is training.EPOCH_END:
            self.loader.start_epoch(self.state.rng)
            cycle = self.loader.next_cycle(self.state.rng)
        rows = training.train_step(self.model, cycle, self.state, self.tcfg)
        if self.first_cycle is None:
            self.first_cycle = cycle
        self.last_cycle = cycle
        self.rows.append(rows)
        return {"items": sum(len(s.token_ids) for _, b in cycle for s in b),
                "samples": sum(len(b) for _, b in cycle)}

    def end_round(self, r):
        training.save_checkpoint(self.ckpt, self.model, self.state, self.tcfg,
                                 self.vocab, self.loader.get_state())
        self.ckpt_bytes.append(os.path.getsize(self.ckpt))

    def failed_units(self):
        return sum(1 for e in self.state.events if e.get("event") == "cycle_skipped")

    def check(self):
        cfg = self.model.config
        fails = checks.first_losses_match(self.init_params, cfg, self.first_cycle,
                                          self.rows[0])
        samples = [b[0] for _, b in self.last_cycle if b]
        got = [cm.forward_logits(self.model, s.token_ids, s.media_features,
                                 s.media_positions).data for s in samples]
        trained = reference.params_of(self.model)
        fails += checks.forward_matches(trained, cfg, samples, got)
        fails += checks.params_updated(self.init_params, self.model)
        fails += checks.loss_decreased(trained, cfg, self.first_cycle, self.rows[0])
        # Scaled sub-losses are counted in the make-up, not judged: whether the
        # guard scales an ordinary swing of the 4-pair contrastive loss
        # depends on the seed.
        fails += checks.no_guard_skips(self.state.events)
        final = os.path.join(self.work_dir, "final.ckpt")
        loader_state = self.loader.get_state()
        training.save_checkpoint(final, self.model, self.state, self.tcfg,
                                 self.vocab, loader_state)
        fails += checks.checkpoint_restores(self.model, self.state, loader_state,
                                            training.load_checkpoint(final))
        return fails

    def make_up(self) -> dict:
        """Documents, tokens and media per sample, and cut windows, per source."""
        out = {}
        for src in self.sources:
            n_tokens = len(docs.serialize(src.docs[0], self.vocab)[0])
            out[src.spec.name] = {"docs": len(src.docs), "doc_tokens": n_tokens,
                                  "media_per_doc": len(src.docs[0].media),
                                  "windows_cut": n_tokens > self.sizes.window_len}
        out["guard_scaled_sub_losses"] = sum(e.get("event") == "scale"
                                             for e in self.state.events)
        return out

    def per_layer(self, traced, first, plain, spans, tracer):
        ops = _op_counts(tracer, first)
        read_docs = SETUP_REPEATS * len(inputs.TRAIN_SOURCES) * self.sizes.docs_per_source
        saves = [row["checkpoint.save"][1] for unit, row in spans.items()
                 if str(unit).startswith("round") and "checkpoint.save" in row]
        return {
            "autodiff.ops_per_step": sum(v for k, v in ops.items() if k.startswith("op.")),
            "autodiff.tape_nodes_per_step": ops.get("tape_nodes", 0),
            "autodiff.matmul_nodes_per_step": ops.get("node.matmul", 0),
            "autodiff.softmax_nodes_per_step": ops.get("node.softmax", 0),
            "autodiff.log_nodes_per_step": ops.get("node.log", 0),
            "autodiff.backward_ms_per_step":
                _span_total(spans, traced, ["autodiff.backward"]),
            "model.forwards_per_step": _span_calls(spans, first, "model.forward_logits"),
            "model.text_encodes_per_step":
                _span_calls(spans, first, "model.encode_text_unimodal"),
            "model.media_encodes_per_step":
                _span_calls(spans, first, "model.encode_media"),
            "model.vision_encodes_per_step":
                _span_calls(spans, first, "model.vision_encode"),
            "model.unimodal_ms_per_step":
                _span_total(spans, traced, ["model.encode_text_unimodal"]),
            "model.media_ms_per_step":
                _span_total(spans, traced, ["model.vision_encode", "model.resample"]),
            "model.fusion_ms_per_step":
                _span_total(spans, traced, ["model.fuse_and_decode"], which=2),
            "model.loss_ms_per_step":
                _span_total(spans, traced, ["model.lm_loss", "model.contrastive_embed",
                                            "model.contrastive_loss"]),
            "training.loader_ms_per_step":
                _span_total(spans, traced, ["training.next_cycle"]),
            "docs.sample_window_ms_per_step":
                _span_total(spans, traced, ["docs.sample_window"]),
            "training.samples_kept_per_step": _median(u.info["samples"] for u in first),
            "training.optimizer_ms_per_step":
                _span_total(spans, traced, ["training.clip_gradients",
                                            "training.adamw_update"]),
            "checkpoint.save_ms": 1e3 * _median(saves),
            "checkpoint.bytes": self.ckpt_bytes[0],
            "docs.read_shard_ms_per_doc":
                1e3 * spans.get(-1, {}).get("docs.read_shard", [0, 0.0])[1] / read_docs,
        }


# ---------------------------------------------------------------------------
# fewshot_k8


class FewshotK8(Workload):
    name = "fewshot_k8"

    def __init__(self, seed, work_dir, sizes: inputs.FewshotSizes = inputs.FewshotSizes(),
                 model_overrides: dict | None = None):
        super().__init__(seed, work_dir)
        self.sizes = sizes
        self.model_overrides = model_overrides or {}
        self.units_per_round = sizes.blocks_per_round
        self.per_unit_divisor = sizes.block

    def generate(self):
        probe = cm.ModelConfig(vocab_size=300, **self.model_overrides)
        self.paths = inputs.write_fewshot_inputs(self.seed, self.sizes, probe.d_vision,
                                                 probe.n_patches, self.work_dir)

    def setup(self):
        s = self.sizes
        self.meta = synthetic.TaskMeta.load(self.paths["meta"])
        self.vocab = docs.build_vocab(synthetic.corpus_texts(self.meta), max_size=300)
        self.model = cm.build(cm.ModelConfig(vocab_size=len(self.vocab),
                                             **self.model_overrides), seed=self.seed)
        inputs.move_off_init(self.model, self.seed)
        rng = np.random.default_rng([self.seed, 7])
        self.episodes = synthetic.make_episodes(
            self.meta, s.k, s.block * s.blocks_per_round, rng)
        self.results: dict[int, dict] = {}

    def unit(self, i):
        b = i % self.sizes.blocks_per_round
        block = self.episodes[b * self.sizes.block:(b + 1) * self.sizes.block]
        self.results[b] = synthetic.eval_fewshot(self.model, self.vocab, block,
                                                 self.meta)
        return {"items": len(block)}

    def check(self):
        """Greedy tokens of two episodes per block against the reference."""
        from cosmo.docs import EOC

        fails = []
        self.decode_lengths = []
        params = reference.params_of(self.model)
        rng = np.random.default_rng([self.seed, 8])
        n = self.sizes.block
        for b, res in sorted(self.results.items()):
            for j in sorted(rng.choice(n, size=min(2, n), replace=False)):
                ep = self.episodes[b * n + j]
                prompt = synthetic.episode_prompt(ep, self.vocab)
                decoded = cm.greedy_decode(self.model, *prompt, stop_id=EOC,
                                           max_new=self.sizes.max_new)
                self.decode_lengths.append(len(decoded))
                fails += checks.greedy_matches(params, self.model.config, prompt,
                                               decoded, EOC, self.sizes.max_new)
                match = self.vocab.detokenize(decoded) == ep.target
                if res["per_episode_match"][j] != match:
                    fails.append(f"eval_fewshot match of block {b} episode {j} is "
                                 f"{res['per_episode_match'][j]}, decoded says {match}")
        return fails

    def make_up(self) -> dict:
        tokens, feats, _ = synthetic.episode_prompt(self.episodes[0], self.vocab)
        return {"k": self.sizes.k, "prompt_tokens": len(tokens),
                "media_per_episode": len(feats), "max_new": self.sizes.max_new,
                "episodes_per_call": self.sizes.block,
                "checked_decode_lengths": self.decode_lengths}

    def per_layer(self, traced, first, plain, spans, tracer):
        n = self.sizes.block
        ops = _op_counts(tracer, first, per=n)
        return {
            "model.forwards_per_episode":
                _span_calls(spans, first, "model.forward_logits", n),
            "model.vision_encodes_per_episode":
                _span_calls(spans, first, "model.vision_encode", n),
            "model.unimodal_ms_per_episode":
                _span_total(spans, traced, ["model.encode_text_unimodal"], n),
            "model.media_ms_per_episode":
                _span_total(spans, traced, ["model.vision_encode", "model.resample"], n),
            "model.fusion_ms_per_episode":
                _span_total(spans, traced, ["model.fuse_and_decode"], n, which=2),
            "autodiff.ops_per_episode":
                sum(v for k, v in ops.items() if k.startswith("op.")),
            "synthetic.retrieval_ms_per_episode":
                _span_total(spans, traced, ["synthetic.retrieval_at_1"], n),
        }


# ---------------------------------------------------------------------------
# curate


class Curate(Workload):
    name = "curate"
    units_per_round = 2
    MAX_CUTS = 16
    KMEANS_ITERS = 50

    def __init__(self, seed, work_dir, sizes: inputs.CurateSizes = inputs.CurateSizes()):
        super().__init__(seed, work_dir)
        self.sizes = sizes

    def generate(self):
        self.paths = inputs.write_curate_inputs(self.seed, self.sizes, self.work_dir)

    def setup(self):
        self.sims = interleave.load_sims(self.paths["prep_sims"])
        self.videos = [inputs.load_video(p) for p in self.paths["videos"]]
        self.pairs = select.load_pairs(self.paths["embeddings"],
                                       self.paths["similarities"])
        self.captioner = inputs.EchoCaptioner()
        self.annotator = interlink.MockAnnotator()
        self.m_select = int(self.sizes.select_share * ((len(self.pairs) + 1) // 2))
        self.last: dict = {}
        self.failed = 0

    def unit(self, i):
        s = self.sizes
        rng = np.random.default_rng([self.seed, 6, i])
        t0 = time.perf_counter()
        docs_in = docs.read_shard(self.paths["prep_in"])
        prepped, report = interleave.prep_shard(docs_in, self.sims, self.captioner, rng)
        docs.write_shard(prepped, self.paths["prep_out"])
        t1 = time.perf_counter()
        cuts, annotated = [], []
        for v, seq in enumerate(self.videos):
            sb = interlink.kts_segment(seq, mode="auto", max_cuts=self.MAX_CUTS)
            anns = [interlink.ClipAnnotation(asr=f"speaker {v} clip {c}",
                                             caption=f"shot {c} of video {v}",
                                             clip_range=seg)
                    for c, seg in enumerate(sb.segments(len(seq.features)))]
            doc, quarantine = interlink.annotate_video(seq, anns, self.annotator,
                                                       source_id=f"video{v}")
            cuts.append(sb.cut_indices)
            annotated.append((doc, quarantine))
        t2 = time.perf_counter()
        kept = select.filter_half(self.pairs)
        clustering = select.kmeans(kept, s.k, max_iters=self.KMEANS_ITERS, seed=0)
        chosen = select.distance_uniform_sample(clustering, kept, self.m_select, rng)
        t3 = time.perf_counter()
        self.failed += sum(r["dropped"] for r in report.values()) \
            + sum(len(q) for _, q in annotated)
        self.last = {"i": i, "report": report, "docs_in": docs_in, "cuts": cuts,
                     "annotated": annotated, "kept": kept, "clustering": clustering,
                     "chosen": chosen}
        frames = s.videos * s.frames
        return {"items": s.prep_docs + frames + s.points,
                "prep_docs_per_s": s.prep_docs / (t1 - t0),
                "video_frames_per_s": frames / (t2 - t1),
                "select_points_per_s": s.points / (t3 - t2),
                "kmeans_iters": len(clustering.inertia_history)
                + (len(clustering.inertia_history) < self.KMEANS_ITERS)}

    def failed_units(self):
        return self.failed

    def check(self):
        last = self.last
        rng = np.random.default_rng([self.seed, 6, last["i"]])
        scores, perturbed, records = [], [], []
        for doc in last["docs_in"]:
            s = np.asarray(self.sims[doc.doc_id], dtype=np.float64)
            noise = np.clip(rng.normal(0.0, interleave.DEFAULT_SIGMA, size=s.shape),
                            -interleave.DEFAULT_CLAMP, interleave.DEFAULT_CLAMP)
            scores.append(s)
            perturbed.append(s + noise)
            records.append(last["report"][doc.doc_id])
        fails = checks.matching_optimal(perturbed, [r["assignment"] for r in records])
        fails += checks.replaced_exactly_low(scores, records,
                                             interleave.DEFAULT_REPLACE_BELOW)
        fails += checks.shots_recovered(self.paths["planted_cuts"], last["cuts"])
        for v, (doc, quarantine) in enumerate(last["annotated"]):
            if quarantine or doc is None or len(doc.media) != self.sizes.shots:
                fails.append(f"video {v}: annotation lost clips: {quarantine}")
        short = inputs.short_sequences(self.seed)
        results = {}
        for j, f in enumerate(short):
            seq = interlink.FrameFeatureSeq(f, np.arange(len(f), dtype=float))
            for m in (1, 2, 3):
                sb = interlink.kts_segment(seq, mode="fixed", n_cuts=m)
                results[(j, m)] = (sb.cut_indices, sb.scatter)
        fails += checks.kts_exhaustive(short, results)
        kept = last["kept"]
        x = np.stack([p.embedding for p in kept])
        fails += checks.kmeans_consistent(x, [p.id for p in kept], last["clustering"],
                                          self.KMEANS_ITERS)
        fails += checks.selection_fair(last["chosen"], last["clustering"],
                                       self.m_select)
        return fails

    def make_up(self) -> dict:
        s = self.sizes
        return {"prep_docs": s.prep_docs, "images_per_doc": s.prep_images,
                "texts_per_doc": s.prep_texts, "videos": s.videos,
                "frames_per_video": s.frames, "shots_per_video": s.shots,
                "frame_dim": s.frame_dim, "points": s.points, "point_dim": s.point_dim,
                "k": s.k, "selected": self.m_select}

    def per_layer(self, traced, first, plain, spans, tracer):
        s = self.sizes
        return {
            # pipeline rates from the benchmark's own clock, on untraced units
            "prep_docs_per_s": _median(u.info["prep_docs_per_s"] for u in plain),
            "video_frames_per_s": _median(u.info["video_frames_per_s"] for u in plain),
            "select_points_per_s": _median(u.info["select_points_per_s"] for u in plain),
            "docs.read_shard_ms_per_doc":
                _span_total(spans, traced, ["docs.read_shard"], s.prep_docs),
            "docs.write_shard_ms_per_doc":
                _span_total(spans, traced, ["docs.write_shard"], s.prep_docs),
            "interleave.match_ms_per_doc":
                _span_total(spans, traced, ["interleave.match"], s.prep_docs),
            "interleave.filter_and_replace_ms_per_doc":
                _span_total(spans, traced, ["interleave.filter_and_replace"], s.prep_docs),
            "interlink.kts_segment_ms_per_video":
                _span_total(spans, traced, ["interlink.kts_segment"], s.videos),
            "interlink.annotate_video_ms_per_video":
                _span_total(spans, traced, ["interlink.annotate_video"], s.videos),
            "select.kmeans_ms": _span_total(spans, traced, ["select.kmeans"]),
            "select.kmeans_iters": _median(u.info["kmeans_iters"] for u in first),
            "select.sample_ms":
                _span_total(spans, traced, ["select.distance_uniform_sample"]),
        }


WORKLOADS = {w.name: w for w in (TrainMixed, FewshotK8, Curate)}
