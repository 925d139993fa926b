"""Spans and op counts taken from outside the program.

While installed, the tracer replaces public functions of the ``cosmo``
modules by wrappers: span wrappers record (name, start, end, parent) for each
call, count wrappers add one to a counter per call. ``autodiff.backward`` is
also read for the taped nodes it is handed. Everything stays in memory until
``dump``. Uninstalling puts the original functions back, so untraced units
run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

from cosmo import (autodiff, docs, interleave, interlink, model, select,
                   synthetic, training)

# Primitive autodiff ops. The composites (rsqrt, div, clamp) are not wrapped:
# they are counted through the primitives they call.
PRIMITIVES = ("add", "mul", "scale", "matmul", "transpose", "reshape", "slice_",
              "concat", "softmax", "layer_norm", "tanh", "gelu", "exp", "log",
              "sum_", "mean", "embedding_lookup", "masked_fill")

# (owner, attribute, span name). A function imported by name into another
# module is patched there too, so calls from that module are seen.
SPANNED = (
    (model, "forward_logits", "model.forward_logits"),
    (model, "encode_text_unimodal", "model.encode_text_unimodal"),
    (model, "encode_media", "model.encode_media"),
    (model, "vision_encode", "model.vision_encode"),
    (model, "resample", "model.resample"),
    (model, "fuse_and_decode", "model.fuse_and_decode"),
    (model, "lm_loss", "model.lm_loss"),
    (model, "contrastive_embed", "model.contrastive_embed"),
    (model, "contrastive_loss", "model.contrastive_loss"),
    (model, "greedy_decode", "model.greedy_decode"),
    (training, "train_step", "training.train_step"),
    (training.CycleLoader, "next_cycle", "training.next_cycle"),
    (training, "clip_gradients", "training.clip_gradients"),
    (training, "adamw_update", "training.adamw_update"),
    (training, "save_checkpoint", "checkpoint.save"),
    (training, "sample_window", "docs.sample_window"),
    (training, "read_shard", "docs.read_shard"),
    (docs, "read_shard", "docs.read_shard"),
    (docs, "write_shard", "docs.write_shard"),
    (interleave, "prep_shard", "interleave.prep_shard"),
    (interleave, "match", "interleave.match"),
    (interleave, "filter_and_replace", "interleave.filter_and_replace"),
    (interlink, "kts_segment", "interlink.kts_segment"),
    (interlink, "annotate_video", "interlink.annotate_video"),
    (select, "filter_half", "select.filter_half"),
    (select, "kmeans", "select.kmeans"),
    (select, "distance_uniform_sample", "select.distance_uniform_sample"),
    (synthetic, "eval_fewshot", "synthetic.eval_fewshot"),
    (synthetic, "retrieval_at_1", "synthetic.retrieval_at_1"),
)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, unit]; -1 = no parent
        self.spans: list[list] = []
        self.unit = -1  # -1 while setting up
        self.unit_counts: dict[int, Counter] = {}
        self._open: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def start_unit(self, index: int) -> None:
        self.unit = index
        self.unit_counts.setdefault(index, Counter())

    def counts(self) -> Counter:
        return self.unit_counts.setdefault(self.unit, Counter())

    def _spanned(self, fn, name):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          open_[-1] if open_ else -1, self.unit])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
        return wrapper

    def _counted(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts()[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _backward(self, fn):
        spanned = self._spanned(fn, "autodiff.backward")

        @functools.wraps(fn)
        def wrapper(loss, tape=None):
            nodes = (tape or autodiff.active_tape()).nodes
            c = self.counts()
            c["tape_nodes"] += len(nodes)
            c.update("node." + n.op for n in nodes)
            return spanned(loss, tape)
        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name in PRIMITIVES:
            self._patch(autodiff, name,
                        self._counted(getattr(autodiff, name), "op." + name))
        self._patch(autodiff, "backward", self._backward(autodiff.backward))
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reading -----------------------------------------------------------

    def per_unit(self) -> dict[int, dict[str, list[float]]]:
        """unit -> span name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, list[float]]] = {}
        for i, (name, start, end, _, unit) in enumerate(self.spans):
            row = out.setdefault(unit, {}).setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write spans (start/end in microseconds from the first span) as JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            json.dump({**extra,
                       "spans": [{"name": n, "start_us": round((s - t0) * 1e6, 1),
                                  "end_us": round((e - t0) * 1e6, 1),
                                  "parent": p, "unit": u}
                                 for n, s, e, p, u in self.spans],
                       "counts": {str(u): dict(c)
                                  for u, c in self.unit_counts.items()}},
                      f)
