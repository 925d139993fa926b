"""Equivalence oracle: the numbers a tiny run of the whole program produces.

``golden()`` trains a tiny model on the 4-source synthetic corpus for
``STEPS`` steps and decodes a few k=2 episodes; ``test_golden.py`` checks
the program against the fixture this script writes. A change that alters
behaviour on purpose regenerates the fixture, from the repository root, with

    PYTHONPATH=src python tests/make_golden.py

and gives the old and new numbers in ``CHANGES.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np

from cosmo import model as cm
from cosmo import synthetic as sy
from cosmo import training as tr
from cosmo.docs import EOC, build_vocab

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
STEPS = 24
SHARDS = [("pairs_image", "image_text"), ("pairs_video", "video_text"),
          ("interleaved_image", "interleaved_image"),
          ("interleaved_video", "interleaved_video")]
ROW_KEYS = ("step", "type", "lm_loss", "c_loss", "grad_norm", "gates",
            "logit_scale", "guard_event")


def _top2_gaps(model, prompt, tokens) -> list[float]:
    """The top-2 logit gap of every pass a greedy decode of ``prompt`` ran
    to produce ``tokens`` (and the stop token, if one was produced)."""
    ids, feats, positions = prompt
    passes = min(len(tokens) + 1, sy.CAPTION_MAX_NEW)
    gaps = []
    for j in range(passes):
        logits = cm.forward_logits(model, ids + tokens[:j], feats, positions).data
        top = np.sort(logits[-1])[-2:]
        gaps.append(float(top[1] - top[0]))
    return gaps


def golden() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        meta = sy.make_synthetic_corpus(
            sy.SyntheticTaskSpec(n_train=6, d_vision=8, n_patches=2), tmp)
        vocab = build_vocab(sy.corpus_texts(meta), max_size=300)
        model = cm.build(cm.ModelConfig(vocab_size=len(vocab), d_model=16,
                                        n_heads=2, n_latents=2, d_vision=8,
                                        n_patches=2, d_embed_contrastive=8,
                                        max_seq=64), seed=0)
        config = tr.TrainConfig(lr_max=1e-2, warmup_steps=4, max_steps=STEPS,
                                batch_size=2, window_len=32)
        specs = [tr.SourceSpec(name, kind, 1.0, [os.path.join(tmp, f"{name}.jsonl")])
                 for name, kind in SHARDS]
        state = tr.train(model, tr.make_sources(specs, vocab, config), config,
                         os.path.join(tmp, "run"), vocab)
        with open(os.path.join(tmp, "run", "metrics.ndjson")) as f:
            rows = [json.loads(line) for line in f]
    params = {name: [float(p.data.sum()), float(np.linalg.norm(p.data)),
                     float(p.data.flat[0]), float(p.data.flat[-1])]
              for name, p in sorted(model.learnable_params.items())}
    frozen = hashlib.sha256()
    for name, p in sorted(model.frozen_params.items()):
        frozen.update(name.encode())
        frozen.update(np.ascontiguousarray(p.data, dtype=np.float64).tobytes())

    episodes = sy.make_episodes(meta, 2, 4, np.random.default_rng(1))
    prompts = [sy.episode_prompt(ep, vocab) for ep in episodes]
    single = [cm.greedy_decode(model, *p, stop_id=EOC, max_new=sy.CAPTION_MAX_NEW)
              for p in prompts]
    batched = cm.greedy_decode_batch(model, prompts, stop_id=EOC,
                                     max_new=sy.CAPTION_MAX_NEW)
    candidates = [meta.caption(ci, ri)
                  for ci, ri in meta.seen_combos + meta.held_out_combos]
    # seen combinations, on which this short run already retrieves above
    # chance (held-out ones read 0 here, which would show nothing)
    queries = [(ep.query, meta.caption(*ep.combo)) for ep in
               sy.make_episodes(meta, 0, 16, np.random.default_rng(0), pool="seen")]
    return {
        "rows": [{k: row[k] for k in ROW_KEYS} for row in rows],
        "guard_events": state.events,
        "guard_emas": state.emas,
        "guard_counts": state.guard_counts,
        "learnable_sum_norm_first_last": params,
        "frozen_sha256": frozen.hexdigest(),
        "decode_single": single,
        "decode_batched": batched,
        "top2_gaps": [_top2_gaps(model, p, t) for p, t in zip(prompts, single)],
        "retrieval_at_1": sy.retrieval_at_1(model, vocab, queries, candidates),
    }


if __name__ == "__main__":
    with open(FIXTURE, "w") as f:
        json.dump(golden(), f, indent=1, sort_keys=True)
        f.write("\n")
