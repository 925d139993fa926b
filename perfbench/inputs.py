"""Seeded inputs for the benchmark workloads.

Every size is fixed by the workload's ``Sizes``; the seed changes only values:
prototype vectors, which (class, color) combinations appear, feature noise,
word order, similarity scores and where shots change. So every unit of work
is the same size on every seed. Inputs are written to files before set-up
starts, and set-up reads them back through the program's own readers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from cosmo import docs, interlink, select, synthetic
from cosmo.docs import Document, MediaItem, MediaRef, TextSpan

# The interleaved training documents always hold this many (media, caption)
# pairs; at 4 tokens per pair plus <s>, the image documents are longer than
# the training window, so ``sample_window`` cuts them.
TRAIN_SOURCES = (  # (data type, pairs per document, video)
    ("image_text", 1, False),
    ("video_text", 1, True),
    ("interleaved_image", 12, False),
    ("interleaved_video", 4, True),
)


@dataclass(frozen=True)
class TrainSizes:
    docs_per_source: int = 32
    batch_size: int = 4
    window_len: int = 32
    n_classes: int = 4
    n_colors: int = 4
    lr_max: float = 2e-3
    warmup_steps: int = 8


@dataclass(frozen=True)
class FewshotSizes:
    k: int = 8
    block: int = 4  # episodes per eval_fewshot call
    blocks_per_round: int = 4
    max_new: int = 8  # decode length cap, as in synthetic.decode_caption
    n_classes: int = 4
    n_colors: int = 4


@dataclass(frozen=True)
class CurateSizes:
    prep_docs: int = 256
    prep_images: int = 4  # media per interleaved document
    prep_texts: int = 5  # text spans per interleaved document
    videos: int = 3
    frames: int = 240
    shots: int = 8
    frame_dim: int = 32
    points: int = 6000
    point_dim: int = 64
    k: int = 16
    select_share: float = 0.25  # share of the filtered half that is kept


def task_meta(seed: int, n_classes: int, n_colors: int,
              d_vision: int, n_patches: int) -> synthetic.TaskMeta:
    """The synthetic (class, color) task, with one held-out color per class."""
    spec = synthetic.SyntheticTaskSpec(n_classes=n_classes, n_colors=n_colors,
                                       d_vision=d_vision, n_patches=n_patches,
                                       seed=seed)
    rng = np.random.default_rng([seed, 1])
    class_protos = synthetic.sample_prototypes(rng, n_classes, d_vision)
    color_protos = synthetic.sample_prototypes(rng, n_colors, d_vision)
    held = [(c, (c + 1) % n_colors) for c in range(n_classes)]
    seen = [(c, r) for c in range(n_classes) for r in range(n_colors)
            if (c, r) not in held]
    return synthetic.TaskMeta(spec=spec, class_protos=class_protos,
                              color_protos=color_protos, seen_combos=seen,
                              held_out_combos=held)


# ---------------------------------------------------------------------------
# train_mixed


def _train_doc(meta, rng, n_pairs: int, video: bool, doc_id: str) -> Document:
    kind = "video" if video else "image"
    canonical = True if n_pairs == 1 else bool(rng.integers(2))
    chosen: list[tuple[int, int]] = []
    segments: list = []
    media: list[MediaItem] = []
    for j in range(n_pairs):
        if chosen and rng.random() < meta.spec.repeat_prob:
            ci, ri = chosen[int(rng.integers(len(chosen)))]
        else:
            ci, ri = meta.seen_combos[int(rng.integers(len(meta.seen_combos)))]
        chosen.append((ci, ri))
        feats = synthetic.combo_features(meta, ci, ri, rng, video=video)
        media.append(MediaItem(kind, feats, source_id=f"{doc_id}-{j}"))
        segments.append(MediaRef(j))
        segments.append(TextSpan(meta.caption(ci, ri, canonical)))
    return Document(segments=segments, media=media, doc_id=doc_id)


def write_train_inputs(seed: int, sizes: TrainSizes, d_vision: int,
                       n_patches: int, out_dir: str) -> dict:
    """Four source shards plus the task metadata; returns their paths."""
    meta = task_meta(seed, sizes.n_classes, sizes.n_colors, d_vision, n_patches)
    rng = np.random.default_rng([seed, 2])
    shards = {}
    for name, n_pairs, video in TRAIN_SOURCES:
        path = os.path.join(out_dir, f"{name}.jsonl")
        docs.write_shard([_train_doc(meta, rng, n_pairs, video, f"{name}{i}")
                          for i in range(sizes.docs_per_source)], path)
        shards[name] = path
    meta_path = os.path.join(out_dir, "task_meta.json")
    meta.save(meta_path)
    return {"shards": shards, "meta": meta_path}


# ---------------------------------------------------------------------------
# fewshot_k8


def write_fewshot_inputs(seed: int, sizes: FewshotSizes, d_vision: int,
                         n_patches: int, out_dir: str) -> dict:
    meta = task_meta(seed, sizes.n_classes, sizes.n_colors, d_vision, n_patches)
    path = os.path.join(out_dir, "task_meta.json")
    meta.save(path)
    return {"meta": path}


def move_off_init(model, seed: int) -> None:
    """Open every fusion gate and jitter the other learnable parameters.

    A freshly built model has closed gates, so the fusion layers would not
    touch a single logit; trained weights are the case decoding serves.
    """
    rng = np.random.default_rng([seed, 3])
    for name, p in model.learnable_params.items():
        if name.endswith("/gate"):
            p.data = np.full_like(p.data, 1.0)
        else:
            spread = float(np.std(p.data)) or 0.1
            p.data = p.data + rng.normal(0.0, 0.5 * spread, size=p.shape)


# ---------------------------------------------------------------------------
# curate

PREP_WORDS = ("a photo of the red blue small large old new dog cat tree "
              "house car road sky river city people table window light").split()


class EchoCaptioner:
    """Deterministic captioner: names the media item it was given."""

    def generate(self, media: MediaItem) -> str:
        return f"generated caption for {media.source_id}"


def _prep_doc(rng, sizes: CurateSizes, i: int) -> tuple[Document, np.ndarray]:
    n_img, n_txt = sizes.prep_images, sizes.prep_texts
    media = [MediaItem("image", rng.normal(size=(1, 4, 16)).astype(np.float32),
                       source_id=f"prep{i}-img{j}") for j in range(n_img)]
    segments: list = []
    for t in range(n_txt):
        words = rng.choice(PREP_WORDS, size=8)
        segments.append(TextSpan(" ".join(words)))
        if t < n_img:
            segments.append(MediaRef(t))
    # Matched image/text pairs score high, except for a few poor ones;
    # the rest of the matrix is background.
    scores = rng.uniform(0.0, 0.18, size=(n_img, n_txt))
    texts = rng.permutation(n_txt)[:n_img]
    scores[np.arange(n_img), texts] = rng.uniform(0.1, 0.4, size=n_img)
    return Document(segments=segments, media=media, doc_id=f"prep{i}"), scores


def _video(rng, sizes: CurateSizes) -> tuple[np.ndarray, list[int]]:
    """Frames around one prototype per shot; shots at least 12 frames long."""
    n, s = sizes.frames, sizes.shots
    min_len = 12
    extra = rng.multinomial(n - s * min_len, np.ones(s) / s)
    lengths = min_len + extra
    cuts = np.cumsum(lengths)[:-1].tolist()
    protos = rng.normal(size=(s, sizes.frame_dim))
    frames = np.repeat(protos, lengths, axis=0)
    frames = frames + rng.normal(scale=0.15, size=frames.shape)
    return frames, [int(c) for c in cuts]


# One fixed cloud of overlapping blobs. Lloyd's algorithm is invariant under
# rotation and translation, so turning and moving the cloud by the seed gives
# new coordinates with the same number of iterations on every seed.
POINT_LAYOUT = 20240101


def _points(rng, sizes: CurateSizes) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings (the fixed cloud, turned and moved) and their similarities."""
    n, d = sizes.points, sizes.point_dim
    layout = np.random.default_rng(POINT_LAYOUT)
    centers = layout.normal(scale=1.5, size=(sizes.k, d))
    cloud = centers[layout.integers(sizes.k, size=n)] + layout.normal(size=(n, d))
    sims = layout.uniform(size=n)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return cloud @ (q * np.sign(np.diag(r))) + rng.normal(scale=5.0, size=d), sims


def write_curate_inputs(seed: int, sizes: CurateSizes, out_dir: str) -> dict:
    rng = np.random.default_rng([seed, 4])
    prep, sims = [], {}
    for i in range(sizes.prep_docs):
        doc, scores = _prep_doc(rng, sizes, i)
        prep.append(doc)
        sims[doc.doc_id] = scores.tolist()
    paths = {"prep_in": os.path.join(out_dir, "prep_in.jsonl"),
             "prep_sims": os.path.join(out_dir, "prep_sims.json"),
             "prep_out": os.path.join(out_dir, "prep_out.jsonl"),
             "videos": [], "planted_cuts": [],
             "embeddings": os.path.join(out_dir, "pairs.f32"),
             "similarities": os.path.join(out_dir, "pairs.csv")}
    docs.write_shard(prep, paths["prep_in"])
    with open(paths["prep_sims"], "w") as f:
        json.dump(sims, f)
    for v in range(sizes.videos):
        frames, cuts = _video(rng, sizes)
        path = os.path.join(out_dir, f"video{v}.npy")
        np.save(path, frames)
        paths["videos"].append(path)
        paths["planted_cuts"].append(cuts)
    x, sims = _points(rng, sizes)
    ids = [f"pair{i:05d}" for i in range(sizes.points)]
    select.write_embeddings(paths["embeddings"], ids, x)
    select.write_similarities(paths["similarities"], dict(zip(ids, sims.tolist())))
    return paths


def short_sequences(seed: int, count: int = 6) -> list[np.ndarray]:
    """Short frame sequences for the exhaustive-search check of KTS."""
    rng = np.random.default_rng([seed, 5])
    return [rng.normal(size=(int(rng.integers(6, 10)), 4)) for _ in range(count)]


def load_video(path: str) -> interlink.FrameFeatureSeq:
    frames = np.load(path)
    return interlink.FrameFeatureSeq(frames, np.arange(len(frames)) / 25.0)
