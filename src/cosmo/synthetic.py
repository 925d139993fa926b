"""Synthetic compositional corpus and the few-shot evaluation harness.

Each media item encodes a (class, color) pair as the sum of two prototype
vectors plus noise, captioned by two words. Pair documents always phrase the
caption in canonical order; interleaved documents pick a word order per
document and stick to it, and repeat earlier pairs often, so that word order
and repeated content are genuinely readable from in-context examples. Query
episodes recombine classes and colors unseen jointly during training, which
is what makes the k-shot context informative.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from . import model as cm
from .docs import (EOC, MAX_VIDEO_FRAMES, Document, MediaItem, MediaRef, TextSpan,
                   Vocab, serialize, write_shard)

CLASS_WORDS = ["widget", "gizmo", "sprocket", "lever",
               "crate", "prism", "kettle", "anchor"]
COLOR_WORDS = ["red", "blue", "green", "amber",
               "violet", "teal", "coral", "slate"]
CAPTION_MAX_NEW = 8  # tokens a caption decode may emit before it is cut off


@dataclass
class SyntheticTaskSpec:
    n_classes: int = 4
    n_colors: int = 4
    feature_noise: float = 0.05
    n_train: int = 16  # documents per data type
    seed: int = 0
    # the default model's sizes, so that the default task runs on it
    d_vision: int = cm.ModelConfig.d_vision
    n_patches: int = cm.ModelConfig.n_patches
    repeat_prob: float = 0.5  # chance an interleaved slot repeats an earlier pair

    def __post_init__(self):
        # chained comparisons, so that NaN fails them too
        if not (self.n_classes >= 2 and self.n_colors >= 2):
            raise ValueError("need at least 2 classes and 2 colors")
        if not 0 <= self.feature_noise < math.inf:
            raise ValueError(f"feature_noise must be >= 0 and finite, got "
                             f"{self.feature_noise}")
        if not 0 <= self.repeat_prob <= 1:
            raise ValueError(f"repeat_prob must be in [0, 1], got {self.repeat_prob}")
        if self.n_classes > len(CLASS_WORDS) or self.n_colors > len(COLOR_WORDS):
            raise ValueError("not enough distinct words for that many classes")


def sample_prototypes(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Unit vectors with pairwise |cosine| below 0.5, by rejection."""
    for _ in range(1000):
        protos = rng.normal(size=(n, d))
        protos /= np.linalg.norm(protos, axis=1, keepdims=True)
        gram = np.abs(protos @ protos.T - np.eye(n))
        if gram.max() < 0.5:
            return protos
    raise RuntimeError(f"could not sample {n} prototypes at cosine < 0.5 in d={d}")


@dataclass
class TaskMeta:
    spec: SyntheticTaskSpec
    class_protos: np.ndarray  # [n_classes, d_vision]
    color_protos: np.ndarray  # [n_colors, d_vision]
    seen_combos: list[tuple[int, int]]
    held_out_combos: list[tuple[int, int]]

    def caption(self, ci: int, ri: int, canonical: bool = True) -> str:
        text = f"{COLOR_WORDS[ri]} {CLASS_WORDS[ci]}"
        if canonical:
            return text
        return " ".join(reversed(text.split()))

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spec": asdict(self.spec),
                       "class_protos": self.class_protos.tolist(),
                       "color_protos": self.color_protos.tolist(),
                       "seen_combos": [list(c) for c in self.seen_combos],
                       "held_out_combos": [list(c) for c in self.held_out_combos]},
                      f)

    @classmethod
    def load(cls, path: str) -> "TaskMeta":
        with open(path) as f:
            raw = json.load(f)
        return cls(spec=SyntheticTaskSpec(**raw["spec"]),
                   class_protos=np.asarray(raw["class_protos"]),
                   color_protos=np.asarray(raw["color_protos"]),
                   seen_combos=[tuple(c) for c in raw["seen_combos"]],
                   held_out_combos=[tuple(c) for c in raw["held_out_combos"]])


def combo_features(meta: TaskMeta, ci: int, ri: int, rng: np.random.Generator,
                   video: bool = False) -> np.ndarray:
    """A [frames, patches, d] feature grid for one (class, color) instance."""
    spec = meta.spec
    base = (meta.class_protos[ci] + meta.color_protos[ri]) / np.sqrt(2.0)
    patches = base[None, :] + rng.normal(scale=spec.feature_noise,
                                         size=(spec.n_patches, spec.d_vision))
    frame = patches[None, :, :]
    if video:
        frame = np.repeat(frame, MAX_VIDEO_FRAMES, axis=0)  # identical frames
    return frame.astype(np.float32)


def _split_combos(spec: SyntheticTaskSpec) -> tuple[list, list]:
    combos = [(c, r) for c in range(spec.n_classes) for r in range(spec.n_colors)]
    held = [(c, (c + 1) % spec.n_colors) for c in range(spec.n_classes)]
    held = [h for h in held if h in combos]
    seen = [c for c in combos if c not in held]
    return seen, held


def make_synthetic_corpus(spec: SyntheticTaskSpec, out_dir: str) -> TaskMeta:
    """Write the four data-type shards plus task metadata; returns the meta."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    class_protos = sample_prototypes(rng, spec.n_classes, spec.d_vision)
    color_protos = sample_prototypes(rng, spec.n_colors, spec.d_vision)
    seen, held = _split_combos(spec)
    meta = TaskMeta(spec=spec, class_protos=class_protos,
                    color_protos=color_protos, seen_combos=seen,
                    held_out_combos=held)

    def pair_doc(i: int, video: bool) -> Document:
        ci, ri = seen[int(rng.integers(len(seen)))]
        feats = combo_features(meta, ci, ri, rng, video=video)
        kind = "video" if video else "image"
        return Document(
            segments=[MediaRef(0), TextSpan(meta.caption(ci, ri))],
            media=[MediaItem(kind, feats, source_id=f"{kind}-{ci}-{ri}-{i}")],
            doc_id=f"{kind}{i}")

    def interleaved_doc(i: int, video: bool) -> Document:
        n_pairs = int(rng.integers(2, 6))
        canonical = bool(rng.integers(2))
        kind = "video" if video else "image"
        chosen: list[tuple[int, int]] = []
        segments: list = []
        media: list[MediaItem] = []
        for j in range(n_pairs):
            if chosen and rng.random() < spec.repeat_prob:
                ci, ri = chosen[int(rng.integers(len(chosen)))]
            else:
                ci, ri = seen[int(rng.integers(len(seen)))]
            chosen.append((ci, ri))
            feats = combo_features(meta, ci, ri, rng, video=video)
            media.append(MediaItem(kind, feats,
                                   source_id=f"il-{kind}-{ci}-{ri}-{i}-{j}"))
            segments.append(MediaRef(len(media) - 1))
            segments.append(TextSpan(meta.caption(ci, ri, canonical)))
        return Document(segments=segments, media=media, doc_id=f"il-{kind}{i}")

    write_shard([pair_doc(i, False) for i in range(spec.n_train)],
                os.path.join(out_dir, "pairs_image.jsonl"))
    write_shard([pair_doc(i, True) for i in range(spec.n_train)],
                os.path.join(out_dir, "pairs_video.jsonl"))
    write_shard([interleaved_doc(i, False) for i in range(spec.n_train)],
                os.path.join(out_dir, "interleaved_image.jsonl"))
    write_shard([interleaved_doc(i, True) for i in range(spec.n_train)],
                os.path.join(out_dir, "interleaved_video.jsonl"))
    meta.save(os.path.join(out_dir, "task_meta.json"))
    return meta


def corpus_texts(meta: TaskMeta) -> list[str]:
    """Every caption wording the corpus can contain, for vocab building."""
    out = []
    for ci in range(meta.spec.n_classes):
        for ri in range(meta.spec.n_colors):
            out.append(meta.caption(ci, ri, True))
            out.append(meta.caption(ci, ri, False))
    return out


# ---------------------------------------------------------------------------
# episodes and evaluation


@dataclass
class FewShotEpisode:
    support: list[tuple[np.ndarray, str]]  # (media features, caption)
    query: np.ndarray
    target: str
    combo: tuple[int, int]
    canonical: bool


def make_episodes(meta: TaskMeta, k: int, n_episodes: int,
                  rng: np.random.Generator, pool: str = "held_out"
                  ) -> list[FewShotEpisode]:
    """Episodes whose query combo comes from ``pool`` (held_out or seen).

    With k > 0 the support always contains a fresh instance of the query's
    own combination (support media are distinct instances from the query),
    and every caption in the episode shares one word order.
    """
    combos = meta.held_out_combos if pool == "held_out" else meta.seen_combos
    episodes = []
    for _ in range(n_episodes):
        ci, ri = combos[int(rng.integers(len(combos)))]
        canonical = bool(rng.integers(2))
        support = []
        if k > 0:
            slots = [(ci, ri)]
            while len(slots) < k:
                slots.append(meta.seen_combos[int(rng.integers(
                    len(meta.seen_combos)))])
            order = rng.permutation(len(slots))
            for idx in order:
                sc, sr = slots[idx]
                support.append((combo_features(meta, sc, sr, rng),
                                meta.caption(sc, sr, canonical)))
        query = combo_features(meta, ci, ri, rng)
        episodes.append(FewShotEpisode(support=support, query=query,
                                       target=meta.caption(ci, ri, canonical),
                                       combo=(ci, ri), canonical=canonical))
    return episodes


def episode_prompt(episode: FewShotEpisode, vocab: Vocab
                   ) -> tuple[list[int], list[np.ndarray], list[tuple[int, int]]]:
    """Serialize the support pairs plus the trailing query placeholder.

    Shares the document serialization path, so prompts match training
    token streams exactly.
    """
    segments: list = []
    media: list[MediaItem] = []
    for feats, caption in episode.support:
        media.append(MediaItem("image", feats, source_id="support"))
        segments.append(MediaRef(len(media) - 1))
        segments.append(TextSpan(caption))
    media.append(MediaItem("image", episode.query, source_id="query"))
    segments.append(MediaRef(len(media) - 1))
    doc = Document(segments=segments, media=media, doc_id="episode")
    tokens, media_slice, _ = serialize(doc, vocab)
    return tokens, [m.features for m in media], list(media_slice)


def caption_text_embeddings(model: cm.Model, vocab: Vocab, captions: list[str]
                            ) -> np.ndarray:
    """[n, d_embed] text-tower embeddings of captions, each serialized as in
    a pair document. All captions run as one right-padded unimodal pass,
    each pooled over its own span; the blank media item only fixes the
    layout and is never encoded."""
    blank = MediaItem("image", np.zeros((1, 1, model.config.d_vision)))
    layouts = [serialize(Document(segments=[MediaRef(0), TextSpan(c)],
                                  media=[blank]), vocab) for c in captions]
    th = cm.encode_text_unimodal(model, [tokens for tokens, _, _ in layouts])
    return cm.embed_text(model, th, [text_slice[0] for _, _, text_slice in layouts]).data


def media_embeddings(model: cm.Model, features: list[np.ndarray]) -> np.ndarray:
    """[n, d_embed] media-tower embeddings of single media items: one padded
    ``encode_media`` call gives each item's tokens [n, n_latents, d], and
    ``embed_media`` pools each item's on its own in one batched call."""
    return cm.embed_media(model, cm.encode_media(model, features)).data


def retrieval_at_1(model: cm.Model, vocab: Vocab,
                   queries: list[tuple[np.ndarray, str]],
                   candidates: list[str]) -> float:
    """Fraction of query media whose nearest caption embedding is the target.

    All candidate captions are embedded in one padded unimodal pass and all
    query media in one ``embed_media`` call. No queries raise ``ValueError``.
    """
    if not queries:
        raise ValueError("retrieval_at_1: no queries")
    cand = caption_text_embeddings(model, vocab, candidates)
    media = media_embeddings(model, [feats for feats, _ in queries])
    hits = 0
    for v, (_, target) in zip(media, queries):
        hits += candidates[int(np.argmax(cand @ v))] == target
    return hits / len(queries)


def eval_fewshot(model: cm.Model, vocab: Vocab, episodes: list[FewShotEpisode],
                 meta: TaskMeta) -> dict:
    """Caption exact match over episodes plus retrieval@1 of their queries.

    Every episode's caption is decoded by one ``greedy_decode_batch`` call,
    so episodes with prompts of one length decode in lockstep. No episodes
    raise ``ValueError``.
    """
    if not episodes:
        raise ValueError("eval_fewshot: no episodes")
    prompts = [episode_prompt(ep, vocab) for ep in episodes]
    decoded = cm.greedy_decode_batch(model, prompts, stop_id=EOC,
                                     max_new=CAPTION_MAX_NEW)
    matches = [vocab.detokenize(ids) == ep.target
               for ids, ep in zip(decoded, episodes)]
    candidates = [meta.caption(ci, ri) for ci, ri in
                  meta.seen_combos + meta.held_out_combos]
    queries = [(ep.query, meta.caption(*ep.combo)) for ep in episodes]
    return {"caption_exact_match": float(np.mean(matches)),
            "retrieval_at_1": retrieval_at_1(model, vocab, queries, candidates),
            "per_episode_match": matches}
