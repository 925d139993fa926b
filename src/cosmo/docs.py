"""Tokenization, interleaved document serialization, and window sampling.

This module alone knows the serialized layout. A document is a sequence of
text spans and media references. ``serialize`` emits ``<s>``, then one
``<Visual>`` placeholder per media reference and the tokens of each text span
followed by ``<EOC>``; it also returns where each placeholder and each span's
tokens landed, so no caller has to re-derive them. Training windows are cut
around a randomly chosen anchor media with a small random left shift.

A shard is two files: ``x.jsonl`` holds one JSON record per document, and
``x.jsonl.bin`` holds every media item's float32 features back to back. Each
media record names its ``offset`` into the ``.bin`` file and its ``shape``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

BOS, EOC, VISUAL, PAD, UNK = range(5)
RESERVED = ["<s>", "<EOC>", "<Visual>", "<pad>", "<unk>"]
N_BYTES = 256
FIRST_WORD_ID = len(RESERVED) + N_BYTES  # 261
MAX_VIDEO_FRAMES = 3
SPACE_BYTE = len(RESERVED) + 0x20


class Vocab:
    """Word-level vocabulary with reserved specials and byte fallback.

    Ids 0-4 are the specials, 5-260 the raw bytes, words start at 261.
    Unknown words encode as their UTF-8 bytes; adjacent byte-fallback words
    keep an explicit space byte between them so detokenize round-trips.
    """

    def __init__(self, words: list[str]):
        self.id_to_word = list(words)
        self.word_to_id = {w: FIRST_WORD_ID + i for i, w in enumerate(words)}

    def __len__(self) -> int:
        return FIRST_WORD_ID + len(self.id_to_word)

    def tokenize(self, text: str) -> list[int]:
        ids: list[int] = []
        prev_was_bytes = False
        for word in text.split():
            wid = self.word_to_id.get(word)
            if wid is not None:
                ids.append(wid)
                prev_was_bytes = False
            else:
                if prev_was_bytes:
                    ids.append(SPACE_BYTE)
                ids.extend(len(RESERVED) + b for b in word.encode("utf-8"))
                prev_was_bytes = True
        return ids

    def detokenize(self, ids) -> str:
        parts: list[str] = []
        pending: list[int] = []

        def flush():
            if pending:
                parts.append(bytes(pending).decode("utf-8", errors="replace"))
                pending.clear()

        for i in ids:
            i = int(i)
            if len(RESERVED) <= i < FIRST_WORD_ID:
                pending.append(i - len(RESERVED))
            elif i >= FIRST_WORD_ID:
                flush()
                parts.append(self.id_to_word[i - FIRST_WORD_ID])
            else:
                flush()  # specials don't render
        flush()
        return " ".join(" ".join(parts).split())

    def to_dict(self) -> dict:
        return {"words": self.id_to_word}

    @classmethod
    def from_dict(cls, d: dict) -> "Vocab":
        return cls(d["words"])


def build_vocab(corpus, max_size: int) -> Vocab:
    """Frequency-ordered word vocab (ties lexicographic) from a text iterator."""
    if max_size < 300:
        raise ValueError(f"max_size must be >= 300, got {max_size}")
    counts: Counter[str] = Counter()
    n_texts = 0
    for text in corpus:
        n_texts += 1
        counts.update(text.split())
    if n_texts == 0 or not counts:
        raise ValueError("build_vocab: empty corpus")
    budget = max_size - FIRST_WORD_ID
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab([w for w, _ in ranked[:budget]])


# ---------------------------------------------------------------------------
# documents


@dataclass
class MediaItem:
    kind: str  # "image" | "video"
    features: np.ndarray  # [frames, patches, d_vision]
    source_id: str = ""
    min_side_px: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 3 or self.features.shape[0] < 1:
            raise ValueError(f"media features must be [frames, patches, d], "
                             f"got {self.features.shape}")
        if self.kind == "video" and self.features.shape[0] > MAX_VIDEO_FRAMES:
            raise ValueError(f"video uses at most {MAX_VIDEO_FRAMES} frames, "
                             f"got {self.features.shape[0]}")


@dataclass
class TextSpan:
    text: str


@dataclass
class MediaRef:
    media_id: int


Segment = TextSpan | MediaRef


@dataclass
class Document:
    segments: list[Segment]
    media: list[MediaItem]
    doc_id: str = ""

    def __post_init__(self):
        if not self.segments:
            raise ValueError("document needs at least one segment")
        for seg in self.segments:
            if isinstance(seg, MediaRef) and not 0 <= seg.media_id < len(self.media):
                raise ValueError(f"media_id {seg.media_id} out of range "
                                 f"({len(self.media)} media)")

    def text_spans(self) -> list[TextSpan]:
        return [s for s in self.segments if isinstance(s, TextSpan)]


def serialize(doc: Document, vocab: Vocab
              ) -> tuple[list[int], list[tuple[int, int]], list[tuple[int, int]]]:
    """Token ids, (position, media_id) per media reference, and the
    ``[lo, hi)`` token range of each text span (its ``<EOC>`` excluded)."""
    ids = [BOS]
    media_slice: list[tuple[int, int]] = []
    text_slice: list[tuple[int, int]] = []
    for seg in doc.segments:
        if isinstance(seg, MediaRef):
            media_slice.append((len(ids), seg.media_id))
            ids.append(VISUAL)
        else:
            lo = len(ids)
            ids.extend(vocab.tokenize(seg.text))
            text_slice.append((lo, len(ids)))
            ids.append(EOC)
    return ids, media_slice, text_slice


@dataclass
class Window:
    token_ids: list[int]
    media_slice: list[tuple[int, int]]  # positions in window coordinates
    loss_mask: np.ndarray  # 1 where the token may serve as a prediction target
    anchor_media: int | None


MAX_SHIFT = 8
MIN_WINDOW = 8


def sample_window(doc_tokens: list[int], media_slice: list[tuple[int, int]],
                  L: int, rng: np.random.Generator) -> Window:
    """Cut an L-token window anchored at a random media reference.

    The window starts up to 8 tokens left of the anchor's placeholder and
    truncates at the document end; padding happens at batch time. The mask
    is ``loss_mask`` of the window.
    """
    if L < MIN_WINDOW:
        raise ValueError(f"window length must be >= {MIN_WINDOW}, got {L}")
    n = len(doc_tokens)
    if not media_slice:
        ids = doc_tokens[:L]
        return Window(ids, [], loss_mask(ids, [], 0), None)
    k = int(rng.integers(len(media_slice)))
    anchor_pos, anchor_media = media_slice[k]
    if n <= L:  # the whole document fits: no cut, every media kept
        return Window(list(doc_tokens), list(media_slice),
                      loss_mask(doc_tokens, media_slice, 0), anchor_media)
    shift = int(rng.integers(0, min(MAX_SHIFT, anchor_pos, L - 1) + 1))
    start = anchor_pos - shift
    ids = doc_tokens[start:start + L]
    window_media = [(p - start, m) for p, m in media_slice
                    if start <= p < start + len(ids)]
    return Window(ids, window_media, loss_mask(ids, media_slice, start),
                  anchor_media)


def loss_mask(ids: list[int], media_slice: list[tuple[int, int]],
              start: int) -> np.ndarray:
    """Target eligibility of the tokens ``ids`` that begin at document
    position ``start``; ``media_slice`` holds the whole document's media.

    ``<Visual>`` and ``<pad>`` are never targets. A token whose governing
    media (the latest reference at or before it) lies before ``start`` had
    its media context cut off: those are exactly the tokens before the
    window's first own placeholder, when any media precedes the window.
    """
    ids = np.asarray(ids)
    mask = ((ids != VISUAL) & (ids != PAD)).astype(np.int8)
    if any(p < start for p, _ in media_slice):
        mask[:min((p - start for p, _ in media_slice if p >= start),
                  default=len(ids))] = 0
    return mask


# ---------------------------------------------------------------------------
# shard files: ndjson records plus a binary feature sidecar


def write_shard(docs: list[Document], path: str) -> None:
    """Write docs to ``path`` (ndjson) with their features in ``path.bin``."""
    offset = 0
    with open(path + ".bin", "wb") as bf, open(path, "w") as sf:
        for doc in docs:
            media_recs = []
            for item in doc.media:
                buf = item.features.astype("<f4").tobytes()
                rec = {"kind": item.kind, "offset": offset,
                       "shape": list(item.features.shape),
                       "source_id": item.source_id}
                if item.min_side_px is not None:
                    rec["px"] = item.min_side_px
                media_recs.append(rec)
                bf.write(buf)
                offset += len(buf)
            segs = [{"m": s.media_id} if isinstance(s, MediaRef) else {"t": s.text}
                    for s in doc.segments]
            rec = {"segments": segs, "media": media_recs}
            if doc.doc_id:
                rec["id"] = doc.doc_id
            sf.write(json.dumps(rec) + "\n")


def read_shard(path: str) -> list[Document]:
    with open(path + ".bin", "rb") as f:
        blob = f.read()
    docs: list[Document] = []
    with open(path) as f:
        for line_no, line in enumerate(f):
            if not line.strip():
                continue
            rec = json.loads(line)
            media = []
            for mr in rec["media"]:
                shape = mr["shape"]
                feats = np.frombuffer(blob, dtype="<f4", count=int(np.prod(shape)),
                                      offset=mr["offset"]).reshape(shape)
                media.append(MediaItem(kind=mr["kind"], features=feats.copy(),
                                       source_id=mr.get("source_id", ""),
                                       min_side_px=mr.get("px")))
            segments: list[Segment] = []
            for s in rec["segments"]:
                segments.append(MediaRef(s["m"]) if "m" in s else TextSpan(s["t"]))
            docs.append(Document(segments=segments, media=media,
                                 doc_id=rec.get("id", str(line_no))))
    return docs
