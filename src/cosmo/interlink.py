"""Shot segmentation and history-conditioned clip annotation.

Videos arrive as per-frame feature sequences. Kernel temporal segmentation
finds change points by exact dynamic programming over within-segment scatter
(computable from the Gram matrix alone), then each shot's detailed
annotation is summarized by a pluggable client, with recent summaries
threaded into the next prompt to keep the narrative connected.

A client is any object with ``summarize(prompt: str) -> str``;
``MockAnnotator`` is the one shipped. A clip whose client raises, or returns
anything but a ``str``, is quarantined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .docs import MAX_VIDEO_FRAMES, Document, MediaItem, MediaRef, TextSpan

DEFAULT_HISTORY = 3
DEFAULT_PENALTY = 1.0


@dataclass
class FrameFeatureSeq:
    features: np.ndarray  # [n_frames, d]
    timestamps: np.ndarray  # seconds, strictly increasing

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 2:
            raise ValueError(f"need [n_frames >= 2, d] features, "
                             f"got {self.features.shape}")
        if len(self.timestamps) != len(self.features):
            raise ValueError("timestamps and features disagree on frame count")
        finite = np.isfinite(self.features).all(axis=1) & np.isfinite(self.timestamps)
        if not finite.all():
            raise ValueError(f"frame {int(np.argmin(finite))} has a non-finite "
                             f"feature or timestamp")
        if (np.diff(self.timestamps) <= 0).any():
            raise ValueError("timestamps must be strictly increasing")


@dataclass
class ShotBoundaries:
    cut_indices: list[int]  # segment i spans [cuts[i-1], cuts[i])
    scatter: float

    def segments(self, n_frames: int) -> list[tuple[int, int]]:
        edges = [0] + list(self.cut_indices) + [n_frames]
        return list(zip(edges[:-1], edges[1:]))


def _segment_costs(features: np.ndarray) -> np.ndarray:
    """cost[i, j] = within-segment scatter of frames [i, j), from the Gram matrix.

    Entries with j <= i are inf.
    """
    f = features / np.maximum(np.linalg.norm(features, axis=1, keepdims=True), 1e-12)
    gram = f @ f.T
    n = gram.shape[0]
    diag_cum = np.concatenate([[0.0], np.cumsum(np.diag(gram))])
    block = np.zeros((n + 1, n + 1))
    block[1:, 1:] = gram.cumsum(axis=0).cumsum(axis=1)
    d = np.diag(block)
    i, j = np.triu_indices(n + 1, k=1)
    mass = ((d[j] - block[i, j]) - block[j, i]) + d[i]
    cost = np.full((n + 1, n + 1), np.inf)
    cost[i, j] = (diag_cum[j] - diag_cum[i]) - mass / (j - i)
    return cost


def _dp_tables(cost: np.ndarray, max_cuts: int):
    """best[m, j]: min scatter of frames [0, j) using m cuts; with backpointers.

    Row m is filled at once from best[m-1, t] + cost[t, j] over every last
    cut t and end j; cost is inf for t >= j, and argmin takes the earliest t
    on ties.
    """
    n = cost.shape[0] - 1
    best = np.full((max_cuts + 1, n + 1), np.inf)
    back = np.zeros((max_cuts + 1, n + 1), dtype=int)
    best[0] = cost[0]
    best[0, 0] = 0.0
    for m in range(1, max_cuts + 1):
        cand = best[m - 1, m:n, None] + cost[m:n, m + 1:]
        t = cand.argmin(axis=0)
        best[m, m + 1:] = cand[t, np.arange(n - m)]
        back[m, m + 1:] = t + m
    return best, back


def _backtrack(back: np.ndarray, m: int, n: int) -> list[int]:
    cuts = []
    j = n
    for mm in range(m, 0, -1):
        j = int(back[mm, j])
        cuts.append(j)
    return cuts[::-1]


def kts_segment(seq: FrameFeatureSeq, mode: str = "auto",
                n_cuts: int | None = None, max_cuts: int = 16) -> ShotBoundaries:
    """Change-point segmentation minimizing within-segment scatter.

    ``fixed`` mode places exactly ``n_cuts`` cuts; ``auto`` picks the count
    minimizing scatter(m) + DEFAULT_PENALTY * m * (log(n / m) + 1) over
    m <= max_cuts.
    """
    n = seq.features.shape[0]
    if mode == "fixed":
        if n_cuts is None:
            raise ValueError("fixed mode needs n_cuts")
        if not 0 <= n_cuts < n:
            raise ValueError(f"n_cuts={n_cuts} must be in [0, n_frames={n})")
        m_hi = n_cuts
    elif mode == "auto":
        if max_cuts < 0:
            raise ValueError(f"max_cuts={max_cuts} must be >= 0")
        m_hi = min(max_cuts, n - 1)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    cost = _segment_costs(seq.features)
    best, back = _dp_tables(cost, m_hi)
    if mode == "fixed":
        m_star = n_cuts
    else:
        objective = [best[m, n]
                     + (DEFAULT_PENALTY * m * (math.log(n / m) + 1) if m else 0.0)
                     for m in range(m_hi + 1)]
        m_star = int(np.argmin(objective))
    cuts = _backtrack(back, m_star, n)
    return ShotBoundaries(cut_indices=cuts, scatter=float(best[m_star, n]))


# ---------------------------------------------------------------------------
# annotation assembly


@dataclass
class DenseCaption:
    box: tuple[float, float, float, float]  # x1, y1, x2, y2 in [0, 1]
    text: str

    def __post_init__(self):
        x1, y1, x2, y2 = self.box
        if not (0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1):
            raise ValueError(f"box {self.box} outside the unit square")


@dataclass
class ClipAnnotation:
    asr: str
    caption: str
    dense_captions: list[DenseCaption] = field(default_factory=list)
    clip_range: tuple[int, int] = (0, 0)


PROMPT_HEADER = (
    "You are writing one running caption per video shot.\n"
    "Keep every noun and action mentioned in the ASR text. Stay concrete.\n")


def build_prompt(history: list[str], ann: ClipAnnotation) -> str:
    """Byte-stable prompt: instructions, the clip's annotation and the last
    ``DEFAULT_HISTORY`` summaries."""
    lines = [PROMPT_HEADER, "Shot annotation:",
             f"ASR: {ann.asr}", f"Caption: {ann.caption}"]
    if ann.dense_captions:
        lines.append("Regions:")
        for dc in ann.dense_captions:
            box = ", ".join(f"{v:.2f}" for v in dc.box)
            lines.append(f"- [{box}] {dc.text}")
    if history:
        lines.append("History (most recent last):")
        for i, h in enumerate(history[-DEFAULT_HISTORY:], 1):
            lines.append(f"{i}. {h}")
    lines.append("Write the next caption.")
    return "\n".join(lines)


class MockAnnotator:
    """Deterministic pure function of the prompt, for tests and offline runs."""

    def summarize(self, prompt: str) -> str:
        asr = caption = ""
        for line in prompt.splitlines():
            if line.startswith("ASR: "):
                asr = line[5:]
            elif line.startswith("Caption: "):
                caption = line[9:]
        words = (asr + " " + caption).split()
        return "clip showing " + " ".join(words[:8]) if words else "clip"


@dataclass
class QuarantineRecord:
    clip: int
    reason: str


def clip_media_features(seq: FrameFeatureSeq, lo: int, hi: int) -> np.ndarray:
    """Up to MAX_VIDEO_FRAMES evenly spaced frames of [lo, hi) as a [f, 1, d]
    grid."""
    span = hi - lo
    take = min(MAX_VIDEO_FRAMES, span)
    idx = lo + (np.arange(take) * span) // take
    return seq.features[idx][:, None, :].astype(np.float32)


def annotate_video(seq: FrameFeatureSeq, clip_annotations: list[ClipAnnotation],
                   client, source_id: str = "video"):
    """Summarize clips in order, threading history; returns (Document, quarantine).

    Failed clips are skipped (recorded with a reason) and leave the history
    unchanged. A clip fails when its ``clip_range`` is not a non-empty range
    of the video's frames, or when the client raises or returns anything but
    a ``str``. Summarization is strictly sequential within one video.
    """
    history: list[str] = []
    segments = []
    media = []
    quarantine: list[QuarantineRecord] = []
    n_frames = seq.features.shape[0]
    for ci, ann in enumerate(clip_annotations):
        lo, hi = ann.clip_range
        if not 0 <= lo < hi <= n_frames:
            quarantine.append(QuarantineRecord(
                clip=ci, reason=f"clip_range {ann.clip_range} is not a non-empty "
                                f"range of {n_frames} frames"))
            continue
        prompt = build_prompt(history, ann)
        try:
            summary = client.summarize(prompt)
            if not isinstance(summary, str):
                raise TypeError(f"client returned {type(summary).__name__}, not str")
        except Exception as e:  # noqa: BLE001
            quarantine.append(QuarantineRecord(clip=ci, reason=str(e)))
            continue
        feats = clip_media_features(seq, lo, hi)
        media.append(MediaItem(kind="video", features=feats,
                               source_id=f"{source_id}/clip{ci}"))
        segments.append(MediaRef(len(media) - 1))
        segments.append(TextSpan(summary))
        history.append(summary)
    if not segments:
        return None, quarantine
    return Document(segments=segments, media=media, doc_id=source_id), quarantine
