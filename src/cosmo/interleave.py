"""Interleaved-document preprocessing: noisy matching and caption repair.

Image-text similarity matrices come in from an upstream scorer. We add
clamped Gaussian noise so images can match different texts across epochs,
solve the one-to-one assignment exactly (optimal transport with uniform
marginals over a bipartite set reduces to linear assignment), and replace
the matched text of poorly aligned images with generated pseudo-captions.
That repair is the only rule: no image is dropped, whatever its score or
size, so a document keeps its media and segment order.

The assignment is solved in pure Python by the Hungarian method in its
shortest-augmenting-path form (Kuhn 1955; the variant scipy follows is
Crouse 2016, IEEE TAES 52(4)): O(n²m) for n ≤ m, which at a document's
handful of images and texts beats any vectorised form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .docs import Document, TextSpan

DEFAULT_SIGMA = 0.04
DEFAULT_CLAMP = 0.08
DEFAULT_REPLACE_BELOW = 0.20


def perturb(scores: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Return scores + zero-mean Gaussian noise of std ``DEFAULT_SIGMA`` with
    every entry clipped to [-DEFAULT_CLAMP, DEFAULT_CLAMP]; the input matrix
    is untouched."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores + np.clip(rng.normal(0.0, DEFAULT_SIGMA, size=scores.shape),
                            -DEFAULT_CLAMP, DEFAULT_CLAMP)


def _assign(cost: list[list[float]]) -> list[int]:
    """Minimum-cost assignment of each row of an n×m cost matrix, n ≤ m, to
    its own column: shortest augmenting paths over dual potentials.

    Rows enter one at a time. Each grows a Dijkstra tree over reduced costs
    until it reaches a free column, the potentials shift so that the tree's
    edges stay tight, and the path flips. Column 0 is a sentinel that holds
    the entering row; ``owner[j]`` is the 1-based row on column j.
    """
    n, m = len(cost), len(cost[0])
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    owner = [0] * (m + 1)
    prev = [0] * (m + 1)
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        dist = [math.inf] * (m + 1)
        done = [False] * (m + 1)
        while owner[j0]:
            done[j0] = True
            i0 = owner[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = math.inf, 0
            for j in range(1, m + 1):
                if not done[j]:
                    reduced = row[j - 1] - ui - v[j]
                    if reduced < dist[j]:
                        dist[j], prev[j] = reduced, j0
                    if dist[j] < delta:
                        delta, j1 = dist[j], j
            for j in range(m + 1):
                if done[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    dist[j] -= delta
            j0 = j1
        while j0:  # flip the path back to the sentinel
            j1 = prev[j0]
            owner[j0] = owner[j1]
            j0 = j1
    cols = [0] * n
    for j in range(1, m + 1):
        if owner[j]:
            cols[owner[j] - 1] = j - 1
    return cols


def match(scores: np.ndarray) -> list[tuple[int, int]]:
    """One-to-one image/text assignment maximizing total similarity, as
    (image_index, text_index) pairs in image order. Exact: the Hungarian
    method by shortest augmenting paths, O(n²m) for n = min and m = max of
    the two counts."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or 0 in scores.shape:
        raise ValueError(f"similarity matrix must be 2D and non-empty, "
                         f"got shape {scores.shape}")
    if not np.isfinite(scores).all():
        raise ValueError("similarity matrix has non-finite entries")
    if scores.shape[0] <= scores.shape[1]:
        return list(enumerate(_assign((-scores).tolist())))
    return sorted((i, t) for t, i in enumerate(_assign((-scores.T).tolist())))


@dataclass
class PrepRecord:
    """Per-document outcome, serialized to the sidecar JSON."""
    assignment: list[tuple[int, int]] = field(default_factory=list)
    replaced: list[int] = field(default_factory=list)
    dropped: bool = False
    reason: str | None = None
    original_texts: dict[int, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"assignment": [list(p) for p in self.assignment],
                "replaced": self.replaced,
                "dropped": self.dropped,
                "reason": self.reason,
                "original_texts": {str(k): v for k, v in self.original_texts.items()}}


def filter_and_replace(doc: Document, scores: np.ndarray,
                       assignment: list[tuple[int, int]],
                       captioner) -> tuple[Document | None, PrepRecord]:
    """Repair a document according to its matched similarities: the matched
    text of each image scoring below ``DEFAULT_REPLACE_BELOW`` becomes a
    generated caption. Media and segment order are kept; only texts change.

    A captioner that raises, or returns anything but a ``str``, quarantines
    the document rather than killing the pipeline.
    """
    scores = np.asarray(scores, dtype=np.float64)
    rec = PrepRecord(assignment=list(assignment))
    spans = doc.text_spans()
    for i, t in assignment:
        if not 0 <= i < len(doc.media):
            raise ValueError(f"assignment image index {i} out of range")
        if not 0 <= t < len(spans):
            raise ValueError(f"assignment text index {t} out of range")

    new_texts = [span.text for span in spans]
    for i, t in sorted(assignment):
        if scores[i, t] >= DEFAULT_REPLACE_BELOW:
            continue
        try:
            generated = captioner.generate(doc.media[i])
            if not isinstance(generated, str):
                raise TypeError(f"returned {type(generated).__name__}, not str")
        except Exception as e:  # noqa: BLE001 - quarantine whatever went wrong
            rec.dropped = True
            rec.reason = f"captioner: {e}"
            return None, rec
        rec.original_texts[t] = new_texts[t]
        new_texts[t] = generated
        rec.replaced.append(i)

    texts = iter(new_texts)
    segments = [TextSpan(next(texts)) if isinstance(seg, TextSpan) else seg
                for seg in doc.segments]
    return Document(segments=segments, media=list(doc.media), doc_id=doc.doc_id), rec


# ---------------------------------------------------------------------------
# shard-level driver


def _unmatchable(doc: Document, raw) -> tuple[str | None, np.ndarray | None]:
    """(why ``doc`` cannot be matched against ``raw``, None) or (None, its
    similarity matrix)."""
    expected = (len(doc.media), len(doc.text_spans()))
    if raw is None:
        return "no similarity matrix", None
    if 0 in expected:
        return f"nothing to match: {expected[0]} media, {expected[1]} text spans", None
    try:
        scores = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
        return "similarity matrix is not a rectangular array of numbers", None
    if scores.shape != expected:
        return (f"similarity matrix shape {scores.shape}, expected {expected} "
                f"(media, text spans)"), None
    if not np.isfinite(scores).all():
        return "similarity matrix has non-finite entries", None
    return None, scores


def prep_shard(docs_in: list[Document], sims: dict[str, list[list[float]]],
               captioner, rng: np.random.Generator
               ) -> tuple[list[Document], dict[str, dict]]:
    """Noisy-match and repair each document by the fixed rule: match under
    the default noise, then replace the text of each image scoring below
    ``DEFAULT_REPLACE_BELOW`` with a generated caption.

    A document that cannot be matched is quarantined: its report entry
    records the reason and it is left out of the output. That is a document
    with no media or no text spans, or one whose similarity matrix is
    missing, is not a rectangular array of finite numbers, or is not shaped
    [media, text spans]."""
    out_docs: list[Document] = []
    report: dict[str, dict] = {}
    for doc in docs_in:
        reason, scores = _unmatchable(doc, sims.get(doc.doc_id))
        if reason is not None:
            report[doc.doc_id] = PrepRecord(dropped=True, reason=reason).to_dict()
            continue
        assignment = match(perturb(scores, rng))
        new_doc, rec = filter_and_replace(doc, scores, assignment, captioner)
        report[doc.doc_id] = rec.to_dict()
        if new_doc is not None:
            out_docs.append(new_doc)
    return out_docs, report


def load_sims(path: str) -> dict[str, list[list[float]]]:
    """Similarity matrices by document id, as ``prep_shard`` takes them."""
    with open(path) as f:
        return json.load(f)
