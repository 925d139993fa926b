"""Pre-training corpus selection: similarity filter, k-means, spread sampling.

Large web-scraped pair datasets are redundant; we keep the better-aligned
half, cluster the embeddings, and draw a per-cluster quota spread evenly over
each cluster's distance-to-centroid spectrum so the selection covers both
typical and fringe members.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EmbeddedPair:
    id: str
    embedding: np.ndarray
    similarity: float


@dataclass
class Clustering:
    centroids: np.ndarray  # [k, d]
    assignment: dict[str, int]
    inertia: float
    inertia_history: list[float] = field(default_factory=list)


def filter_half(pairs: list[EmbeddedPair]) -> list[EmbeddedPair]:
    """Keep the ceil(n/2) highest-similarity pairs; ties broken by id."""
    if len(pairs) < 2:
        raise ValueError(f"need at least 2 pairs, got {len(pairs)}")
    neg_sims = np.array([-p.similarity for p in pairs], dtype=np.float64)
    finite = np.isfinite(neg_sims)
    if not finite.all():
        raise ValueError(f"pair {pairs[int(np.argmin(finite))].id!r} has a "
                         f"non-finite similarity")
    keep = (len(pairs) + 1) // 2
    # object keys compare as Python str (a unicode array drops trailing NULs)
    ids = np.array([p.id for p in pairs], dtype=object)
    return [pairs[i] for i in np.lexsort((ids, neg_sims))[:keep].tolist()]


# Relative slack under which two squared distances count as tied in kmeans.
_TIE_EPS = 1e-12


def _sq_dist(x: np.ndarray, xx: np.ndarray, c: np.ndarray) -> np.ndarray:
    """||x - c||^2 per row as xx - 2 x.c + c.c, with ties to c read as 0."""
    cc = c @ c
    d2 = xx - 2.0 * (x @ c) + cc
    d2[d2 <= _TIE_EPS * (xx + cc)] = 0.0
    return d2


def _kmeans_pp_init(x: np.ndarray, xx: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    d2 = _sq_dist(x, xx, centroids[0])
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = x[idx]
        d2 = np.minimum(d2, _sq_dist(x, xx, centroids[j]))
    return centroids


def kmeans(pairs: list[EmbeddedPair], k: int, max_iters: int = 50,
           seed: int = 0) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when assignments stop changing or after max_iters. An empty cluster
    is repaired by stealing the point farthest from its centroid out of the
    largest cluster. After the first pass a point changes cluster only for a
    centroid nearer by more than ``_TIE_EPS`` of the squared norms, so when k
    exceeds the number of distinct points the duplicated centroids settle
    instead of trading points until max_iters. Squared distances to the
    centroids are computed as ||x||^2 - 2 x.c + ||c||^2 (one matrix product
    per pass, ||x||^2 once per call). Its rounding error is about
    eps * ||x||^2, so it agrees with the direct sum of squared differences
    only while the points' norms are near the scale of the distances between
    them (in `curate`, norms of about 40 against distances of 8 to 20); far
    from the origin a distance can read negative and near-equidistant
    centroids can swap order, changing the assignment and the point the
    empty-cluster repair takes. Each update takes all k means as one
    one-hot [k, n] product with the points over the cluster sizes; BLAS may
    sum in another order than a per-cluster mean, so a centroid can differ
    from that mean in the last bits.

    The k-means++ seeding takes its D^2 weights in the same form, one
    matrix-vector product per centroid, so they differ from the direct sum in
    the last bits. A weight within ``_TIE_EPS`` of the squared norms (a point
    on a chosen centroid, or a negative rounding) reads exactly 0, so a
    duplicate of a chosen point is never drawn, and a zero total (every point
    on a centroid) falls back to a uniform draw. Ids must be unique.
    """
    n = len(pairs)
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points {n}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    ids = [p.id for p in pairs]
    if len(set(ids)) < n:
        counts = Counter(ids)
        dup = next(i for i in ids if counts[i] > 1)
        raise ValueError(f"pair id {dup!r} appears more than once")
    x = np.array([p.embedding for p in pairs], dtype=np.float64)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {ids[int(np.argmin(finite))]!r} has a "
                         f"non-finite embedding")
    xx = (x * x).sum(axis=1)
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, xx, k, rng)
    labels = np.full(n, -1)
    history: list[float] = []
    rows = np.arange(n)
    for _ in range(max_iters):
        cc = (centroids * centroids).sum(axis=1)
        d2 = xx[:, None] - 2.0 * (x @ centroids.T) + cc
        new_labels = d2.argmin(axis=1)
        if history:
            # Keep a point where it is unless another centroid is nearer by
            # more than d2's rounding: coinciding centroids (a cluster's mean
            # and a copy of one of its points) then never trade points.
            slack = _TIE_EPS * (xx + cc.max())
            stay = d2[rows, labels] <= d2[rows, new_labels] + slack
            new_labels[stay] = labels[stay]
        sizes = np.bincount(new_labels, minlength=k)
        # the donor keeps at least one point (k <= n), so no repair empties one
        for empty in np.flatnonzero(sizes == 0).tolist():
            donor = int(sizes.argmax())
            members = np.flatnonzero(new_labels == donor)
            far = members[d2[members, donor].argmax()]
            new_labels[far] = empty
            sizes[donor] -= 1
            sizes[empty] = 1
            centroids[empty] = x[far]
            d2[:, empty] = ((x - centroids[empty]) ** 2).sum(axis=1)
        if (new_labels == labels).all():
            break
        labels = new_labels
        onehot = np.zeros((k, n))
        onehot[labels, rows] = 1.0
        centroids = (onehot @ x) / sizes[:, None]
        history.append(float(((x - centroids[labels]) ** 2).sum()))
    # The first pass always updates. A pass that stops can only have repaired
    # a cluster whose one member it already was, which leaves its centroid as
    # it was, so the last update's centroids and inertia stand.
    return Clustering(centroids=centroids, assignment=dict(zip(ids, labels.tolist())),
                      inertia=history[-1], inertia_history=history)


def proportional_quotas(sizes: list[int], m_total: int) -> list[int]:
    """Largest-remainder rounding of per-cluster quotas.

    No quota exceeds its cluster's size: for m_total < n each floor is at
    most size - 1 before its +1, and for m_total = n nothing is rounded.
    """
    n = sum(sizes)
    if m_total > n:
        raise ValueError(f"m_total={m_total} exceeds population {n}")
    exact = [m_total * s / n for s in sizes]
    quotas = [int(e) for e in exact]
    remainders = [(e - q, s, -i) for i, (e, q, s) in
                  enumerate(zip(exact, quotas, sizes))]
    deficit = m_total - sum(quotas)
    for _, _, neg_i in sorted(remainders, reverse=True)[:deficit]:
        quotas[-neg_i] += 1
    return quotas


def spread_ranks(size: int, quota: int) -> list[int]:
    """Evenly spaced distance ranks: floor(j * size / quota)."""
    return [j * size // quota for j in range(quota)]


def distance_uniform_sample(clustering: Clustering, pairs: list[EmbeddedPair],
                            m_total: int, rng: np.random.Generator,
                            mode: str = "spread") -> list[str]:
    """Select m_total ids with per-cluster quotas proportional to size.

    ``spread`` walks each cluster's members in distance-to-centroid order and
    picks evenly spaced ranks; ``random`` draws uniformly within the cluster.
    """
    if mode not in ("spread", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    row = {p.id: i for i, p in enumerate(pairs)}
    x = np.array([p.embedding for p in pairs], dtype=np.float64)
    k = clustering.centroids.shape[0]
    members: list[list[str]] = [[] for _ in range(k)]
    for pid, c in clustering.assignment.items():
        members[c].append(pid)
    sizes = [len(m) for m in members]
    quotas = proportional_quotas(sizes, m_total)
    selected: list[str] = []
    for c in range(k):
        if quotas[c] == 0 or not members[c]:
            continue
        diff = x[[row[pid] for pid in members[c]]] - clustering.centroids[c]
        # row-wise BLAS dot: the same sum np.linalg.norm takes of one vector
        dist = np.sqrt(diff[:, None, :] @ diff[:, :, None]).ravel().tolist()
        ordered = [pid for _, pid in sorted(zip(dist, members[c]))]
        if mode == "spread":
            selected.extend(ordered[r] for r in spread_ranks(len(ordered), quotas[c]))
        else:
            picks = rng.choice(len(ordered), size=quotas[c], replace=False)
            selected.extend(ordered[i] for i in sorted(picks))
    return selected


# ---------------------------------------------------------------------------
# on-disk formats: raw float32 embeddings with a JSON index, similarity CSV


def write_embeddings(path: str, ids: list[str], embeddings: np.ndarray) -> None:
    arr = np.asarray(embeddings, dtype="<f4")
    with open(path, "wb") as f:
        f.write(arr.tobytes())
    with open(path + ".json", "w") as f:
        json.dump({"ids": list(ids), "dim": int(arr.shape[1])}, f)


def read_embeddings(path: str) -> tuple[list[str], np.ndarray]:
    with open(path + ".json") as f:
        meta = json.load(f)
    raw = np.fromfile(path, dtype="<f4")
    mat = raw.reshape(len(meta["ids"]), meta["dim"]).astype(np.float64)
    return meta["ids"], mat


def write_similarities(path: str, sims: dict[str, float]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        for pid, s in sims.items():
            w.writerow([pid, s])


def read_similarities(path: str) -> dict[str, float]:
    out: dict[str, float] = {}
    with open(path, newline="") as f:
        for row in csv.reader(f):
            if row:
                out[row[0]] = float(row[1])
    return out


def load_pairs(embeddings_path: str, sims_path: str) -> list[EmbeddedPair]:
    ids, mat = read_embeddings(embeddings_path)
    sims = read_similarities(sims_path)
    missing = [i for i in ids if i not in sims]
    if missing:
        raise ValueError(f"{len(missing)} ids lack similarity scores "
                         f"(first: {missing[0]})")
    return [EmbeddedPair(id=i, embedding=mat[j], similarity=sims[i])
            for j, i in enumerate(ids)]
