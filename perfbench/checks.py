"""Output checks made apart from the program.

Each check takes the program's outputs plus what it needs to recompute them
independently, and returns a list of failure messages (empty when the
outputs are right).
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np

from . import reference

LOGIT_RTOL = 1e-9


def _close(a, b, rtol=LOGIT_RTOL) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * np.maximum(1.0, np.abs(b))))


# ---------------------------------------------------------------------------
# train_mixed


def forward_matches(params, cfg, samples, program_logits) -> list[str]:
    out = []
    for j, (s, got) in enumerate(zip(samples, program_logits)):
        ref = reference.logits(params, cfg, s.token_ids, s.media_features,
                               s.media_positions)
        if not _close(got, ref):
            out.append(f"forward_logits differs from the reference on sample {j}")
    return out


def first_losses_match(params, cfg, cycle, rows) -> list[str]:
    """The first cycle's per-source LM losses against the reference."""
    got = {r["type"]: r["lm_loss"] for r in rows}
    out = []
    for spec, batch in cycle:
        if not batch:
            continue
        ref = float(np.mean([reference.lm_loss(params, cfg, s) for s in batch]))
        if not _close(got.get(spec.name), ref):
            out.append(f"first LM loss of {spec.name}: {got.get(spec.name)} "
                       f"vs reference {ref}")
    return out


def params_updated(before: dict, model) -> list[str]:
    out = []
    for name, t in model.frozen_params.items():
        if not np.array_equal(t.data, before[name]):
            out.append(f"frozen parameter {name} changed")
    for name, t in model.learnable_params.items():
        if np.array_equal(t.data, before[name]):
            out.append(f"learnable parameter {name} never changed")
    return out


def loss_decreased(params, cfg, cycle, rows) -> list[str]:
    """The first cycle's mean LM loss, recomputed with the trained parameters,
    is below the loss the program reported for it before the first update."""
    early = float(np.mean([r["lm_loss"] for r in rows]))
    late = float(np.mean([np.mean([reference.lm_loss(params, cfg, s) for s in batch])
                          for _, batch in cycle if batch]))
    if not late < early:
        return [f"LM loss of the first cycle went from {early:.5f} to {late:.5f}"]
    return []


def no_guard_skips(events: list[dict]) -> list[str]:
    """The guard skipped nothing: every sub-loss was finite."""
    skips = [e for e in events if e.get("event") in ("skip", "cycle_skipped")]
    return [f"guard skipped {len(skips)} times, first {skips[0]}"] if skips else []


def checkpoint_restores(model, state, loader_state, loaded) -> list[str]:
    """A saved-then-loaded checkpoint equals the live training state bit for bit."""
    m2, s2, _, _, loader2 = loaded
    out = []
    for name, t in list(model.frozen_params.items()) + \
            list(model.learnable_params.items()):
        if not np.array_equal(t.data, m2.param(name).data):
            out.append(f"checkpoint changed parameter {name}")
    for name in model.learnable_params:
        if not (np.array_equal(state.adam_m[name], s2.adam_m[name])
                and np.array_equal(state.adam_v[name], s2.adam_v[name])):
            out.append(f"checkpoint changed Adam moments of {name}")
    if (state.step, state.opt_steps) != (s2.step, s2.opt_steps):
        out.append("checkpoint changed the step counters")
    if state.rng.bit_generator.state != s2.rng.bit_generator.state:
        out.append("checkpoint changed the RNG state")
    if loader_state != loader2:
        out.append("checkpoint changed the loader state")
    return out


# ---------------------------------------------------------------------------
# fewshot_k8


def greedy_matches(params, cfg, prompt, decoded: list[int], stop_id: int,
                   max_new: int) -> list[str]:
    """Every decoded token is the reference argmax given the tokens before it,
    and decoding stopped exactly where the reference picks ``stop_id``."""
    tokens, feats, positions = prompt
    ids = list(tokens)
    for j in range(min(len(decoded) + 1, max_new)):
        best = int(np.argmax(reference.logits(params, cfg, ids, feats,
                                              positions)[-1]))
        want = decoded[j] if j < len(decoded) else stop_id
        if best != want:
            return [f"decoded token {j} is {want}, reference argmax {best}"]
        ids.append(best)
    return []


# ---------------------------------------------------------------------------
# curate


def matching_optimal(perturbed: list[np.ndarray], assignments) -> list[str]:
    """Each assignment's total equals the brute-force best over injections."""
    out = []
    for j, (scores, pairs) in enumerate(zip(perturbed, assignments)):
        n_img, n_txt = scores.shape
        rows = np.arange(n_img)
        best = max(scores[rows, list(cols)].sum()
                   for cols in itertools.permutations(range(n_txt), n_img))
        got = sum(scores[i, t] for i, t in pairs)
        if len(pairs) != n_img or not _close(got, best):
            out.append(f"matching {j}: total {got} vs brute-force {best}")
    return out


def replaced_exactly_low(scores: list[np.ndarray], records: list[dict],
                         threshold: float) -> list[str]:
    out = []
    for j, (s, rec) in enumerate(zip(scores, records)):
        low = sorted(i for i, t in rec["assignment"] if s[i, t] < threshold)
        if sorted(rec["replaced"]) != low:
            out.append(f"document {j}: replaced {rec['replaced']}, "
                       f"below threshold {low}")
    return out


def shots_recovered(planted: list[list[int]], found: list[list[int]]) -> list[str]:
    return [f"video {j}: cuts {f}, planted {p}"
            for j, (p, f) in enumerate(zip(planted, found)) if list(p) != list(f)]


def _scatter(f: np.ndarray, cuts) -> float:
    f = f / np.maximum(np.linalg.norm(f, axis=1, keepdims=True), 1e-12)
    edges = [0, *cuts, len(f)]
    return float(sum(((f[lo:hi] - f[lo:hi].mean(axis=0)) ** 2).sum()
                     for lo, hi in zip(edges[:-1], edges[1:])))


def kts_exhaustive(sequences, results) -> list[str]:
    """results[(j, m)] = (cuts, scatter) of fixed mode with m cuts on sequence j."""
    out = []
    for (j, m), (cuts, scatter) in results.items():
        f = sequences[j]
        best = min(_scatter(f, c)
                   for c in itertools.combinations(range(1, len(f)), m))
        if not (_close(scatter, best, 1e-8) and _close(_scatter(f, cuts), best, 1e-8)):
            out.append(f"sequence {j}, {m} cuts: scatter {scatter}, "
                       f"exhaustive {best}")
    return out


def kmeans_consistent(x: np.ndarray, ids: list[str], clustering,
                      max_iters: int) -> list[str]:
    labels = np.array([clustering.assignment[i] for i in ids])
    c = clustering.centroids
    out = []
    hist = clustering.inertia_history
    if any(b > a * (1 + 1e-12) for a, b in zip(hist, hist[1:])):
        out.append(f"inertia rose: {hist}")
    inertia = float(((x - c[labels]) ** 2).sum())
    if not _close(clustering.inertia, inertia):
        out.append(f"inertia {clustering.inertia} vs recomputed {inertia}")
    if len(hist) >= max_iters:  # never converged: the rest need not hold
        return out
    d2 = ((x ** 2).sum(1)[:, None] - 2 * x @ c.T + (c ** 2).sum(1)[None, :])
    own = d2[np.arange(len(x)), labels]
    if np.any(own > d2.min(axis=1) + 1e-9 * np.maximum(1.0, own)):
        out.append(f"{int((own > d2.min(axis=1) + 1e-9).sum())} points are not "
                   f"nearest their own centroid")
    for j in range(len(c)):
        if not _close(c[j], x[labels == j].mean(axis=0)):
            out.append(f"centroid {j} is not the mean of its members")
            break
    return out


def largest_remainder(sizes: list[int], m: int) -> list[int]:
    n = sum(sizes)
    exact = [m * s / n for s in sizes]
    quotas = [int(e) for e in exact]
    order = sorted(range(len(sizes)),
                   key=lambda i: (exact[i] - quotas[i], sizes[i], -i), reverse=True)
    for i in order[:m - sum(quotas)]:
        quotas[i] += 1
    return quotas


def selection_fair(selected: list[str], clustering, m: int) -> list[str]:
    out = []
    if len(selected) != m or len(set(selected)) != m:
        out.append(f"selected {len(selected)} ids, {len(set(selected))} distinct, "
                   f"wanted {m}")
    k = len(clustering.centroids)
    sizes = Counter(clustering.assignment.values())
    want = largest_remainder([sizes[c] for c in range(k)], m)
    got = Counter(clustering.assignment[i] for i in selected)
    if [got[c] for c in range(k)] != want:
        out.append(f"per-cluster counts {[got[c] for c in range(k)]}, "
                   f"largest-remainder quotas {want}")
    return out
