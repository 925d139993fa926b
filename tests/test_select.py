import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cosmo import select as sel
from cosmo.select import EmbeddedPair, filter_half, kmeans


def make_pairs(embs, sims=None, prefix="p"):
    sims = sims if sims is not None else [0.5] * len(embs)
    return [EmbeddedPair(id=f"{prefix}{i:03d}", embedding=np.asarray(e, float),
                         similarity=s)
            for i, (e, s) in enumerate(zip(embs, sims))]


# -- filter_half ------------------------------------------------------------

def test_filter_keeps_high_similarity():
    pairs = make_pairs([[0.0], [1.0]], sims=[0.1, 0.9])
    kept = filter_half(pairs)
    assert [p.id for p in kept] == ["p001"]


def test_filter_ceiling():
    pairs = make_pairs([[i] for i in range(5)], sims=[0.1, 0.2, 0.3, 0.4, 0.5])
    assert len(filter_half(pairs)) == 3


def test_filter_ties_by_id():
    pairs = make_pairs([[i] for i in range(4)], sims=[0.5] * 4)
    kept = filter_half(pairs)
    assert sorted(p.id for p in kept) == ["p000", "p001"]


def test_filter_needs_two():
    with pytest.raises(ValueError):
        filter_half(make_pairs([[0.0]]))


@given(st.lists(st.tuples(st.text(max_size=4),
                          st.sampled_from([0.0, -0.0, 0.5, -1.5, 1e300])
                          | st.floats(allow_nan=False, allow_infinity=False)),
                min_size=2, max_size=40))
@example([("a\x00", 0.5), ("a", 0.5), ("é", 0.5), ("z", 0.5)])
def test_filter_equals_sorted_by_similarity_then_id(rows):
    pairs = [EmbeddedPair(id=i, embedding=np.zeros(1), similarity=s)
             for i, s in rows]
    want = sorted(pairs, key=lambda p: (-p.similarity, p.id))[:(len(pairs) + 1) // 2]
    got = filter_half(pairs)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


def test_filter_rejects_non_finite_similarity():
    # a NaN key has no defined place under sorted()
    for bad in (np.nan, np.inf, -np.inf):
        pairs = make_pairs([[0.0]] * 4, sims=[0.1, bad, 0.3, 0.2])
        with pytest.raises(ValueError,
                           match="pair 'p001' has a non-finite similarity"):
            filter_half(pairs)


# -- kmeans -----------------------------------------------------------------

def blobs(rng, centers, per, spread):
    embs, labels = [], []
    for ci, c in enumerate(centers):
        for _ in range(per):
            embs.append(c + rng.normal(scale=spread, size=len(c)))
            labels.append(ci)
    return embs, labels


def test_two_separated_blobs():
    rng = np.random.default_rng(0)
    centers = [np.zeros(4), np.full(4, 10.0)]
    embs, labels = blobs(rng, centers, per=20, spread=0.5)
    pairs = make_pairs(embs)
    clustering = kmeans(pairs, k=2, max_iters=50, seed=1)
    got = np.array([clustering.assignment[p.id] for p in pairs])
    first_half, second_half = got[:20], got[20:]
    assert len(set(first_half)) == 1
    assert len(set(second_half)) == 1
    assert first_half[0] != second_half[0]


def test_k_equals_n_zero_inertia():
    rng = np.random.default_rng(1)
    pairs = make_pairs(rng.normal(size=(6, 3)))
    clustering = kmeans(pairs, k=6, max_iters=20, seed=0)
    assert clustering.inertia < 1e-18


def test_k_greater_than_n():
    pairs = make_pairs([[0.0], [1.0]])
    with pytest.raises(ValueError):
        kmeans(pairs, k=3)
    for k in (0, -1):
        with pytest.raises(ValueError, match=f"k={k}"):
            kmeans(pairs, k=k)


def test_kmeans_rejects_non_finite_points():
    # k >= 2 failed inside numpy's k-means++ draw, and k = 1 returned a NaN
    # inertia
    embs = np.arange(10, dtype=float).reshape(5, 2)
    for bad in (np.nan, np.inf):
        embs[3, 0] = bad
        for k in (1, 2):
            with pytest.raises(ValueError, match="point 'p003' has a non-finite"):
                kmeans(make_pairs(embs), k=k)


def test_kmeans_rejects_duplicate_ids():
    # the assignment dict kept one entry per id, and selection then failed on
    # m_total
    pairs = make_pairs(np.arange(40, dtype=float).reshape(20, 2))
    for i in (7, 9, 12, 15, 18):
        pairs[i].id = pairs[i - 4].id
    with pytest.raises(ValueError, match="pair id 'p003' appears more than once"):
        kmeans(pairs, k=3)


@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                min_size=1, max_size=6, unique=True),
       st.data())
def test_seeding_picks_each_distinct_point_once(distinct, data):
    # far from the origin, xx - 2 x.c + c.c of a point on a centroid rounds
    # to a nonzero that the tie clamp must read as 0
    offset = data.draw(st.sampled_from([0.0, 1e3, -1e4]))
    points = np.asarray(distinct, dtype=float) / 8 + offset
    copies = data.draw(st.lists(st.integers(1, 4), min_size=len(points),
                                max_size=len(points)))
    x = np.repeat(points, copies, axis=0)
    x = x[np.random.default_rng(len(x)).permutation(len(x))]
    k = len(points) + data.draw(st.integers(0, min(2, len(x) - len(points))))
    seed = data.draw(st.integers(0, 1000))
    centroids = sel._kmeans_pp_init(x, (x * x).sum(axis=1), k,
                                    np.random.default_rng(seed))
    first = {tuple(c) for c in centroids[:len(points)]}
    assert first == {tuple(p) for p in points}


def test_inertia_monotone_over_100_seeds():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        pairs = make_pairs(rng.normal(size=(40, 5)))
        clustering = kmeans(pairs, k=5, max_iters=30, seed=seed)
        h = clustering.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(h, h[1:]))


@st.composite
def clouds(draw):
    """Points drawn with replacement from a few distinct ones, so clusters of
    duplicates leave k-means++ centroids coinciding and clusters empty."""
    d = draw(st.integers(1, 3))
    coord = st.integers(-800, 800).map(lambda v: v / 8)
    distinct = draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                             min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2, max_size=30))
    x = np.asarray(distinct, dtype=float)[picks]
    return x, draw(st.integers(1, len(x))), draw(st.integers(0, 1000))


@given(clouds())
@example((np.ones((5, 2)), 3, 0))
def test_kmeans_fixed_point_properties(cloud):
    x, k, seed = cloud
    pairs = make_pairs(x)
    max_iters = 30
    clustering = kmeans(pairs, k=k, max_iters=max_iters, seed=seed)
    scale = 1e-9 * ((x * x).sum(axis=1).max() + 1.0)
    h = clustering.inertia_history
    assert all(b <= a + scale for a, b in zip(h, h[1:]))
    labels = np.array([clustering.assignment[p.id] for p in pairs])
    c = clustering.centroids
    assert clustering.inertia == float(((x - c[labels]) ** 2).sum())
    if len(h) == max_iters:  # stopped by the cap, not at a fixed point
        return
    d2 = ((x[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(len(x)), labels]
    assert (own <= d2.min(axis=1) + scale).all()
    for j in range(k):
        members = x[labels == j]
        assert len(members) > 0
        np.testing.assert_allclose(c[j], members.mean(axis=0), rtol=1e-12, atol=1e-12)


def test_kmeans_settles_when_k_exceeds_distinct_points():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = np.repeat(rng.normal(size=(3, 4)), 10, axis=0)
        clustering = kmeans(make_pairs(x), k=5, max_iters=30, seed=seed)
        assert len(clustering.inertia_history) < 30, seed


def test_kmeans_deterministic():
    rng = np.random.default_rng(7)
    embs = rng.normal(size=(30, 4))
    a = kmeans(make_pairs(embs), k=4, max_iters=30, seed=9)
    b = kmeans(make_pairs(embs), k=4, max_iters=30, seed=9)
    assert a.assignment == b.assignment
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_every_point_assigned():
    rng = np.random.default_rng(3)
    pairs = make_pairs(rng.normal(size=(25, 3)))
    clustering = kmeans(pairs, k=6, max_iters=30, seed=3)
    assert set(clustering.assignment) == {p.id for p in pairs}
    assert set(clustering.assignment.values()) <= set(range(6))


# -- sampling ---------------------------------------------------------------

def test_spread_ranks_example():
    assert sel.spread_ranks(10, 5) == [0, 2, 4, 6, 8]


def test_quota_equals_size_takes_all():
    assert sel.spread_ranks(7, 7) == list(range(7))


def test_proportional_quotas_example():
    assert sel.proportional_quotas([30, 10], 4) == [3, 1]


def test_quotas_sum_and_caps():
    rng = np.random.default_rng(0)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        sizes = [int(rng.integers(1, 20)) for _ in range(k)]
        m = int(rng.integers(1, sum(sizes) + 1))
        q = sel.proportional_quotas(sizes, m)
        assert sum(q) == m
        assert all(0 <= qi <= si for qi, si in zip(q, sizes))


def test_selection_exact_size_and_coverage():
    rng = np.random.default_rng(5)
    centers = [np.zeros(3), np.full(3, 8.0), np.full(3, -8.0)]
    embs, _ = blobs(rng, centers, per=20, spread=0.6)
    pairs = make_pairs(embs)
    clustering = kmeans(pairs, k=3, max_iters=40, seed=2)
    ids = sel.distance_uniform_sample(clustering, pairs, 30,
                                      np.random.default_rng(0))
    assert len(ids) == 30
    assert len(set(ids)) == 30
    # spread picking covers the near and far ends of each cluster
    by_id = {p.id: p for p in pairs}
    for c in range(3):
        members = [pid for pid, cc in clustering.assignment.items() if cc == c]
        quota = sum(1 for i in ids if clustering.assignment[i] == c)
        if quota < 2:
            continue
        dist = {pid: np.linalg.norm(by_id[pid].embedding - clustering.centroids[c])
                for pid in members}
        ordered = sorted(members, key=lambda pid: (dist[pid], pid))
        chosen_ranks = sorted(ordered.index(i) for i in ids
                              if clustering.assignment[i] == c)
        assert chosen_ranks[0] == 0
        assert chosen_ranks[-1] >= len(ordered) - (len(ordered) + quota - 1) // quota


def stack_reference(clustering, pairs, m_total, rng, mode):
    """distance_uniform_sample as one np.stack of embeddings per cluster."""
    by_id = {p.id: p for p in pairs}
    k = clustering.centroids.shape[0]
    members = [[] for _ in range(k)]
    for pid, c in clustering.assignment.items():
        members[c].append(pid)
    quotas = sel.proportional_quotas([len(m) for m in members], m_total)
    selected = []
    for c in range(k):
        if quotas[c] == 0 or not members[c]:
            continue
        diff = np.stack([by_id[pid].embedding for pid in members[c]]) \
            - clustering.centroids[c]
        dist = np.sqrt(diff[:, None, :] @ diff[:, :, None]).ravel().tolist()
        ordered = [pid for _, pid in sorted(zip(dist, members[c]))]
        if mode == "spread":
            selected.extend(ordered[r] for r in sel.spread_ranks(len(ordered),
                                                                 quotas[c]))
        else:
            picks = rng.choice(len(ordered), size=quotas[c], replace=False)
            selected.extend(ordered[i] for i in sorted(picks))
    return selected


@given(st.data())
def test_selection_equals_per_cluster_stack(data):
    # coarse coordinates tie distances, so the id breaks them; float32
    # embeddings and pairs outside the clustering are gathered by row as well
    n = data.draw(st.integers(2, 30))
    d = data.draw(st.integers(1, 4))
    coord = st.integers(-16, 16).map(lambda v: v / 4) | st.floats(-4, 4)
    x = np.asarray(data.draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                      min_size=n + 3, max_size=n + 3)))
    if data.draw(st.booleans()):
        x = x.astype(np.float32)
    pairs = [EmbeddedPair(id=f"p{i:03d}", embedding=e, similarity=0.5)
             for i, e in enumerate(x)]
    data.draw(st.randoms()).shuffle(pairs)
    k = data.draw(st.integers(1, 4))
    labels = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    clustering = sel.Clustering(
        centroids=np.asarray(data.draw(st.lists(
            st.lists(coord, min_size=d, max_size=d), min_size=k, max_size=k))),
        assignment={p.id: c for p, c in zip(pairs, labels)}, inertia=0.0)
    m = data.draw(st.integers(1, n))
    for mode in ("spread", "random"):
        got = sel.distance_uniform_sample(clustering, pairs, m,
                                          np.random.default_rng(m), mode)
        assert got == stack_reference(clustering, pairs, m,
                                      np.random.default_rng(m), mode)


def test_selection_deterministic():
    rng = np.random.default_rng(6)
    pairs = make_pairs(rng.normal(size=(50, 4)))
    clustering = kmeans(pairs, k=5, max_iters=30, seed=1)
    a = sel.distance_uniform_sample(clustering, pairs, 20, np.random.default_rng(3))
    b = sel.distance_uniform_sample(clustering, pairs, 20, np.random.default_rng(3))
    assert a == b


def test_random_mode_exact_size():
    rng = np.random.default_rng(8)
    pairs = make_pairs(rng.normal(size=(30, 4)))
    clustering = kmeans(pairs, k=3, max_iters=30, seed=1)
    ids = sel.distance_uniform_sample(clustering, pairs, 12,
                                      np.random.default_rng(0), mode="random")
    assert len(ids) == 12
    assert len(set(ids)) == 12


# -- file formats -----------------------------------------------------------

def test_embedding_and_similarity_files(tmp_path):
    rng = np.random.default_rng(0)
    ids = [f"id{i}" for i in range(10)]
    embs = rng.normal(size=(10, 6)).astype(np.float32)
    epath = str(tmp_path / "emb.bin")
    sel.write_embeddings(epath, ids, embs)
    got_ids, got = sel.read_embeddings(epath)
    assert got_ids == ids
    np.testing.assert_allclose(got, embs, rtol=1e-6)

    spath = str(tmp_path / "sims.csv")
    sims = {i: float(rng.uniform()) for i in ids}
    sel.write_similarities(spath, sims)
    assert sel.read_similarities(spath) == pytest.approx(sims)

    pairs = sel.load_pairs(epath, spath)
    assert [p.id for p in pairs] == ids


def test_load_pairs_missing_similarity(tmp_path):
    epath = str(tmp_path / "emb.bin")
    sel.write_embeddings(epath, ["a", "b"], np.zeros((2, 3), dtype=np.float32))
    spath = str(tmp_path / "sims.csv")
    sel.write_similarities(spath, {"a": 0.5})
    with pytest.raises(ValueError, match="lack similarity"):
        sel.load_pairs(epath, spath)
