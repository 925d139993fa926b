import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmo import interleave as il
from cosmo.docs import Document, MediaItem, MediaRef, TextSpan


class EchoCaptioner:
    def generate(self, media):
        return f"generated caption for {media.source_id}"


class FailingCaptioner:
    def generate(self, media):
        raise RuntimeError("backend down")


def pair_doc(n=3):
    rng = np.random.default_rng(0)
    media = [MediaItem("image", rng.normal(size=(1, 2, 4)), source_id=f"m{i}")
             for i in range(n)]
    segments = []
    for i in range(n):
        segments += [MediaRef(i), TextSpan(f"text number {i}")]
    return Document(segments=segments, media=media, doc_id="d0")


# -- perturb ----------------------------------------------------------------

def test_perturb_leaves_input_untouched():
    rng = np.random.default_rng(0)
    scores = np.zeros((3, 3))
    il.perturb(scores, rng)
    assert (scores == 0).all()


def test_noise_clamped_and_std():
    rng = np.random.default_rng(1)
    noise = il.perturb(np.zeros((1_000_000,)), rng)
    assert noise.min() >= -0.08
    assert noise.max() <= 0.08
    # pre-clamp std: draw unclamped normals through the same generator path
    raw = np.random.default_rng(1).normal(0.0, 0.04, size=1_000_000)
    assert abs(raw.std() - 0.04) / 0.04 < 0.05


# -- match ------------------------------------------------------------------

def test_match_identity_dominant():
    scores = np.eye(3)
    assert il.match(scores) == [(0, 0), (1, 1), (2, 2)]


def test_match_contested_case():
    scores = np.array([[0.9, 0.1], [0.8, 0.2]])
    pairs = il.match(scores)
    assert pairs == [(0, 0), (1, 1)]
    assert abs(total(scores, pairs) - 1.1) < 1e-12


def total(scores, pairs):
    return float(sum(scores[i, t] for i, t in pairs))


def brute_force_best(scores):
    n = scores.shape[0]
    return max(sum(scores[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(scores.shape[1]), n))


def test_match_against_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        scores = rng.uniform(-1, 1, size=(4, 4))
        pairs = il.match(scores)
        assert abs(total(scores, pairs) - brute_force_best(scores)) < 1e-9


def test_match_rectangular():
    rng = np.random.default_rng(3)
    for _ in range(200):
        scores = rng.uniform(-1, 1, size=(2, 4))
        pairs = il.match(scores)
        assert len(pairs) == 2
        assert len({i for i, _ in pairs}) == 2
        assert len({t for _, t in pairs}) == 2
        assert abs(total(scores, pairs) - brute_force_best(scores)) < 1e-9
    # more images than texts: image indices distinct, texts exhausted
    for _ in range(200):
        scores = rng.uniform(-1, 1, size=(4, 2))
        pairs = il.match(scores)
        assert len(pairs) == 2
        assert abs(total(scores, pairs) - brute_force_best(scores.T)) < 1e-9


@st.composite
def score_matrices(draw):
    """Wide and tall matrices up to 6×6; integer-valued ones have ties."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        values = st.integers(-3, 3).map(float)
    else:
        values = st.floats(-1e3, 1e3, allow_nan=False)
    return np.array(draw(st.lists(values, min_size=n * m, max_size=n * m))
                    ).reshape(n, m)


@settings(max_examples=300, deadline=None)
@given(score_matrices())
def test_match_property_against_brute_force(scores):
    pairs = il.match(scores)
    n = min(scores.shape)
    assert len(pairs) == n
    assert [i for i, _ in pairs] == sorted({i for i, _ in pairs})
    assert len({t for _, t in pairs}) == n
    best = brute_force_best(scores if scores.shape[0] <= scores.shape[1] else scores.T)
    assert abs(total(scores, pairs) - best) <= 1e-9 * max(1.0, abs(best))
    assert il.match(scores) == pairs


def test_match_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        il.match(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_perturb_cannot_overturn_wide_margin():
    # diagonal dominance with margin > 2 * clamp survives any noise draw
    rng = np.random.default_rng(4)
    for trial in range(200):
        n = int(rng.integers(2, 6))
        base = rng.uniform(-0.5, 0.2, size=(n, n))
        diag = base.max(axis=1) + 0.161
        np.fill_diagonal(base, diag)
        noisy = il.perturb(base, rng)
        assert il.match(noisy) == [(i, i) for i in range(n)]


# -- filter_and_replace -----------------------------------------------------

def test_all_above_threshold_unchanged():
    doc = pair_doc()
    scores = np.full((3, 3), 0.05)
    np.fill_diagonal(scores, 0.5)
    out, rec = il.filter_and_replace(doc, scores, il.match(scores),
                                     EchoCaptioner())
    assert [s.text for s in out.text_spans()] == [s.text for s in doc.text_spans()]
    assert rec.replaced == []
    assert not rec.dropped


def test_single_low_pair_replaced_and_flagged():
    doc = pair_doc()
    scores = np.full((3, 3), 0.05)
    np.fill_diagonal(scores, [0.5, 0.15, 0.5])
    out, rec = il.filter_and_replace(doc, scores, il.match(scores),
                                     EchoCaptioner())
    spans = out.text_spans()
    assert spans[1].text == "generated caption for m1"
    assert rec.replaced == [1]
    assert rec.original_texts[1] == "text number 1"
    assert spans[0].text == "text number 0"
    assert len(out.media) == 3


def test_media_count_and_order_preserved():
    doc = pair_doc()
    rng = np.random.default_rng(5)
    for _ in range(20):
        scores = rng.uniform(0, 0.6, size=(3, 3))
        out, _ = il.filter_and_replace(doc, scores, il.match(scores),
                                       EchoCaptioner())
        assert [m.source_id for m in out.media] == ["m0", "m1", "m2"]
        assert [s.media_id for s in out.segments if isinstance(s, MediaRef)] \
            == [0, 1, 2]


def test_text_index_out_of_range_rejected():
    doc = pair_doc()
    scores = np.full((3, 4), 0.5)
    with pytest.raises(ValueError, match="text index 3"):
        il.filter_and_replace(doc, scores, [(0, 3), (1, 1), (2, 2)],
                              EchoCaptioner())


def test_captioner_failure_quarantines():
    doc = pair_doc()
    scores = np.eye(3) * 0.1  # everything below threshold
    out, rec = il.filter_and_replace(doc, scores, il.match(scores),
                                     FailingCaptioner())
    assert out is None
    assert rec.dropped
    assert "captioner" in rec.reason


@pytest.mark.parametrize("caption", [None, 42])
def test_captioner_non_str_quarantines(caption):
    # unchecked, the caption was written to the shard and serialize failed
    # on it only when training read the document
    class OddCaptioner:
        def generate(self, media):
            return caption

    scores = np.eye(3) * 0.1  # everything below threshold
    out, rec = il.filter_and_replace(pair_doc(), scores, il.match(scores),
                                     OddCaptioner())
    assert out is None
    assert rec.dropped
    assert rec.reason == f"captioner: returned {type(caption).__name__}, not str"


# -- shard driver -----------------------------------------------------------

def test_prep_shard_end_to_end():
    docs_in = [pair_doc()]
    sims = {"d0": (np.eye(3) * 0.5).tolist()}
    rng = np.random.default_rng(0)
    out, report = il.prep_shard(docs_in, sims, EchoCaptioner(), rng)
    assert len(out) == 1
    assert report["d0"]["dropped"] is False
    assert len(report["d0"]["assignment"]) == 3


def test_prep_shard_missing_sims():
    docs_in = [pair_doc()]
    rng = np.random.default_rng(0)
    out, report = il.prep_shard(docs_in, {}, EchoCaptioner(), rng)
    assert out == []
    assert report["d0"]["dropped"] is True


@pytest.mark.parametrize("shape", [(3, 4), (4, 3), (3, 2)],
                         ids=["extra_text", "extra_image", "missing_text"])
def test_prep_shard_quarantines_misshapen_sims(shape):
    # the out-of-range row or column scores best, so a solver that used it
    # would pair an image with a text that does not exist, or the reverse
    scores = np.full(shape, 0.05)
    np.fill_diagonal(scores, 0.5)
    scores[:, -1] = scores[-1, :] = 0.9
    docs_in = [pair_doc(), pair_doc()]
    docs_in[1].doc_id = "d1"
    sims = {"d0": scores.tolist(), "d1": (np.eye(3) * 0.5).tolist()}
    out, report = il.prep_shard(docs_in, sims, EchoCaptioner(),
                                np.random.default_rng(0))
    assert report["d0"]["dropped"] is True
    assert report["d0"]["reason"] == (f"similarity matrix shape {shape}, "
                                      f"expected (3, 3) (media, text spans)")
    assert report["d0"]["assignment"] == []
    # the rest of the shard goes on
    assert [d.doc_id for d in out] == ["d1"]
    assert report["d1"]["dropped"] is False


def media_only_doc():
    rng = np.random.default_rng(1)
    media = [MediaItem("image", rng.normal(size=(1, 2, 4)), source_id=f"m{i}")
             for i in range(2)]
    return Document(segments=[MediaRef(0), MediaRef(1)], media=media, doc_id="d0")


@pytest.mark.parametrize("doc,raw,reason", [
    (pair_doc(2), [[0.1, 0.2], [0.3]],
     "similarity matrix is not a rectangular array of numbers"),
    (pair_doc(2), [[0.1, "high"], [0.3, 0.4]],
     "similarity matrix is not a rectangular array of numbers"),
    (pair_doc(2), [[0.1, float("nan")], [0.3, 0.4]],
     "similarity matrix has non-finite entries"),
    # its [media, text spans] matrix is [2, 0]: the right shape, and empty
    (media_only_doc(), [[], []], "nothing to match: 2 media, 0 text spans"),
], ids=["ragged", "not_a_number", "nan", "media_without_text"])
def test_prep_shard_quarantines_unmatchable_input(doc, raw, reason):
    other = pair_doc()
    other.doc_id = "d1"
    sims = {"d0": raw, "d1": (np.eye(3) * 0.5).tolist()}
    out, report = il.prep_shard([doc, other], sims, EchoCaptioner(),
                                np.random.default_rng(0))
    assert report["d0"]["dropped"] is True
    assert report["d0"]["reason"] == reason
    # the rest of the shard goes on
    assert [d.doc_id for d in out] == ["d1"]
    assert report["d1"]["dropped"] is False
