import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cosmo import docs
from cosmo.docs import (BOS, EOC, PAD, VISUAL, Document, MediaItem, MediaRef,
                        TextSpan, Vocab, build_vocab, loss_mask, sample_window,
                        serialize)


def make_media(d=4, frames=1, patches=2, kind="image", seed=0, **kw):
    rng = np.random.default_rng(seed)
    return MediaItem(kind=kind, features=rng.normal(size=(frames, patches, d)),
                     **kw)


# -- vocab ------------------------------------------------------------------

def test_frequency_order():
    v = build_vocab(["a a b"], max_size=300)
    assert v.word_to_id["a"] < v.word_to_id["b"]


def test_tie_break_lexicographic():
    v = build_vocab(["b a c a b c"], max_size=300)
    assert v.word_to_id["a"] < v.word_to_id["b"] < v.word_to_id["c"]


def test_oov_word_becomes_bytes():
    v = build_vocab(["hello world"], max_size=300)
    ids = v.tokenize("qzx")
    assert len(ids) == 3
    assert all(5 <= i < docs.FIRST_WORD_ID for i in ids)


def test_max_size_budget():
    words = " ".join(f"w{i}" for i in range(100))
    v = build_vocab([words], max_size=310)
    assert len(v.id_to_word) == 310 - docs.FIRST_WORD_ID


def test_empty_corpus():
    with pytest.raises(ValueError, match="empty"):
        build_vocab([], max_size=300)
    with pytest.raises(ValueError, match="max_size"):
        build_vocab(["a"], max_size=100)


def test_roundtrip_random_strings():
    rng = np.random.default_rng(0)
    v = build_vocab(["the cat sat on the mat"], max_size=300)
    alphabet = list("abcdefgh ")
    for _ in range(200):
        s = "".join(rng.choice(alphabet) for _ in range(rng.integers(1, 40)))
        normalized = " ".join(s.split())
        assert v.detokenize(v.tokenize(normalized)) == normalized


def test_roundtrip_mixed_known_unknown():
    v = build_vocab(["the cat"], max_size=300)
    for s in ("the qzx cat", "qzx qzy", "qzx the qzy zz the"):
        assert v.detokenize(v.tokenize(s)) == s


# -- serialize --------------------------------------------------------------

def test_serialize_media_then_text():
    v = build_vocab(["hi there"], max_size=300)
    doc = Document(segments=[MediaRef(0), TextSpan("hi")], media=[make_media()])
    ids, media_slice, text_slice = serialize(doc, v)
    assert ids == [BOS, VISUAL, v.word_to_id["hi"], EOC]
    assert media_slice == [(1, 0)]
    assert text_slice == [(2, 3)]


def test_serialize_text_only():
    v = build_vocab(["a b"], max_size=300)
    doc = Document(segments=[TextSpan("a")], media=[])
    ids, media_slice, text_slice = serialize(doc, v)
    assert ids == [BOS, v.word_to_id["a"], EOC]
    assert media_slice == []
    assert text_slice == [(1, 2)]


def test_serialize_counts():
    v = build_vocab(["x y"], max_size=300)
    doc = Document(segments=[MediaRef(0), TextSpan("x"), MediaRef(1), TextSpan("y")],
                   media=[make_media(), make_media()])
    ids, media_slice, _ = serialize(doc, v)
    assert ids.count(VISUAL) == 2
    assert ids.count(EOC) == 2
    assert len(media_slice) == 2


@given(st.lists(st.one_of(st.none(), st.text(alphabet="abqz ", max_size=12)),
                min_size=1, max_size=8))
def test_text_slice_reproduces_span_tokens(segments):
    """None stands for a media reference, a string for a text span."""
    v = build_vocab(["a b"], max_size=300)
    media = [make_media() for s in segments if s is None]
    segs, m = [], 0
    for s in segments:
        if s is None:
            segs.append(MediaRef(m))
            m += 1
        else:
            segs.append(TextSpan(s))
    ids, media_slice, text_slice = serialize(Document(segs, media), v)
    spans = [s for s in segments if s is not None]
    assert len(text_slice) == len(spans)
    for (lo, hi), text in zip(text_slice, spans):
        assert ids[lo:hi] == v.tokenize(text)
        assert ids[hi] == EOC
    assert [ids[p] for p, _ in media_slice] == [VISUAL] * len(media)


# known words, and arbitrary words (any script, control characters included)
# that fall back to bytes
words = st.one_of(st.sampled_from(["the", "cat", "sat"]),
                  st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
                          max_size=5))


@given(st.lists(st.one_of(st.none(), st.lists(words, max_size=6).map(" ".join)),
                min_size=1, max_size=6))
def test_detokenized_text_slice_recovers_normalized_span(segments):
    """None stands for a media reference, a string for a text span."""
    v = build_vocab(["the cat sat"], max_size=300)
    media, segs = [], []
    for s in segments:
        if s is None:
            segs.append(MediaRef(len(media)))
            media.append(make_media())
        else:
            segs.append(TextSpan(s))
    ids, _, text_slice = serialize(Document(segs, media), v)
    spans = [s for s in segments if s is not None]
    assert len(text_slice) == len(spans)
    for (lo, hi), text in zip(text_slice, spans):
        assert v.detokenize(ids[lo:hi]) == " ".join(text.split())


def test_document_validation():
    with pytest.raises(ValueError, match="media_id"):
        Document(segments=[MediaRef(0)], media=[])
    with pytest.raises(ValueError, match="segment"):
        Document(segments=[], media=[])


def test_video_frame_cap():
    with pytest.raises(ValueError, match="frames"):
        make_media(frames=4, kind="video")
    make_media(frames=3, kind="video")  # ok


# -- window sampling --------------------------------------------------------

def synth_doc_tokens(rng, n_tokens=1000, n_media=5):
    tokens = list(rng.integers(docs.FIRST_WORD_ID, docs.FIRST_WORD_ID + 50,
                               size=n_tokens))
    tokens[0] = BOS
    positions = sorted(rng.choice(np.arange(10, n_tokens - 1), size=n_media,
                                  replace=False).tolist())
    media_slice = []
    for m, p in enumerate(positions):
        tokens[p] = VISUAL
        media_slice.append((p, m))
    return tokens, media_slice


def test_window_shorter_doc_kept_whole():
    rng = np.random.default_rng(0)
    tokens = [BOS, VISUAL, 300, 301, EOC]
    w = sample_window(tokens, [(1, 0)], L=128, rng=rng)
    assert w.token_ids == tokens
    assert w.anchor_media == 0
    assert (1, 0) in w.media_slice


def test_anchor_at_zero_no_shift():
    rng = np.random.default_rng(0)
    tokens = [VISUAL] + list(range(300, 330))
    for _ in range(20):
        w = sample_window(tokens, [(0, 0)], L=16, rng=rng)
        assert w.token_ids[0] == VISUAL
        assert (0, 0) in w.media_slice


def test_window_property_run():
    rng = np.random.default_rng(1)
    tokens, media_slice = synth_doc_tokens(rng)
    L = 128
    anchors_seen = set()
    for _ in range(10_000):
        w = sample_window(tokens, media_slice, L, rng)
        assert len(w.token_ids) <= L
        anchors_seen.add(w.anchor_media)
        anchor_ok = any(m == w.anchor_media for _, m in w.media_slice)
        assert anchor_ok
        # no dangling: every VISUAL token has a media_slice entry
        vis_positions = {p for p, _ in w.media_slice}
        for i, t in enumerate(w.token_ids):
            if t == VISUAL:
                assert i in vis_positions
        assert len(w.loss_mask) == len(w.token_ids)
        for p, _ in w.media_slice:
            assert w.loss_mask[p] == 0
    assert anchors_seen == set(range(5))


def test_anchor_frequencies_roughly_uniform():
    rng = np.random.default_rng(2)
    tokens, media_slice = synth_doc_tokens(rng)
    counts = np.zeros(5)
    n = 10_000
    for _ in range(n):
        w = sample_window(tokens, media_slice, 128, rng)
        counts[w.anchor_media] += 1
    # chi-square against uniform; 4 dof, reject only below p ~ 0.001 (chi2 > 18.47)
    expected = n / 5
    chi2 = ((counts - expected) ** 2 / expected).sum()
    assert chi2 < 18.47
    assert (counts > 0).all()


def test_window_reproducible_with_seed():
    rng_tokens = np.random.default_rng(3)
    tokens, media_slice = synth_doc_tokens(rng_tokens)
    a = sample_window(tokens, media_slice, 64, np.random.default_rng(42))
    b = sample_window(tokens, media_slice, 64, np.random.default_rng(42))
    assert a.token_ids == b.token_ids
    assert a.media_slice == b.media_slice
    assert a.anchor_media == b.anchor_media
    assert (a.loss_mask == b.loss_mask).all()


def test_window_min_length():
    with pytest.raises(ValueError, match=">= 8"):
        sample_window([BOS, 300], [], L=4, rng=np.random.default_rng(0))


def test_cut_off_media_context_masked():
    # window starting after media 0's placeholder masks the text governed by it
    tokens = [BOS, VISUAL] + [300] * 20 + [VISUAL] + [301] * 20
    media_slice = [(1, 0), (22, 1)]
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = sample_window(tokens, media_slice, 16, rng)
        if w.anchor_media == 1:
            start_tokens_in_window = [m for _, m in w.media_slice]
            if 0 not in start_tokens_in_window:
                # positions before media 1's placeholder belong to media 0
                vis1 = next(p for p, m in w.media_slice if m == 1)
                assert (w.loss_mask[:vis1] == 0).all()
                assert w.loss_mask[vis1 + 1:].sum() > 0


def _mask_by_definition(ids, media_slice, start):
    """Per token: not a placeholder or pad, and its governing media (the
    latest reference at or before it) is not cut off before ``start``."""
    out = []
    for i, tok in enumerate(ids):
        governing = max((p for p, _ in media_slice if p <= start + i), default=None)
        out.append(int(tok not in (VISUAL, PAD)
                       and (governing is None or governing >= start)))
    return out


@given(st.lists(st.sampled_from([BOS, EOC, VISUAL, PAD, 300, 301]), max_size=40),
       st.integers(0, 40), st.integers(0, 40))
def test_loss_mask_matches_definition(tokens, start, length):
    media_slice = [(p, m) for m, p in
                   enumerate(i for i, t in enumerate(tokens) if t == VISUAL)]
    ids = tokens[start:start + length]
    mask = loss_mask(ids, media_slice, start)
    assert mask.dtype == np.int8
    assert mask.tolist() == _mask_by_definition(ids, media_slice, start)


def test_no_media_doc_window_starts_at_zero():
    rng = np.random.default_rng(5)
    tokens = [BOS] + list(range(300, 340))
    w = sample_window(tokens, [], 16, rng)
    assert w.token_ids == tokens[:16]
    assert w.anchor_media is None
    assert w.loss_mask.sum() == 16  # plain text: everything predictable


# -- shard io ---------------------------------------------------------------

def test_shard_roundtrip(tmp_path):
    v = build_vocab(["red widget blue gizmo"], max_size=300)
    doc1 = Document(segments=[MediaRef(0), TextSpan("red widget")],
                    media=[make_media(seed=1, source_id="img-1")],
                    doc_id="a")
    doc2 = Document(
        segments=[MediaRef(0), TextSpan("blue gizmo"), MediaRef(1),
                  TextSpan("red widget")],
        media=[make_media(seed=2, frames=3, kind="video"), make_media(seed=3)],
        doc_id="b")
    path = str(tmp_path / "shard.jsonl")
    docs.write_shard([doc1, doc2], path)
    loaded = docs.read_shard(path)
    assert [d.doc_id for d in loaded] == ["a", "b"]
    assert loaded[0].media[0].source_id == "img-1"
    assert loaded[1].media[0].kind == "video"
    np.testing.assert_allclose(loaded[1].media[1].features,
                               doc2.media[1].features, rtol=1e-6)
    ids_a, _, _ = serialize(loaded[0], v)
    ids_b, _, _ = serialize(doc1, v)
    assert ids_a == ids_b
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shard.jsonl",
                                                          "shard.jsonl.bin"]


@pytest.mark.parametrize("edit, message", [
    # np.prod went negative, so frombuffer read every float to the end and
    # reshape inferred the -1: document 0 took both documents' features
    (lambda rec: rec["media"][0].update(shape=[1, -1, 4]),
     r"media shape \[1, -1, 4\] has an entry below 1"),
    # loaded, then serialize failed with AttributeError
    (lambda rec: rec["segments"][1].update(t=42),
     "text segment 42 is not a string")],
    ids=["negative_shape", "text_not_a_string"])
def test_read_shard_refuses_malformed_record(tmp_path, edit, message):
    path = str(tmp_path / "shard.jsonl")
    docs.write_shard([Document(segments=[MediaRef(0), TextSpan("red widget")],
                               media=[make_media(d=4, seed=i)], doc_id=str(i))
                      for i in range(2)], path)
    with open(path) as f:
        recs = [json.loads(line) for line in f]
    edit(recs[0])
    with open(path, "w") as f:
        f.writelines(json.dumps(rec) + "\n" for rec in recs)
    with pytest.raises(ValueError, match=f"{re.escape(path)} line 1: .*{message}"):
        docs.read_shard(path)
