import itertools
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cosmo import interlink as ik
from cosmo.docs import MediaRef, TextSpan, serialize, build_vocab
from cosmo.interlink import (ClipAnnotation, DenseCaption, FrameFeatureSeq,
                             MockAnnotator, build_prompt, kts_segment)


def seq_from(features):
    features = np.asarray(features, dtype=float)
    return FrameFeatureSeq(features=features,
                           timestamps=np.arange(len(features), dtype=float))


def exhaustive_min_scatter(features, m):
    """Brute-force minimum scatter over all placements of m cuts."""
    f = features / np.maximum(np.linalg.norm(features, axis=1, keepdims=True),
                              1e-12)
    n = len(f)

    def seg_cost(lo, hi):
        x = f[lo:hi]
        return float(((x - x.mean(axis=0)) ** 2).sum())

    best = np.inf
    for cuts in itertools.combinations(range(1, n), m):
        edges = [0, *cuts, n]
        total = sum(seg_cost(a, b) for a, b in zip(edges[:-1], edges[1:]))
        best = min(best, total)
    return best


def reference_segment_costs(features):
    """Per-entry double loop over the cumulative Gram sums that
    ``_segment_costs`` computes as one array expression."""
    f = features / np.maximum(np.linalg.norm(features, axis=1, keepdims=True),
                              1e-12)
    gram = f @ f.T
    n = gram.shape[0]
    diag_cum = np.concatenate([[0.0], np.cumsum(np.diag(gram))])
    block = np.zeros((n + 1, n + 1))
    block[1:, 1:] = gram.cumsum(axis=0).cumsum(axis=1)
    cost = np.full((n + 1, n + 1), np.inf)
    for i in range(n):
        for j in range(i + 1, n + 1):
            mass = block[j, j] - block[i, j] - block[j, i] + block[i, i]
            cost[i, j] = diag_cum[j] - diag_cum[i] - mass / (j - i)
    return cost


@st.composite
def frame_features(draw, max_frames):
    """Random, constant or all-zero [n, d] frame features."""
    n = draw(st.integers(2, max_frames))
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "constant", "zero"]))
    if kind == "zero":
        return np.zeros((n, d))
    rows = n if kind == "random" else 1
    values = draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=rows * d,
                           max_size=rows * d))
    return np.tile(np.reshape(values, (rows, d)), (n // rows, 1))


# -- kts --------------------------------------------------------------------

@given(frame_features(max_frames=40))
def test_segment_costs_equal_per_entry_loop(feats):
    cost = ik._segment_costs(feats)
    np.testing.assert_array_equal(cost, reference_segment_costs(feats))
    assert np.isinf(cost[np.tril_indices(len(feats) + 1)]).all()


@pytest.mark.parametrize("row", [[1.0, 0.0], [0.0, 0.0]])
def test_constant_sequence_ties_take_earliest_cuts(row):
    b = kts_segment(seq_from([row] * 7), mode="fixed", n_cuts=2)
    assert b.cut_indices == [1, 2]
    assert b.scatter == 0.0


@settings(max_examples=60, deadline=None)
@given(frame_features(max_frames=8), st.integers(0, 8),
       st.floats(0.0, 3.0, allow_nan=False))
def test_auto_mode_equals_brute_force_argmin(feats, max_cuts, penalty):
    n = len(feats)
    b = kts_segment(seq_from(feats), mode="auto", max_cuts=max_cuts,
                    penalty=penalty)
    scatter = [exhaustive_min_scatter(feats, m)
               for m in range(min(max_cuts, n - 1) + 1)]
    objective = [s + (penalty * m * (np.log(n / m) + 1) if m else 0.0)
                 for m, s in enumerate(scatter)]
    m = len(b.cut_indices)
    assert abs(b.scatter - scatter[m]) < 1e-9
    assert objective[m] <= min(objective) + 1e-9


def test_two_block_sequence_exact_cut():
    u = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    seq = seq_from([u, u, u, v, v, v])
    b = kts_segment(seq, mode="fixed", n_cuts=1)
    assert b.cut_indices == [3]
    assert b.scatter < 1e-12


def test_constant_sequence_auto_zero_cuts():
    seq = seq_from([[1.0, 2.0]] * 8)
    b = kts_segment(seq, mode="auto", max_cuts=4)
    assert b.cut_indices == []
    assert b.scatter < 1e-12


def test_dp_equals_brute_force():
    rng = np.random.default_rng(0)
    for trial in range(500):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(1, min(4, n - 1) + 1))
        feats = rng.normal(size=(n, 3))
        seq = seq_from(feats)
        b = kts_segment(seq, mode="fixed", n_cuts=m)
        assert len(b.cut_indices) == m
        assert abs(b.scatter - exhaustive_min_scatter(feats, m)) < 1e-9


def test_scatter_monotone_in_cut_count():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(14, 4))
    seq = seq_from(feats)
    prev = np.inf
    for m in range(5):
        s = kts_segment(seq, mode="fixed", n_cuts=m).scatter
        assert s <= prev + 1e-12
        prev = s


def test_rotation_invariance():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(10, 4))
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    a = kts_segment(seq_from(feats), mode="fixed", n_cuts=2)
    b = kts_segment(seq_from(feats @ q), mode="fixed", n_cuts=2)
    assert a.cut_indices == b.cut_indices
    assert abs(a.scatter - b.scatter) < 1e-9


def test_fixed_mode_validation():
    seq = seq_from(np.eye(4))
    with pytest.raises(ValueError, match="n_cuts"):
        kts_segment(seq, mode="fixed", n_cuts=4)
    with pytest.raises(ValueError, match="n_cuts"):
        kts_segment(seq, mode="fixed")
    with pytest.raises(ValueError, match="n_cuts"):
        kts_segment(seq, mode="fixed", n_cuts=-1)
    with pytest.raises(ValueError, match="max_cuts"):
        kts_segment(seq, mode="auto", max_cuts=-2)


def test_frame_seq_validation():
    with pytest.raises(ValueError, match="increasing"):
        FrameFeatureSeq(features=np.zeros((3, 2)), timestamps=[0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="n_frames"):
        FrameFeatureSeq(features=np.zeros((1, 2)), timestamps=[0.0])


def test_segments_helper():
    b = ik.ShotBoundaries(cut_indices=[3, 7], scatter=0.0)
    assert b.segments(10) == [(0, 3), (3, 7), (7, 10)]


# -- prompts ----------------------------------------------------------------

def ann(i, boxes=0):
    dense = [DenseCaption(box=(0.1, 0.1, 0.5, 0.6), text=f"object {i}")
             for _ in range(boxes)]
    return ClipAnnotation(asr=f"speaker says thing {i}",
                          caption=f"a scene number {i}",
                          dense_captions=dense, clip_range=(2 * i, 2 * i + 2))


def test_first_prompt_has_no_history():
    p = build_prompt([], ann(0))
    assert "History" not in p
    assert "speaker says thing 0" in p


def test_history_window_holds_last_three():
    history = [f"summary {i}" for i in range(5)]  # clips 0..4 summarized
    p = build_prompt(history, ann(5))
    assert "summary 2" in p and "summary 3" in p and "summary 4" in p
    assert "summary 1" not in p
    i2, i3, i4 = (p.index(f"summary {i}") for i in (2, 3, 4))
    assert i2 < i3 < i4


def test_prompt_byte_stable():
    a = build_prompt(["s"], ann(1, boxes=2))
    b = build_prompt(["s"], ann(1, boxes=2))
    assert a == b


def test_box_validation():
    with pytest.raises(ValueError, match="box"):
        DenseCaption(box=(0.5, 0.1, 0.4, 0.6), text="bad")


# -- annotate_video ---------------------------------------------------------

def test_three_clips_alternating_structure():
    rng = np.random.default_rng(0)
    seq = seq_from(rng.normal(size=(6, 4)))
    anns = [ann(i) for i in range(3)]
    doc, quarantine = ik.annotate_video(seq, anns, MockAnnotator())
    assert quarantine == []
    kinds = [type(s).__name__ for s in doc.segments]
    assert kinds == ["MediaRef", "TextSpan"] * 3
    assert len(doc.media) == 3
    assert all(m.kind == "video" for m in doc.media)


def test_failed_clip_skipped_history_unchanged():
    class FlakyClient:
        def __init__(self):
            self.calls = 0

        def summarize(self, prompt):
            self.calls += 1
            if self.calls == 2:
                raise ik.AnnotatorError("timeout")
            return MockAnnotator().summarize(prompt)

    rng = np.random.default_rng(1)
    seq = seq_from(rng.normal(size=(6, 4)))
    anns = [ann(i) for i in range(3)]
    doc, quarantine = ik.annotate_video(seq, anns, FlakyClient())
    assert [q.clip for q in quarantine] == [1]
    assert len(doc.media) == 2
    # clip 2's prompt saw only clip 0's summary: its text mentions thing 2
    texts = [s.text for s in doc.segments if isinstance(s, TextSpan)]
    assert "thing 0" in texts[0]
    assert "thing 2" in texts[1]


def test_bad_clip_range_quarantined_history_unchanged():
    class Recorder(MockAnnotator):
        def __init__(self):
            self.prompts = []

        def summarize(self, prompt):
            self.prompts.append(prompt)
            return super().summarize(prompt)

    rng = np.random.default_rng(4)
    seq = seq_from(rng.normal(size=(10, 4)))
    bad = [ClipAnnotation(asr="a", caption="b"),  # default (0, 0) is empty
           ClipAnnotation(asr="a", caption="b", clip_range=(8, 40)),
           ClipAnnotation(asr="a", caption="b", clip_range=(6, 3))]
    anns = [ann(0), bad[0], bad[1], ann(2), bad[2]]
    client = Recorder()
    doc, quarantine = ik.annotate_video(seq, anns, client)
    assert [q.clip for q in quarantine] == [1, 2, 4]
    assert all("clip_range" in q.reason for q in quarantine)
    assert len(client.prompts) == 2  # the client never sees a bad clip
    assert "1. clip showing speaker says thing 0" in client.prompts[1]
    assert "2." not in client.prompts[1]
    assert len(doc.media) == 2
    assert [m.features.shape[0] for m in doc.media] == [2, 2]


def test_annotated_doc_roundtrips_through_serialization():
    rng = np.random.default_rng(2)
    seq = seq_from(rng.normal(size=(8, 4)))
    anns = [ann(i) for i in range(4)]
    doc, _ = ik.annotate_video(seq, anns, MockAnnotator())
    vocab = build_vocab([s.text for s in doc.segments
                         if isinstance(s, TextSpan)], max_size=400)
    ids, media_slice, _ = serialize(doc, vocab)
    assert len(media_slice) == 4
    assert ids.count(1) == 4  # one <EOC> per text span


def test_clip_media_features_subsampling():
    rng = np.random.default_rng(3)
    seq = seq_from(rng.normal(size=(10, 4)))
    feats = ik.clip_media_features(seq, 0, 10)
    assert feats.shape == (3, 1, 4)
    feats2 = ik.clip_media_features(seq, 4, 6)
    assert feats2.shape == (2, 1, 4)


# -- http client ------------------------------------------------------------

class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        if self.path == "/ok":
            body = json.dumps({"text": "echo: " + payload["prompt"][:12]}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/missing":
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(b"{}")
        else:
            self.send_response(500)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_http_annotator_roundtrip(http_server):
    client = ik.HttpAnnotator(http_server + "/ok", timeout=5)
    assert client.summarize("hello prompt") == "echo: hello prompt"


def test_http_annotator_error_paths(http_server):
    with pytest.raises(ik.AnnotatorError):
        ik.HttpAnnotator(http_server + "/boom", timeout=5).summarize("x")
    with pytest.raises(ik.AnnotatorError, match="no text"):
        ik.HttpAnnotator(http_server + "/missing", timeout=5).summarize("x")
