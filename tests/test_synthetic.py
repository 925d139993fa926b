import dataclasses

import numpy as np
import pytest

from cosmo import model as cm
from cosmo import synthetic as sy
from cosmo import training as tr
from cosmo.docs import (BOS, EOC, VISUAL, Document, MediaItem, MediaRef, TextSpan,
                        build_vocab, serialize)

SHARDS = [("pairs_image", "image_text"), ("pairs_video", "video_text"),
          ("interleaved_image", "interleaved_image"),
          ("interleaved_video", "interleaved_video")]


def corpus(tmp_path):
    spec = sy.SyntheticTaskSpec(n_train=6, d_vision=8, n_patches=2)
    meta = sy.make_synthetic_corpus(spec, str(tmp_path))
    return meta, build_vocab(sy.corpus_texts(meta), max_size=300)


def tiny_model(vocab):
    return cm.build(cm.ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2,
                                   n_latents=2, d_vision=8, n_patches=2,
                                   d_embed_contrastive=8, max_seq=64), seed=0)


@pytest.mark.parametrize("field, value, message", [
    ("n_colors", 1, "need at least 2 classes and 2 colors"),
    ("n_colors", 0, "need at least 2 classes and 2 colors"),
    ("feature_noise", float("nan"), "feature_noise must be >= 0 and finite"),
    ("feature_noise", float("inf"), "feature_noise must be >= 0 and finite"),
    ("repeat_prob", -0.1, "repeat_prob must be in"),
    ("repeat_prob", 1.5, "repeat_prob must be in"),
    ("repeat_prob", float("nan"), "repeat_prob must be in")])
def test_spec_rejects_values_that_fail_later(field, value, message):
    # unchecked, fewer than 2 colors leave no seen combination for some class
    # and make_synthetic_corpus fails inside numpy, and a NaN noise writes
    # all-NaN features without an error
    with pytest.raises(ValueError, match=message):
        sy.SyntheticTaskSpec(**{field: value})


def test_corpus_loads_and_pair_spans_cover_captions(tmp_path):
    meta, vocab = corpus(tmp_path)
    specs = [tr.SourceSpec(name, data_type, 1.0, [str(tmp_path / f"{name}.jsonl")])
             for name, data_type in SHARDS]
    config = tr.TrainConfig(warmup_steps=0, batch_size=2, window_len=32)
    sources = tr.make_sources(specs, vocab, config)
    assert [len(s.docs) for s in sources] == [6] * 4
    rng = np.random.default_rng(0)
    for src in sources:
        src.reset_epoch(rng)
        samples = []
        while not src.exhausted():
            samples.extend(src.next_batch(rng))
        if src.spec.data_type not in tr.PAIRED_TYPES:
            assert samples and all(s.text_span is None for s in samples)
            continue
        docs = [src.docs[i] for i in src.perm]
        assert len(samples) == len(docs)
        for s, doc in zip(samples, docs):
            lo, hi = s.text_span
            assert s.token_ids[:lo] == [BOS, VISUAL]
            assert s.token_ids[lo:hi] == vocab.tokenize(doc.text_spans()[0].text)
            assert s.token_ids[hi:] == [EOC]


def test_episodes_hold_query_combo_in_one_word_order(tmp_path):
    meta, _ = corpus(tmp_path)
    rng = np.random.default_rng(1)
    for pool, combos in (("held_out", meta.held_out_combos),
                         ("seen", meta.seen_combos)):
        for ep in sy.make_episodes(meta, 3, 20, rng, pool=pool):
            assert ep.combo in combos
            assert ep.target == meta.caption(*ep.combo, ep.canonical)
            captions = [c for _, c in ep.support]
            assert len(captions) == 3 and ep.target in captions
            # canonical captions put the color word first
            assert all((c.split()[0] in sy.COLOR_WORDS) == ep.canonical
                       for c in captions)
            assert not any(np.array_equal(f, ep.query) for f, _ in ep.support)


def decode_caption(model, vocab, episode):
    """One episode's caption, decoded on its own."""
    out = cm.greedy_decode(model, *sy.episode_prompt(episode, vocab), stop_id=EOC,
                           max_new=sy.CAPTION_MAX_NEW)
    return vocab.detokenize(out)


def test_eval_fewshot_match_agrees_with_decode(tmp_path):
    meta, vocab = corpus(tmp_path)
    model = tiny_model(vocab)
    episodes = sy.make_episodes(meta, 2, 4, np.random.default_rng(2))
    # half the targets are what the model decodes, so both outcomes occur
    episodes = [dataclasses.replace(ep, target=decode_caption(model, vocab, ep))
                if i % 2 == 0 else ep for i, ep in enumerate(episodes)]
    res = sy.eval_fewshot(model, vocab, episodes, meta)
    assert res["per_episode_match"] == [
        decode_caption(model, vocab, ep) == ep.target for ep in episodes]
    assert all(res["per_episode_match"][0::2])
    assert res["caption_exact_match"] == np.mean(res["per_episode_match"])


def test_eval_and_retrieval_reject_empty_inputs(tmp_path):
    meta, vocab = corpus(tmp_path)
    model = tiny_model(vocab)
    with pytest.raises(ValueError, match="eval_fewshot: no episodes"):
        sy.eval_fewshot(model, vocab, [], meta)
    with pytest.raises(ValueError, match="retrieval_at_1: no queries"):
        sy.retrieval_at_1(model, vocab, [], [meta.caption(0, 0)])


def test_default_task_runs_on_the_default_model(tmp_path):
    # the spec's d_vision was 32 against the model's 16: encode_media failed
    meta = sy.make_synthetic_corpus(sy.SyntheticTaskSpec(), str(tmp_path))
    vocab = build_vocab(sy.corpus_texts(meta), max_size=300)
    model = cm.build(cm.ModelConfig(vocab_size=len(vocab)), seed=0)
    episodes = sy.make_episodes(meta, 2, 2, np.random.default_rng(0))
    res = sy.eval_fewshot(model, vocab, episodes, meta)
    assert len(res["per_episode_match"]) == 2


def test_batched_embeddings_match_unbatched_towers(tmp_path, monkeypatch):
    """Each row of the batched embeddings equals the tower run on a one-row
    batch of its caption or media item, as training runs it."""
    meta, vocab = corpus(tmp_path)
    model = tiny_model(vocab)
    rng = np.random.default_rng(4)
    for p in model.learnable_params.values():  # off the symmetric init
        p.data = p.data + rng.normal(scale=0.1, size=p.shape)
    # two caption lengths, right-padded into one unimodal pass
    captions = [meta.caption(0, 1), "red", meta.caption(2, 3, False), "blue",
                meta.caption(1, 1)]
    blank = MediaItem("image", np.zeros((1, 1, model.config.d_vision)))
    passes = []
    encode = cm.encode_text_unimodal
    with monkeypatch.context() as mp:
        mp.setattr(cm, "encode_text_unimodal",
                   lambda m, ids: passes.append(ids) or encode(m, ids))
        batched = sy.caption_text_embeddings(model, vocab, captions)
    assert len(passes) == 1 and len({len(ids) for ids in passes[0]}) == 2
    for row, caption in zip(batched, captions):
        tokens, _, ((lo, hi),) = serialize(
            Document(segments=[MediaRef(0), TextSpan(caption)], media=[blank]), vocab)
        th = cm.encode_text_unimodal(model, [tokens])
        want = cm.embed_text(model, th, [(lo, hi)]).data[0]
        assert np.abs(row - want).max() <= 1e-12
    feats = [sy.combo_features(meta, c, c, rng, video=c % 2 == 1) for c in range(3)]
    batched = sy.media_embeddings(model, feats)
    for row, f in zip(batched, feats):
        want = cm.embed_media(model, cm.encode_media(model, [f])).data[0]
        assert np.abs(row - want).max() <= 1e-12


def test_each_tower_embeds_without_the_other(tmp_path, monkeypatch):
    meta, vocab = corpus(tmp_path)
    model = tiny_model(vocab)
    query = sy.combo_features(meta, 0, 1, np.random.default_rng(3))

    def forbidden(*args):
        raise AssertionError("the other tower was encoded")

    with monkeypatch.context() as mp:
        mp.setattr(cm, "encode_media", forbidden)
        t = sy.caption_text_embeddings(model, vocab, [meta.caption(0, 1)])[0]
    with monkeypatch.context() as mp:
        mp.setattr(cm, "encode_text_unimodal", forbidden)
        v = sy.media_embeddings(model, [query])[0]
    assert t.shape == v.shape == (8,)
    assert abs(np.linalg.norm(t) - 1.0) < 1e-9
    assert abs(np.linalg.norm(v) - 1.0) < 1e-9
