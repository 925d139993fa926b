"""The benchmark's own tests, at tiny sizes.

They check the output schema and that every output check fails on a planted
wrong output. They never assert a timing. Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from cosmo import interlink, synthetic  # noqa: E402
from cosmo import model as cm  # noqa: E402
from cosmo.docs import EOC  # noqa: E402
from perfbench import checks, inputs, reference, workloads  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

TINY_MODEL = dict(d_model=16, n_heads=2, n_latents=2, d_vision=8, n_patches=2,
                  d_embed_contrastive=8, max_seq=64)
TINY = {
    "train_mixed": lambda seed, d: workloads.TrainMixed(
        seed, d, inputs.TrainSizes(docs_per_source=8, batch_size=2, window_len=16,
                                   lr_max=5e-2, warmup_steps=1), TINY_MODEL),
    "fewshot_k8": lambda seed, d: workloads.FewshotK8(
        seed, d, inputs.FewshotSizes(k=2, block=2, blocks_per_round=2), TINY_MODEL),
    "curate": lambda seed, d: workloads.Curate(
        seed, d, inputs.CurateSizes(prep_docs=4, videos=1, frames=40, shots=3,
                                    points=200, point_dim=8, k=4)),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_schema_and_checks(name, trace, tmp_path):
    out = workloads.run(TINY[name](3, str(tmp_path)), seconds=0, trace=trace)
    want = PER_LAYER if trace else END_TO_END
    assert set(out.metrics) == set(want)
    for metric, (value, unit) in out.metrics.items():
        assert unit == want[metric][0]
        assert isinstance(value, float) and np.isfinite(value)
    if not trace:
        assert all(v > 0 for v, _ in out.metrics.values())
    assert out.failures == []
    assert out.attempted >= 3 * TINY[name](3, str(tmp_path)).units_per_round
    assert out.failed == 0


def test_traced_counts_repeat_for_a_seed(tmp_path):
    counts = []
    for run in range(2):
        d = tmp_path / str(run)
        d.mkdir()
        out = workloads.run(TINY["train_mixed"](5, str(d)), seconds=0, trace=True)
        counts.append({k: v for k, (v, unit) in out.metrics.items()
                       if unit in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["model.forwards_per_step"] == 8  # 4 sources x batch 2


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == PER_LAYER


def test_cli_prints_result_last(tmp_path):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curate",
                          "--seed", "2", "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "curate",
                          "--seed", "2", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# -- planted wrong outputs ------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_model():
    meta = inputs.task_meta(0, 4, 4, TINY_MODEL["d_vision"], TINY_MODEL["n_patches"])
    from cosmo.docs import build_vocab
    vocab = build_vocab(synthetic.corpus_texts(meta), max_size=300)
    model = cm.build(cm.ModelConfig(vocab_size=len(vocab), **TINY_MODEL), seed=0)
    inputs.move_off_init(model, 0)
    episode = synthetic.make_episodes(meta, 2, 1, np.random.default_rng(0))[0]
    return model, vocab, synthetic.episode_prompt(episode, vocab)


def test_perturbed_parameter_fails_forward_check(tiny_model):
    model, _, (tokens, feats, positions) = tiny_model
    sample = workloads.training.Sample(tokens, feats, positions,
                                       np.ones(len(tokens)))
    got = [cm.forward_logits(model, tokens, feats, positions).data]
    params = reference.params_of(model)
    assert checks.forward_matches(params, model.config, [sample], got) == []
    for name in ("frozen/block3/mlp_w2", "fusion2/wq", "resampler/latents"):
        bad = dict(params)
        bad[name] = params[name].copy()
        bad[name].flat[0] += 1e-3
        assert checks.forward_matches(bad, model.config, [sample], got)


def test_changed_frozen_or_unchanged_learnable_parameter_fails(tiny_model):
    model = tiny_model[0]
    before = reference.params_of(model)
    assert checks.params_updated(before, model)  # nothing learned yet
    for p in model.learnable_params.values():
        before[p.name] = p.data + 1.0
    assert checks.params_updated(before, model) == []
    before["frozen/unembed"] = before["frozen/unembed"] * 1.0000001
    assert checks.params_updated(before, model)


def test_swapped_decoded_token_fails_greedy_check(tiny_model):
    model, _, prompt = tiny_model
    params = reference.params_of(model)
    decoded = cm.greedy_decode(model, *prompt, stop_id=EOC, max_new=4)
    assert checks.greedy_matches(params, model.config, prompt, decoded, EOC, 4) == []
    assert decoded, "the tiny model should decode at least one token"
    swapped = list(decoded)
    swapped[-1] = (swapped[-1] + 1) % model.config.vocab_size
    assert checks.greedy_matches(params, model.config, prompt, swapped, EOC, 4)
    assert checks.greedy_matches(params, model.config, prompt, decoded[:-1], EOC, 4)


def test_loss_and_guard_checks(tiny_model):
    model, _, (tokens, feats, positions) = tiny_model
    sample = workloads.training.Sample(tokens, feats, positions,
                                       np.ones(len(tokens)))
    params = reference.params_of(model)
    loss = reference.lm_loss(params, model.config, sample)
    cycle = [(None, [sample])]
    assert checks.loss_decreased(params, model.config, cycle,
                                 [{"lm_loss": loss + 1e-6}]) == []
    assert checks.loss_decreased(params, model.config, cycle, [{"lm_loss": loss}])
    assert checks.no_guard_skips([{"event": "scale", "factor": 0.5}]) == []
    assert checks.no_guard_skips([{"step": 3, "event": "cycle_skipped"}])


def test_moved_cut_fails_shot_and_kts_checks():
    rng = np.random.default_rng(0)
    sizes = inputs.CurateSizes(frames=40, shots=3)
    frames, planted = inputs._video(rng, sizes)
    seq = interlink.FrameFeatureSeq(frames, np.arange(len(frames), dtype=float))
    found = interlink.kts_segment(seq, mode="auto").cut_indices
    assert checks.shots_recovered([planted], [found]) == []
    moved = [planted[0] + 1] + planted[1:]
    assert checks.shots_recovered([planted], [moved])

    short = inputs.short_sequences(0, count=2)
    results = {}
    for j, f in enumerate(short):
        sb = interlink.kts_segment(interlink.FrameFeatureSeq(
            f, np.arange(len(f), dtype=float)), mode="fixed", n_cuts=2)
        results[(j, 2)] = (sb.cut_indices, sb.scatter)
    assert checks.kts_exhaustive(short, results) == []
    cuts, scatter = results[(0, 2)]
    other = [c for c in range(1, len(short[0])) if c not in cuts][0]
    results[(0, 2)] = (sorted([cuts[0], other]) if other != cuts[0] else cuts,
                       scatter)
    assert checks.kts_exhaustive(short, results)


def _clustered(seed=0):
    from cosmo import select
    sizes = inputs.CurateSizes(points=120, point_dim=4, k=3)
    x, _ = inputs._points(np.random.default_rng(seed), sizes)
    pairs = [select.EmbeddedPair(f"p{i}", x[i], 0.5) for i in range(len(x))]
    cl = select.kmeans(pairs, sizes.k, seed=0)
    return select, x, pairs, cl


def test_relabelled_point_fails_kmeans_check():
    _, x, pairs, cl = _clustered()
    ids = [p.id for p in pairs]
    assert checks.kmeans_consistent(x, ids, cl, 50) == []
    bad = dataclasses.replace(cl, assignment=dict(cl.assignment))
    bad.assignment["p0"] = (bad.assignment["p0"] + 1) % 3
    assert checks.kmeans_consistent(x, ids, bad, 50)
    rising = dataclasses.replace(cl, inertia_history=[1.0, 2.0])
    assert checks.kmeans_consistent(x, ids, rising, 50)


def test_selection_check_uses_largest_remainder():
    assert checks.largest_remainder([5, 3, 2], 5) == [3, 1, 1]
    select, _, pairs, cl = _clustered()
    chosen = select.distance_uniform_sample(cl, pairs, 30, np.random.default_rng(0))
    assert checks.selection_fair(chosen, cl, 30) == []
    c0 = cl.assignment[chosen[0]]
    outsider = next(p.id for p in pairs
                    if cl.assignment[p.id] != c0 and p.id not in chosen)
    assert checks.selection_fair([outsider] + chosen[1:], cl, 30)
    assert checks.selection_fair(chosen[:-1] + chosen[:1], cl, 30)


def test_matching_and_replacement_checks():
    scores = np.array([[0.9, 0.1, 0.3], [0.2, 0.8, 0.05]])
    assert checks.matching_optimal([scores], [[(0, 0), (1, 1)]]) == []
    assert checks.matching_optimal([scores], [[(0, 2), (1, 1)]])
    rec = {"assignment": [(0, 0), (1, 2)], "replaced": [1]}
    assert checks.replaced_exactly_low([scores], [rec], 0.2) == []
    assert checks.replaced_exactly_low([scores], [dict(rec, replaced=[])], 0.2)
    assert checks.replaced_exactly_low([scores], [dict(rec, replaced=[0, 1])], 0.2)


def test_checkpoint_check_catches_a_changed_state(tmp_path):
    w = TINY["train_mixed"](4, str(tmp_path))
    assert workloads.run(w, seconds=0, trace=False).failures == []
    path = str(tmp_path / "check.ckpt")
    loader_state = w.loader.get_state()
    workloads.training.save_checkpoint(path, w.model, w.state, w.tcfg, w.vocab,
                                       loader_state)
    loaded = workloads.training.load_checkpoint(path)
    assert checks.checkpoint_restores(w.model, w.state, loader_state, loaded) == []
    name = next(iter(loaded[1].adam_m))
    loaded[1].adam_m[name] = loaded[1].adam_m[name] + 1e-12
    assert checks.checkpoint_restores(w.model, w.state, loader_state, loaded)
    loaded[0].param("fusion2/gate").data = w.model.param("fusion2/gate").data + 1
    loaded[1].rng.random()
    assert len(checks.checkpoint_restores(w.model, w.state, loader_state, loaded)) == 3
