"""The program reproduces the committed equivalence fixture (see
``make_golden.py``): floats to 1e-10 relative, everything else exactly."""

import json

import make_golden

REL_TOL = 1e-10


def _mismatches(got, want, path="") -> list[str]:
    if isinstance(want, float) and isinstance(got, (int, float)):
        ok = abs(got - want) <= REL_TOL * max(abs(got), abs(want))
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want and type(got) is type(want) else [
        f"{path}: {got!r} != {want!r}"]


def test_run_matches_golden_fixture():
    with open(make_golden.FIXTURE) as f:
        want = json.load(f)
    got = json.loads(json.dumps(make_golden.golden()))  # tuples become lists
    assert _mismatches(got, want) == []


def test_comparison_catches_a_drift():
    assert _mismatches({"a": [1.0, 2]}, {"a": [1.0 + 1e-9, 2]}) == [
        "/a[0]: 1.0 != 1.000000001"]
    assert _mismatches([1.0, 3], [1.0, 2]) == ["[1]: 3 != 2"]
    assert _mismatches(0.0, 0.0) == [] and _mismatches(None, 0.0) != []
