"""Tests of the benchmark's own logic; the program under test is not needed.

    python3 -m pytest perfbench
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import gen
import oracle
import run
import stats
import tracer


def _equiv_request(equivalent):
    return {"argv": ["equiv", "a.json", "b.json"], "truth": {"equivalent": equivalent}}


@pytest.mark.parametrize(
    "equivalent, code, status, outcome",
    [
        (True, 0, "equivalent", oracle.RIGHT),
        (True, 1, "inequivalent", oracle.WRONG),
        (False, 0, "equivalent", oracle.WRONG),
        (False, 1, "inequivalent", oracle.RIGHT),
        (True, 4, "unknown", oracle.UNDECIDED),
        (True, 0, "inequivalent", oracle.ERROR),
    ],
)
def test_oracle_flags_flipped_equiv_verdict(equivalent, code, status, outcome):
    response = {"code": code, "payload": {"status": status, "best_infidelity": 0.5}}
    assert oracle.grade(_equiv_request(equivalent), response)[0] == outcome


def test_oracle_flags_flipped_classify_verdict():
    request = {"argv": ["classify", "x.json"],
               "truth": {"verdict": "ghz_class", "alpha": 0.8, "beta": 0.6}}
    right = {"verdict": "ghz_class", "alpha": 0.8 + 1e-9, "beta": 0.6, "notes": []}
    flipped = {"verdict": "not_max_stab", "alpha": None, "beta": None, "notes": []}
    off = {"verdict": "ghz_class", "alpha": 0.6, "beta": 0.8, "notes": []}
    assert oracle.grade(request, {"code": 0, "payload": right})[0] == oracle.RIGHT
    assert oracle.grade(request, {"code": 0, "payload": flipped})[0] == oracle.WRONG
    assert oracle.grade(request, {"code": 0, "payload": off})[0] == oracle.WRONG
    assert oracle.grade(request, {"code": 2, "payload": None})[0] == oracle.ERROR


def test_oracle_separates_flagged_from_wrong_on_the_family():
    a, b = 0.5, 0.2 + 0.3j
    request = {"argv": ["classify", "x.json"],
               "truth": {"verdict": "four_qubit_su2", "a": a, "b": b}}
    payload = {"verdict": "four_qubit_su2", "a": a, "b_re": b.real, "b_im": b.imag,
               "ambiguous": False, "residual": 0.0, "notes": []}
    assert oracle.grade(request, {"code": 0, "payload": payload})[0] == oracle.RIGHT
    conjugated = {**payload, "b_im": -b.imag}
    assert oracle.grade(request, {"code": 0, "payload": conjugated})[0] == oracle.WRONG
    ambiguous = {**conjugated, "ambiguous": True}
    assert oracle.grade(request, {"code": 0, "payload": ambiguous})[0] == oracle.FLAGGED
    uncertified = {**payload, "residual": 1e-3}
    assert oracle.grade(request, {"code": 0, "payload": uncertified})[0] == oracle.FLAGGED


def test_oracle_checks_density_dimensions():
    request = {"call": {}, "truth": {"stab_dim": 3, "proj_dims": [1, 1, 1, 1]}}
    assert oracle.grade(request, {"result": {"dim": 3, "proj_dims": [1, 1, 1, 1]}})[0] == oracle.RIGHT
    assert oracle.grade(request, {"result": {"dim": 2, "proj_dims": [1, 1, 1, 1]}})[0] == oracle.WRONG
    assert oracle.grade(request, {"error": "ValueError: boom"})[0] == oracle.ERROR


def test_self_time_on_a_synthetic_span_tree():
    # 0 root [0, 100]: children 1 [10, 40] and 2 [50, 70]; 3 [15, 25] under 1
    # 4 root [200, 300]: children 5 [210, 250] and 6 [230, 260] overlap (threads)
    start = [0, 10, 50, 15, 200, 210, 230]
    end = [100, 40, 70, 25, 300, 250, 260]
    parent = [-1, 0, 0, 1, -1, 4, 4]
    assert tracer.self_times(start, end, parent).tolist() == [50, 20, 20, 10, 50, 40, 30]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90.0, 90, 10)
    # 109 samples: p95 leaves 5 beyond, p90 leaves 10
    p, v, beyond = stats.tail(list(range(109)))
    assert (p, beyond) == (90.0, 10)
    for n in (20, 57, 250, 1000, 2500):
        p, v, beyond = stats.tail(list(range(n)))
        assert beyond >= stats.TAIL_MIN_BEYOND
        higher = [q for q in stats.TAIL_PERCENTILES if q > p]
        s = sorted(range(n))
        assert all(n - (stats.nearest_rank(s, q) + 1) < stats.TAIL_MIN_BEYOND for q in higher)
    assert stats.tail(list(range(19))) is None


def test_tracer_wraps_every_namespace_that_binds_a_function(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")
    exec("def leaf(x):\n    return x + 1\n", base.__dict__)
    base.leaf.__module__ = "fakepkg.base"
    user.leaf = base.leaf  # as `from .base import leaf` would
    exec("def outer(x):\n    return leaf(x) * 2\n", user.__dict__)
    user.outer.__module__ = "fakepkg.user"
    pkg.outer = user.outer
    for name, module in (("fakepkg", pkg), ("fakepkg.base", base), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    t = tracer.Tracer(annotators={})
    t.install("fakepkg")
    try:
        assert pkg.outer(1) == 4
    finally:
        t.uninstall()
    spans = t.spans()
    names = [t.names[i] for i in spans["name"]]
    assert names == ["user.outer", "base.leaf"]
    assert spans["parent"].tolist() == [-1, 0]
    assert user.leaf is base.leaf and user.outer.__name__ == "outer"


def test_deck_is_a_function_of_the_seed(tmp_path):
    a = gen.build_deck("density", 3, 2, str(tmp_path / "a"))
    b = gen.build_deck("density", 3, 2, str(tmp_path / "b"))
    c = gen.build_deck("density", 4, 2, str(tmp_path / "c"))
    assert [r["kind"] for r in a] == [r["kind"] for r in b]
    assert all(np.array_equal(x["call"]["state"], y["call"]["state"]) for x, y in zip(a, b))
    assert not all(np.array_equal(x["call"]["state"], y["call"]["state"]) for x, y in zip(a, c))


def test_benchmark_json_matches_the_metrics_run_py_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [u for u, _ in tracer.PER_LAYER.values()]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
