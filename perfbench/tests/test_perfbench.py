"""Tests of the benchmark itself: generators, checks, tracer and refusal."""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gen, workloads  # noqa: E402
from perfbench.checks import check  # noqa: E402
from perfbench.run import per_layer  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from tropcrit.arrangement import chi_complement, flacet_rays  # noqa: E402
from tropcrit.cli import JobConfig, load_spec, run_report  # noqa: E402

FIX = ROOT / "src" / "tropcrit" / "fixtures"
CONIC_RAYS = json.loads((FIX / "conic_golden.json").read_text())["rays"]


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first = workloads.WORKLOADS[name](7, "inputs")
    again = workloads.WORKLOADS[name](7, "inputs")
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_arrangement_seed_changes_inputs():
    _, a = workloads.WORKLOADS["arrangements"](1, "inputs")
    _, b = workloads.WORKLOADS["arrangements"](2, "inputs")
    assert a != b


@pytest.mark.parametrize("seed", range(1, 7))
def test_generated_arrangements_meet_preconditions(seed):
    _, files = workloads.WORKLOADS["arrangements"](seed, "inputs")
    specs = [files[p] for p in sorted(files)]
    assert len(specs) == len(workloads.ARRANGEMENT_SLOTS)
    for spec, (lines, kind) in zip(specs, workloads.ARRANGEMENT_SLOTS):
        matrix = spec["matrix"]
        assert len(matrix) == lines
        assert all(lo <= x <= hi for row in matrix for x in row for lo, hi in [gen.COEFF_RANGE])
        assert gen.is_essential(matrix)
        assert gen.is_connected(gen.central_vectors(matrix))
        assert gen.line_type(matrix) == kind
        load_spec(spec)  # the program accepts it


def test_essential_rejects_parallel_and_proportional_rows():
    assert not gen.is_essential([[1, 0, 0], [1, 0, 1], [1, 0, 2]])  # rank-1 functionals
    assert not gen.is_essential([[1, 1, 1], [2, 2, 2], [0, 1, 0]])  # proportional rows
    assert gen.is_essential([[1, 0, 0], [0, 1, 0], [1, -1, 0], [1, 0, -1]])
    # three parallel lines meet the line at infinity in one point
    assert not gen.is_connected(gen.central_vectors([[0, -1, -1], [2, 2, 0], [2, 2, -1], [1, 1, 2]]))


@pytest.mark.parametrize("seed", range(1, 9))
def test_generated_curves_meet_preconditions(seed):
    rng = Random(seed)
    for ray in CONIC_RAYS:
        curve = gen.curve_on_ray(rng, ray, CONIC_RAYS)
        comps = curve["components"]
        value0 = [_eval(c, 0) for c in comps]
        velocity = [_eval(c, 1) - v for c, v in zip(comps, value0)]
        assert gen.curve_ok(value0, velocity, ray, CONIC_RAYS)


def _eval(text, t):
    from fractions import Fraction

    from tropcrit.rings import Polynomial

    return Polynomial.parse(text, ("t",)).evaluate({"t": Fraction(t)})


def test_escapes_curves_are_one_per_ray():
    jobs, files = workloads.WORKLOADS["escapes"](3, "inputs")
    assert [j["expect"]["ray"] for j in jobs] == CONIC_RAYS
    assert len(files) == len(CONIC_RAYS)


def _report(command, spec, **kw):
    report, _ = run_report(JobConfig(command=command, spec_source=str(spec), **kw))
    return json.loads(json.dumps(report))


def _rejects(report, expect, doctor):
    assert check(report, expect) == []
    bad = copy.deepcopy(report)
    doctor(bad)
    assert check(bad, expect) != []


def test_golden_check_rejects_doctored_report():
    jobs, _ = workloads.WORKLOADS["fixtures"](1, "inputs")
    expect = next(j["expect"] for j in jobs if j["name"] == "coin_report")
    report = _report("report", FIX / "coin_model.json", bs_fixture_path=str(FIX / "coin_bs.json"))
    _rejects(report, expect, lambda r: r["rays"].pop())
    _rejects(report, expect, lambda r: r["mle"]["constants"].__setitem__(0, "2"))
    _rejects(report, expect, lambda r: r.__setitem__("ml_degree", 2))
    _rejects(report, expect, lambda r: r["rays"][0].__setitem__("euler_char", 0))
    _rejects(report, expect, lambda r: r["bs"]["intersection_with_critical_slopes"].pop())


def test_rays_check_rejects_doctored_report():
    arr = load_spec(str(FIX / "four_lines.json")).arrangement
    expect = {"kind": "rays", "rays": [list(r.v) for r in flacet_rays(arr)]}
    report = _report("rigid-rays", FIX / "four_lines_ideal.json", bound=1)
    _rejects(report, expect, lambda r: r["rays"][0]["v"].__setitem__(0, 5))


def test_arrangement_check_rejects_doctored_report():
    arr = load_spec(str(FIX / "four_lines.json")).arrangement
    expect = {
        "kind": "arrangement",
        "rays": [list(r.v) for r in flacet_rays(arr)],
        "ml_degree": abs(chi_complement(arr)),
    }
    report = _report("report", FIX / "four_lines.json", bound=1)
    _rejects(report, expect, lambda r: r.__setitem__("ml_degree", 2))
    _rejects(report, expect, lambda r: r["weighted_ray_sum"].__setitem__(0, 1))
    _rejects(report, expect, lambda r: r["rays"].pop())


def test_branch_checks_reject_doctored_report():
    jobs, _ = workloads.WORKLOADS["fixtures"](1, "inputs")
    expect = next(j["expect"] for j in jobs if j["name"] == "conic_asymptotics")
    report = _report(
        "asymptotics", FIX / "conic_model.json", bound=2, order=4, curve_path=str(FIX / "conic_curve.json")
    )
    _rejects(report, expect, lambda r: r["branches"].pop())
    _rejects(report, expect, lambda r: r["branches"][-1].__setitem__("valuation_vector", [0, 0, 1]))
    interior = next(i for i, b in enumerate(report["branches"]) if not any(b["valuation_vector"]))
    doctor = lambda r: r["branches"][interior]["series"][0]["coefficients"][1].__setitem__("value", "-75")  # noqa: E731
    _rejects(report, expect, doctor)


def test_self_time_subtracts_children_and_total_skips_recursion():
    tracer = Tracer(0, targets=(("a", "m", "f"), ("b", "m", "g")))
    tracer.spans = [
        [0, 0.0, 10.0, -1, True, 0],
        [1, 1.0, 4.0, 0, True, 0],
        [0, 5.0, 7.0, 0, False, 0],  # recursive call of a inside a
    ]
    layers = tracer.summary()["layers"]
    assert layers["a"] == {"calls": 2, "total_s": 10.0, "self_s": 10.0 - 5.0 + 2.0}
    assert layers["b"] == {"calls": 1, "total_s": 3.0, "self_s": 3.0}


def test_missing_layer_is_reported_missing_not_zero():
    tracer = Tracer(0, targets=(("groebner.buchberger", "tropcrit.groebner", "_no_such_kernel"),))
    tracer.install()
    summary = tracer.summary()
    assert summary == {"layers": {}, "missing": ["groebner.buchberger"]}
    metrics = per_layer([{"job": 0, "traced": True, "trace": summary}], [{}])
    assert metrics["groebner.buchberger.calls"]["missing"] is True
    assert metrics["groebner.buchberger.calls"]["value"] is None


def test_traced_child_sees_calls_across_module_namespaces(tmp_path):
    job = tmp_path / "job.json"
    result = tmp_path / "result.json"
    job.write_text(
        json.dumps(
            {
                "argv": ["rigid-rays", "--spec", str(FIX / "coin_model.json"), "--bound", "1",
                         "--out", str(tmp_path / "report.json")],
                "trace": True,
                "spans": str(tmp_path / "spans.jsonl"),
                "job_id": 3,
            }
        )
    )
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(job), str(result)],
                   check=True, cwd=ROOT, capture_output=True, timeout=120)
    out = json.loads(result.read_text())
    layers = out["trace"]["layers"]
    assert out["exit_code"] == 0 and out["trace"]["missing"] == []
    # cli binds find_rigid_rays by name; tropical binds saturate by name
    assert layers["tropical.find_rigid_rays"]["calls"] == 1
    assert layers["groebner.saturate"]["calls"] > 0
    assert layers["groebner.buchberger"]["steps"] > 0
    assert 0 < layers["groebner.initial"]["distinct"] <= layers["groebner.initial"]["calls"]
    root = layers["cli.run_report"]
    assert root["calls"] == 1 and root["total_s"] >= layers["tropical.find_rigid_rays"]["total_s"]
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert json.loads(spans[1])[4] == 3


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixtures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
