import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from models import SATURATION_SURFACE_RAYS, SIX_LINES_IDEAL_SPEC, saturation_surface_spec
import tropcrit
from tropcrit import cli, errors, groebner, mle, tropical
from tropcrit.asymptotics import branches
from tropcrit.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    JobConfig,
    load_spec,
    main,
    run_report,
    serialize_spec,
)
from tropcrit.errors import SpecValidationError
from tropcrit.rings import grlex
from tropcrit.tropical import find_rigid_rays

FIXTURES = Path(tropcrit.__file__).parent / "fixtures"


def fixture(name) -> str:
    return str(FIXTURES / name)


def golden(name) -> dict:
    with open(FIXTURES / name) as fh:
        return json.load(fh)


def test_load_spec_coin():
    spec = load_spec(fixture("coin_model.json"))
    assert spec.kind == "ideal"
    assert len(spec.ideal.gens) == 2
    assert spec.coordinates == ("t0", "t1", "t2")


def test_load_spec_arrangement():
    spec = load_spec(fixture("four_lines.json"))
    assert spec.kind == "arrangement"
    assert spec.arrangement.size == 4
    assert spec.arrangement.nvars == 2


def test_load_spec_roundtrip():
    for name in ("coin_model.json", "four_lines.json", "conic_model.json"):
        spec = load_spec(fixture(name))
        again = load_spec(serialize_spec(spec))
        assert serialize_spec(again) == serialize_spec(spec)


def test_load_spec_errors_name_field():
    with pytest.raises(SpecValidationError) as err:
        load_spec({"kind": "ideal", "variables": ["x"]})
    assert "generators" in str(err.value)
    with pytest.raises(SpecValidationError) as err:
        load_spec(
            {"kind": "ideal", "variables": ["x"], "generators": ["x^"]}
        )
    assert "/generators/0" in str(err.value)


def test_rigid_rays_command_coin():
    cfg = JobConfig(command="rigid-rays", spec_source=fixture("coin_model.json"), bound=2)
    report, code = run_report(cfg)
    assert code == EXIT_OK
    assert [r["v"] for r in report["rays"]] == golden("coin_golden.json")["rays"]
    assert report["exhaustive_within_bound"] == 2
    assert report["seed"] == cfg.seed


def test_rigid_rays_command_conic():
    cfg = JobConfig(command="rigid-rays", spec_source=fixture("conic_model.json"), bound=2)
    report, _ = run_report(cfg)
    assert [r["v"] for r in report["rays"]] == golden("conic_golden.json")["rays"]


def test_full_report_coin_matches_golden(tmp_path):
    cfg = JobConfig(
        command="report",
        spec_source=fixture("coin_model.json"),
        bound=2,
        bs_fixture_path=fixture("coin_bs.json"),
    )
    report, _ = run_report(cfg)
    gold = golden("coin_golden.json")
    assert [r["v"] for r in report["rays"]] == gold["rays"]
    assert sorted(s["form"] for s in report["slopes"]) == sorted(gold["slopes"])
    assert report["ml_degree"] == gold["ml_degree"]
    assert report["mle"]["constants"] == gold["mle_constants"]
    got_bs = [s["form"] for s in report["bs"]["intersection_with_critical_slopes"]]
    assert sorted(got_bs) == sorted(gold["bs_intersection"])
    assert report["bs"]["consistent_with_fixture"]
    assert [r["euler_char"] for r in report["rays"]] == gold["euler_chars"]
    assert report["weighted_ray_sum"] == gold["weighted_ray_sum"]


def test_asymptotics_command_conic():
    cfg = JobConfig(
        command="asymptotics",
        spec_source=fixture("conic_model.json"),
        bound=2,
        order=4,
        curve_path=fixture("conic_curve.json"),
    )
    report, _ = run_report(cfg)
    vals = sorted(tuple(b["valuation_vector"]) for b in report["branches"])
    assert vals == [(-1, -1, -2), (-1, -1, -2), (0, 0, 0)]
    interior = [b for b in report["branches"] if b["valuation_vector"] == [0, 0, 0]]
    [b] = interior
    assert b["exact"]
    xs = [c["value"] for c in b["series"][0]["coefficients"][:3]]
    assert xs == ["3", "-74", "3508"]
    assert not b["nonnegative_certificate"] or b["valuation_vector"] == [0, 0, 0]


def test_report_byte_stable(tmp_path, capsys):
    args = [
        "report",
        "--spec",
        fixture("coin_model.json"),
        "--bound",
        "2",
        "--seed",
        "77",
    ]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["seed"] == 77


def test_out_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "rigid-rays",
            "--spec",
            fixture("coin_model.json"),
            "--bound",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert [r["v"] for r in data["rays"]] == golden("coin_golden.json")["rays"]


def test_out_into_a_missing_directory_fails_before_the_job(capsys, tmp_path):
    # --budget 0 would exit 3 from the first Groebner run; the --out path,
    # in a missing directory or naming an existing one, is checked when
    # the options are read
    args = ["rigid-rays", "--spec", fixture("coin_model.json"), "--budget", "0"]
    for out in ("/missing/dir/r.json", str(tmp_path)):
        assert main([*args, "--out", out]) == EXIT_VALIDATION
        assert "[at /options/out]" in capsys.readouterr().err


def test_variable_names_do_not_clash_with_the_kernel_variables():
    # saturation and homogenization add a variable of their own to the
    # ring; a spec variable of the same name must not be mistaken for it
    def report(name):
        spec = {"kind": "ideal", "variables": [name, "x"], "generators": [f"{name}*x-{name}-1"]}
        return run_report(JobConfig(command="report", spec_source=json.dumps(spec)))[0]

    renamed = json.loads(json.dumps(report("_y")).replace("_y", "y"))
    assert renamed == report("y")
    assert renamed["ml_degree"] == 1


def test_exit_code_validation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "ideal", "variables": ["x"]}')
    assert main(["rigid-rays", "--spec", str(bad)]) == EXIT_VALIDATION


def test_exit_code_resource(capsys):
    code = main(
        [
            "rigid-rays",
            "--spec",
            fixture("four_lines_ideal.json"),
            "--bound",
            "2",
            "--budget",
            "0",
        ]
    )
    assert code == EXIT_RESOURCE


def test_budget_bounds_the_whole_run(capsys):
    # 100 steps cover each Groebner call of this run on its own, but not
    # the run as a whole; a per-call limit, or saturations memoized by the
    # first run and handed to the second, would let the second run finish
    args = [
        "asymptotics",
        "--spec",
        fixture("conic_model.json"),
        "--bound",
        "2",
        "--curve",
        fixture("conic_curve.json"),
    ]
    assert main(args) == EXIT_OK
    assert main(args + ["--budget", "100"]) == EXIT_RESOURCE


def test_report_runs_no_buchberger_on_a_reduced_basis(monkeypatch, capsys):
    # saturations and eliminations return the reduced grlex basis they
    # computed, so no caller runs Buchberger to rebuild it
    real = groebner._buchberger
    reruns = []

    def recording(gens, order, budget):
        out = real(gens, order, budget)
        caller = sys._getframe(2).f_code.co_name
        if (
            out
            and order.rows == grlex(len(out[0].vars)).rows
            and len(out) == len(gens)
            and all(g in out for g in gens)
        ):
            reruns.append(caller)
        return out

    monkeypatch.setattr(groebner, "_buchberger", recording)
    assert main(["report", "--spec", fixture("four_lines.json")]) == EXIT_OK
    conic = ["--spec", fixture("conic_model.json"), "--bound", "2"]
    conic += ["--curve", fixture("conic_curve.json")]
    assert main(["asymptotics", *conic]) == EXIT_OK
    assert reruns == []


def test_arrangement_report_runs_no_groebner_route(monkeypatch, capsys):
    # rays, Euler characteristics and the ML degree of an arrangement come
    # from its lattice of flats
    def refuse(*args, **kwargs):
        raise AssertionError("the Groebner route ran on an arrangement spec")

    monkeypatch.setattr(mle.VarietySpec, "to_ideal", refuse)
    for module in (cli, tropical):
        monkeypatch.setattr(module, "find_rigid_rays", refuse)
        monkeypatch.setattr(module, "stratum_euler_char", refuse)
    monkeypatch.setattr(cli, "ml_degree", refuse)
    args = ["report", "--spec", fixture("four_lines.json")]
    assert main(args + ["--bs-fixture", fixture("four_lines_bs.json")]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    gold = golden("four_lines_golden.json")
    assert [r["v"] for r in report["rays"]] == gold["rays"]
    assert {r["source"] for r in report["rays"]} == {"flacet"}


def test_budget_boundary_is_the_exact_step_total(capsys):
    # the run takes exactly 387 steps: 262 reduction steps, and one step
    # per weight of the ray search's whole 5^3 box (125), which the
    # conic's one six-term witness keeps at bound 2; reducing other pairs, or
    # the same pairs in another order, or saturating by another chain of
    # runs or without first dividing out monomial factors, or saturating
    # the curve's critical system more than once, moves the boundary; so
    # do the membership saturations of the 8 initial ideals whose faces'
    # tied differences leave two or more dimensions, which the ray search
    # skips (15 steps), and a Groebner run for a monomial saturation of
    # one generator, whose basis is that generator made monic (20 steps)
    args = [
        "asymptotics",
        "--spec",
        fixture("conic_model.json"),
        "--curve",
        fixture("conic_curve.json"),
        "--bound",
        "2",
    ]
    assert main(args + ["--budget", "387"]) == EXIT_OK
    assert main(args + ["--budget", "386"]) == EXIT_RESOURCE


def test_ray_search_budget_boundary_is_the_exact_step_total(capsys):
    # rigid-rays on four_lines_ideal at bound 2 takes exactly 64 steps:
    # one reduction step for the base basis, one step per weight that the
    # candidate enumeration makes (49), and the reductions of the face
    # lookups and saturations (14); enumerating whole tie hyperplanes or
    # overlapping cells, or skipping a tick, moves the boundary
    args = ["rigid-rays", "--spec", fixture("four_lines_ideal.json"), "--bound", "2"]
    assert main(args + ["--budget", "64"]) == EXIT_OK
    assert main(args + ["--budget", "63"]) == EXIT_RESOURCE


def test_budget_bounds_the_candidate_search_before_any_lookup(monkeypatch, capsys):
    # the six-line ideal at bound 5 enumerates over 9,000 weights; the
    # budget fires inside the enumeration, before any face is looked up
    entered, lookups = [], []
    real = tropical.TropicalEngine.candidates

    def entering(self, bound):
        entered.append(bound)
        return real(self, bound)

    monkeypatch.setattr(tropical.TropicalEngine, "candidates", entering)
    monkeypatch.setattr(groebner.InitialIdealEngine, "_lookup", lambda *a: lookups.append(a))
    args = ["rigid-rays", "--spec", json.dumps(SIX_LINES_IDEAL_SPEC), "--bound", "5"]
    assert main(args + ["--budget", "5"]) == EXIT_RESOURCE
    assert entered == [5] and lookups == []


def test_arrangement_budget_boundary_is_the_exact_step_total(capsys):
    # the four_lines report takes exactly 23 steps: one per flat of the
    # one lattice of its homogenized functionals (13), which gives its
    # rays, their Euler characteristics and its ML degree with no Groebner
    # run; the echelon pivots of the closed-form fit (8): ranks 2 and 3 of
    # the critical rows of two samples, rank 2 of the linear parts, one
    # pivot of the scales; and the LCT simplex pivots (2).  A second
    # lattice, a ray search, a stratum or an ML-degree count, a Groebner
    # fit, or an echelon form that skips a tick, moves the boundary
    args = ["report", "--spec", fixture("four_lines.json")]
    assert main(args + ["--budget", "23"]) == EXIT_OK
    assert main(args + ["--budget", "22"]) == EXIT_RESOURCE
    # the lattice alone bounds rigid-rays
    args = ["rigid-rays", "--spec", fixture("four_lines.json")]
    assert main(args + ["--budget", "13"]) == EXIT_OK
    assert main(args + ["--budget", "12"]) == EXIT_RESOURCE


def test_arrangement_report_runs_no_buchberger(monkeypatch, capsys):
    # the lattice of flats gives the rays, Euler characteristics and ML
    # degree, and linear algebra the estimator's constants
    runs = []
    real = groebner._buchberger

    def counting(gens, order, budget):
        runs.append(gens)
        return real(gens, order, budget)

    monkeypatch.setattr(groebner, "_buchberger", counting)
    assert main(["report", "--spec", fixture("four_lines.json")]) == EXIT_OK
    assert "mle" in json.loads(capsys.readouterr().out)
    assert runs == []


def test_mle_rays_not_summing_to_zero_within_bound(capsys):
    # the coin's rays (2, 1, 0) and (-2, -2, -1) lie outside bound 1, so
    # the rays found do not sum to zero
    args = ["mle", "--spec", fixture("coin_model.json"), "--bound", "1"]
    assert main(args) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "got (0, 1, 1)" in err and "--bound" in err


def test_non_essential_arrangement_rejected(capsys):
    # three parallel lines x = 0, 1, 2 in the (x, y) plane
    spec = json.dumps(
        {
            "kind": "arrangement",
            "variables": ["x", "y"],
            "matrix": [[1, 0, 0], [1, 0, -1], [1, 0, -2]],
        }
    )
    for command in ("rigid-rays", "mle"):
        assert main([command, "--spec", spec, "--bound", "1"]) == EXIT_PRECONDITION
    assert "not essential" in capsys.readouterr().err


def test_arrangement_entry_not_rational(capsys):
    spec = json.dumps(
        {
            "kind": "arrangement",
            "variables": ["x", "y"],
            "matrix": [[1, 0, 0], [0, "a", 0], [1, 1, -1]],
        }
    )
    assert main(["rigid-rays", "--spec", spec, "--bound", "1"]) == EXIT_VALIDATION
    assert "[at /matrix/1/1]" in capsys.readouterr().err


def test_spec_not_json(capsys, tmp_path):
    text = '{"kind": "ideal",'
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for source in (text, str(bad)):
        assert main(["rigid-rays", "--spec", source, "--bound", "1"]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "is not valid JSON" in err and "[at /spec]" in err


def test_missing_input_file(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    cases = [
        (["rigid-rays", "--spec", missing], "/spec"),
        (
            ["asymptotics", "--spec", fixture("conic_model.json"), "--curve", missing],
            "/curve",
        ),
        (
            ["bs-slopes", "--spec", fixture("coin_model.json"), "--bs-fixture", missing],
            "/bs_fixture",
        ),
    ]
    for args, pointer in cases:
        assert main(args + ["--bound", "1"]) == EXIT_VALIDATION
        assert f"[at {pointer}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, pointer",
    [
        ({}, "/bs_fixture"),
        ([], "/bs_fixture"),
        ({"factors": [{"offsets": [1]}]}, "/bs_fixture/factors/0"),
        ({"factors": [{"normal": ["a", 1, 0]}]}, "/bs_fixture/factors/0/normal"),
        ({"factors": [{"normal": [0, 0, 0]}]}, "/bs_fixture/factors/0/normal"),
        ({"factors": [{"normal": [1, 0]}]}, "/bs_fixture/factors/0/normal"),
        (
            {
                "factors": [
                    {"normal": [2, 1, 0], "offsets": [1]},
                    {"normal": [0, 1, 1], "offsets": ["x"]},
                ]
            },
            "/bs_fixture/factors/1/offsets/0",
        ),
    ],
    ids=[
        "empty",
        "not-object",
        "no-normal",
        "bad-normal",
        "zero-normal",
        "short-normal",
        "bad-offset",
    ],
)
def test_bad_bs_fixture_rejected(capsys, tmp_path, document, pointer):
    path = tmp_path / "bs.json"
    path.write_text(json.dumps(document))
    args = ["bs-slopes", "--spec", fixture("coin_model.json"), "--bs-fixture", str(path)]
    assert main(args + ["--bound", "1"]) == EXIT_VALIDATION
    assert f"[at {pointer}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "load, args, what, pointer",
    [
        (load_spec, (), "spec", ""),
        (cli.load_curve, (3,), "curve", "/curve"),
        (cli.load_bs_fixture, (3,), "BS fixture", "/bs_fixture"),
        (cli.load_k_map, (3,), "k map", "/k"),
    ],
    ids=["spec", "curve", "bs-fixture", "k"],
)
def test_a_json_array_file_is_rejected(tmp_path, load, args, what, pointer):
    path = tmp_path / "doc.json"
    path.write_text("[1, 2]")
    with pytest.raises(SpecValidationError) as info:
        load(str(path), *args)
    assert str(info.value) == f"{what} must be a JSON object [at {pointer or '/'}]"
    assert info.value.pointer == pointer


@pytest.mark.parametrize("value", ["[1, 2]", "  [1, 2]"])
def test_an_inline_json_array_is_not_read_as_a_path(capsys, value):
    assert main(["rigid-rays", "--spec", value]) == EXIT_VALIDATION
    assert capsys.readouterr().err.strip() == "error: spec must be a JSON object [at /]"


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ({"kind": "ideal", "variables": ["x"], "generators": [3]}, "/generators/0"),
        (
            {"kind": "parametrization", "parameters": ["x"], "functions": ["x", None]},
            "/functions/1",
        ),
    ],
    ids=["generator", "function"],
)
def test_non_string_polynomial_rejected(capsys, spec, pointer):
    code = main(["rigid-rays", "--spec", json.dumps(spec), "--bound", "1"])
    assert code == EXIT_VALIDATION
    assert f"[at {pointer}]" in capsys.readouterr().err


def test_every_command_takes_the_same_options_and_defaults():
    # every command reads the same ten options into the same JobConfig
    # fields, and takes JobConfig's defaults for those not given
    defaults = {
        "spec_source": "s.json",
        "bound": cli.DEFAULT_BOUND,
        "order": cli.DEFAULT_ORDER,
        "seed": groebner.DEFAULT_SEED,
        "budget": None,
        "precision": cli.DEFAULT_PRECISION,
        "out": None,
        "curve_path": None,
        "bs_fixture_path": None,
        "k_path": None,
    }
    given = ["--bound", "1", "--order", "2", "--seed", "3", "--budget", "4"]
    given += ["--precision", "5", "--out", "o", "--curve", "c"]
    given += ["--bs-fixture", "b", "--k", "k"]
    values = dict(defaults, bound=1, order=2, seed=3, budget=4, precision=5)
    values.update(out="o", curve_path="c", bs_fixture_path="b", k_path="k")
    assert len(cli.COMMANDS) == 8 and len(cli.OPTIONS) == 10
    for name in cli.COMMANDS:
        command, fields = cli.read_argv([name, "--spec", "s.json"])
        assert vars(JobConfig(command=command, **fields)) == dict(defaults, command=name)
        command, fields = cli.read_argv([name, "--spec", "s.json", *given])
        assert vars(JobConfig(command=command, **fields)) == dict(values, command=name)


FOUR_LINES = fixture("four_lines.json")
# sha256 of the --schema output before the option table replaced argparse
SCHEMA_SHA256 = "9e22564bf5167e40edc605d685da764c03889288fee14db27650d682113f9aed"


def usage_error(message):
    def check(out, err, run):
        assert out == "" and err == f"error: {message}\n"

    return check


def same_output_as(argv):
    def check(out, err, run):
        assert (EXIT_OK, out, err) == run(argv)

    return check


def names_every_command(out, err, run):
    commands = ["rigid-rays", "slopes", "euler", "mle"]
    commands += ["asymptotics", "bs-slopes", "lct", "report"]
    assert all(name in out for name in commands) and not err


def schema_unchanged(out, err, run):
    assert hashlib.sha256(out.encode()).hexdigest() == SCHEMA_SHA256 and not err


@pytest.mark.parametrize(
    "argv, code, check",
    [
        pytest.param(
            ["foo", "--spec", FOUR_LINES],
            EXIT_VALIDATION,
            usage_error("unknown command 'foo' [at /options/command]"),
            id="unknown-command",
        ),
        pytest.param(
            ["rigid-rays", "--spec", FOUR_LINES, "euler"],
            EXIT_VALIDATION,
            usage_error("command 'euler' given after 'rigid-rays' [at /options/command]"),
            id="repeated-command",
        ),
        pytest.param(
            ["rigid-rays", "--spec", FOUR_LINES, "--bou", "2"],
            EXIT_VALIDATION,
            usage_error("unknown option --bou [at /options/bou]"),
            id="option-prefix",
        ),
        pytest.param(
            ["rigid-rays", "--spec", FOUR_LINES, "--bound"],
            EXIT_VALIDATION,
            usage_error("--bound needs a value [at /options/bound]"),
            id="missing-value",
        ),
        pytest.param(
            ["rigid-rays", "--spec", "--bound", "2"],
            EXIT_VALIDATION,
            usage_error("--spec needs a value [at /options/spec]"),
            id="option-for-value",
        ),
        pytest.param(
            ["rigid-rays", "--spec", FOUR_LINES, "--seed", "x"],
            EXIT_VALIDATION,
            usage_error("--seed must be an integer, got 'x' [at /options/seed]"),
            id="non-integer",
        ),
        pytest.param(
            ["rigid-rays", "--bound", "1"],
            EXIT_VALIDATION,
            usage_error("--spec is required [at /options/spec]"),
            id="no-spec",
        ),
        pytest.param(
            ["rigid-rays", "--spec", FOUR_LINES, "--bound", "-1"],
            EXIT_VALIDATION,
            usage_error("bound must be >= 1 [at /options/bound]"),
            id="bound-below-one",
        ),
        pytest.param(
            ["rigid-rays", f"--spec={FOUR_LINES}", "--bound=1"],
            EXIT_OK,
            same_output_as(["rigid-rays", "--spec", FOUR_LINES, "--bound", "1"]),
            id="name=value",
        ),
        pytest.param(["--help"], EXIT_OK, names_every_command, id="help"),
        pytest.param(["--schema"], EXIT_OK, schema_unchanged, id="schema"),
    ],
)
def test_command_line_usage(capsys, argv, code, check):
    def run(argv):
        code = main(argv)
        return (code, *capsys.readouterr())

    assert main(argv) == code
    check(*capsys.readouterr(), run)


def test_proportional_arrangement_rows_rejected(capsys):
    # x = 0 and 2x = 0 are one line; the rows still have full rank
    spec = json.dumps(
        {
            "kind": "arrangement",
            "variables": ["x", "y"],
            "matrix": [[1, 0, 0], [0, 1, 0], [2, 0, 0]],
        }
    )
    assert main(["rigid-rays", "--spec", spec, "--bound", "1"]) == EXIT_VALIDATION
    assert "functionals 0 and 2 are proportional" in capsys.readouterr().err


def test_exit_code_precondition(capsys, tmp_path):
    # lct on an ideal spec without discrepancies cannot proceed
    code = main(
        [
            "lct",
            "--spec",
            fixture("coin_model.json"),
            "--bound",
            "2",
        ]
    )
    assert code == EXIT_PRECONDITION


@pytest.mark.parametrize("cls", list(cli.EXIT_CODES), ids=lambda cls: cls.__name__)
def test_main_exits_with_each_mapped_error_code(monkeypatch, capsys, cls):
    def failing(cfg):
        raise cls("boom", 0) if cls is errors.PolyParseError else cls("boom")

    monkeypatch.setattr(cli, "run_report", failing)
    code = main(["rigid-rays", "--spec", fixture("coin_model.json")])
    assert code == cli.EXIT_CODES[cls]
    assert capsys.readouterr().err.startswith("error: boom")


@pytest.mark.parametrize(
    "cls",
    [errors.VerificationFailed, errors.DimensionMismatch, errors.SeriesInversionError],
    ids=lambda cls: cls.__name__,
)
def test_main_lets_an_unmapped_error_propagate(monkeypatch, cls):
    def failing(cfg):
        raise cls("boom")

    monkeypatch.setattr(cli, "run_report", failing)
    with pytest.raises(cls, match="boom"):
        main(["rigid-rays", "--spec", fixture("coin_model.json")])


def test_exit_codes_disjoint():
    codes = [EXIT_OK, EXIT_VALIDATION, EXIT_RESOURCE, EXIT_PRECONDITION, EXIT_NUMERIC]
    assert len(set(codes)) == len(codes)


def test_euler_command_coin(capsys):
    assert (
        main(["euler", "--spec", fixture("coin_model.json"), "--bound", "2"])
        == EXIT_OK
    )
    report = json.loads(capsys.readouterr().out)
    assert [r["euler_char"] for r in report["rays"]] == [1, 1, 1]
    assert report["weighted_ray_sum"] == [0, 0, 0]


def test_mle_command_four_lines(capsys):
    assert (
        main(["mle", "--spec", fixture("four_lines.json"), "--bound", "2"])
        == EXIT_OK
    )
    report = json.loads(capsys.readouterr().out)
    assert report["ml_degree"] == 1
    assert report["mle"]["constants"] == ["1", "1", "1", "-1"]


def test_lct_command_four_lines(capsys):
    assert (
        main(["lct", "--spec", fixture("four_lines.json"), "--bound", "2"])
        == EXIT_OK
    )
    report = json.loads(capsys.readouterr().out)
    assert all(item["facet_defining"] for item in report["lct"])


def test_bs_slopes_command_with_fixture(capsys):
    code = main(
        [
            "bs-slopes",
            "--spec",
            fixture("four_lines_ideal.json"),
            "--bound",
            "2",
            "--bs-fixture",
            fixture("four_lines_bs.json"),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    gold = golden("four_lines_golden.json")
    assert sorted(
        s["form"] for s in report["bs"]["intersection_with_critical_slopes"]
    ) == sorted(gold["bs_intersection"])
    assert [s["form"] for s in report["bs"]["fixture_only"]] == gold[
        "bs_fixture_only"
    ]
    assert sorted(s["form"] for s in report["bs"]["critical_only"]) == sorted(
        gold["bs_critical_only"]
    )


def test_rigid_rays_on_arrangement_spec_implicitizes(capsys):
    # arrangement input is implicitized to its torus ideal for ray search
    assert (
        main(["rigid-rays", "--spec", fixture("four_lines.json"), "--bound", "2"])
        == EXIT_OK
    )
    report = json.loads(capsys.readouterr().out)
    assert [r["v"] for r in report["rays"]] == golden("four_lines_golden.json")[
        "rays"
    ]


def test_rigidity_is_read_on_the_torus_saturation(capsys):
    # at nine weights of the bound-3 box the surface's raw initial ideal is
    # graded by one line and its torus saturation by a plane; those
    # weights are not rigid, so the six rays with chi = -1 balance and
    # give the six slopes of the closed-form estimator
    spec = json.dumps(saturation_surface_spec())
    args = ["--spec", spec, "--bound", "3"]
    assert main(["euler", *args]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [(tuple(r["v"]), r["euler_char"]) for r in report["rays"]] == [
        (v, -1) for v in SATURATION_SURFACE_RAYS
    ]
    assert report["weighted_ray_sum"] == [0, 0, 0, 0]
    assert main(["slopes", *args]) == EXIT_OK
    assert len(json.loads(capsys.readouterr().out)["slopes"]) == 6
    assert main(["mle", *args]) == EXIT_OK
    assert "coordinates" in json.loads(capsys.readouterr().out)["mle"]
    assert main(["rigid-rays", "--spec", spec, "--bound", "2"]) == EXIT_OK
    rays = [r["v"] for r in json.loads(capsys.readouterr().out)["rays"]]
    assert [2, 1, 2, 1] not in rays


@pytest.mark.parametrize(
    "coords, names",
    [
        # both short names would be s1: each coordinate takes the s_ form
        (("t1", "s1"), ("s_t1", "s_s1")),
        (("x1", "y1"), ("s_x1", "s_y1")),
        # distinct short names stay
        (("t1", "t2"), ("s1", "s2")),
    ],
)
def test_mle_gives_each_coordinate_its_own_data_variable(capsys, coords, names):
    a, b = coords
    spec = {"kind": "ideal", "variables": [a, b], "generators": [f"{a}+2*{b}-1"]}
    assert main(["mle", "--spec", json.dumps(spec)]) == EXIT_OK
    out = capsys.readouterr()
    s, t = names
    coordinates = [f"{s}/({s} + {t})", f"1/2*{t}/({s} + {t})"]
    assert json.loads(out.out)["mle"]["coordinates"] == coordinates
    assert f"psi_1 = {coordinates[0]}" in out.err
    assert f"psi_2 = {coordinates[1]}" in out.err


def test_mle_command_reports_degree_three(capsys):
    assert (
        main(["mle", "--spec", fixture("conic_model.json"), "--bound", "2"])
        == EXIT_OK
    )
    report = json.loads(capsys.readouterr().out)
    assert report["ml_degree"] == 3
    assert "mle" not in report


def test_asymptotics_precision_refines_leading(capsys):
    code = main(
        [
            "asymptotics",
            "--spec",
            fixture("conic_model.json"),
            "--bound",
            "2",
            "--order",
            "4",
            "--precision",
            "160",
            "--curve",
            fixture("conic_curve.json"),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    refined = {
        tuple(b["refined_leading"])
        for b in report["branches"]
        if "refined_leading" in b
    }
    # the two real escaping branches, each refined to 160 bits (48 digits)
    assert refined == {
        (
            "-0.135643223060915472506224522157544611740822314250",
            "0.114356776939084527493775477842455388259177685749",
        ),
        (
            "-0.614356776939084527493775477842455388259177685749",
            "-0.364356776939084527493775477842455388259177685749",
        ),
    }


def test_branches_render_to_the_reported_branches():
    # the library entry gives the CLI's answer: rendered, its branches and
    # notes are those of the report
    cfg = JobConfig(
        command="asymptotics",
        spec_source=fixture("conic_model.json"),
        bound=2,
        order=4,
        precision=160,
        curve_path=fixture("conic_curve.json"),
    )
    report, _ = run_report(cfg)
    with groebner.Job(seed=cfg.seed):
        spec = load_spec(cfg.spec_source)
        curve = cli.load_curve(cfg.curve_path, spec.p)
        rays = find_rigid_rays(spec.to_ideal(), bound=2)
        found, notes = branches(spec, curve, rays, order=4, bits=160)
    assert [cli._branch_json(b, 160) for b in found] == report["branches"]
    assert notes == [w["message"] for w in report["warnings"] if w["code"] == "note"]
    assert any("refined_leading" in b for b in report["branches"])


def test_close_seeds_lift_at_order_12(capsys, tmp_path):
    # the random form of the default seed takes close values at two t = 0
    # points, so the roots of its minimal polynomial are ill-conditioned
    # in the rounded coefficients; seeds read from those roots fail to
    # lift at order 1 unless the roots are polished on the exact polynomial
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"components": ["5", "3", "t"]}))
    args = ["asymptotics", "--spec", fixture("conic_model.json"), "--curve", str(curve)]
    assert main(args + ["--bound", "2", "--order", "12"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["branches"]) == 3
    assert not [w for w in report["warnings"] if "failed to lift" in w["message"]]


def test_asymptotics_on_a_laurent_parametrization(capsys, tmp_path):
    # (s^-1, 1-s) has the one critical point s = a1/(a1-a2); along the
    # curve (1+t, 2-t) it is (1+t)/(2t-1) = -1 - 3t - 6t^2 - 12t^3 - ...
    # The cleared equations carry s^-1, a unit on the torus
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {"kind": "parametrization", "parameters": ["s"], "functions": ["s^-1", "1-s"]}
        )
    )
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"components": ["1+t", "2-t"]}))
    args = ["asymptotics", "--spec", str(spec), "--curve", str(curve), "--bound", "2"]
    assert main(args) == EXIT_OK
    [branch] = json.loads(capsys.readouterr().out)["branches"]
    assert branch["exact"] and branch["valuation_vector"] == [0, 0]
    [s] = branch["series"]
    values = [c["value"] for c in s["coefficients"]]
    assert values == ["-1"] + [str(-3 * 2 ** (k - 1)) for k in range(1, 9)]


@pytest.mark.parametrize(
    "spec, pointer",
    [
        pytest.param(
            {"kind": "parametrization", "parameters": ["t"], "functions": ["t", "1-t"]},
            "/parameters/0",
            id="parameter",
        ),
        pytest.param(
            {"kind": "ideal", "variables": ["x", "t"], "generators": ["x+t-1"]},
            "/variables/1",
            id="variable",
        ),
    ],
)
def test_asymptotics_rejects_an_unknown_named_t(capsys, tmp_path, spec, pointer):
    # an unknown named t would share the ring variable of the data curve
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"components": ["1+t", "2-t"]}))
    args = ["asymptotics", "--curve", str(curve), "--bound", "1", "--spec"]
    assert main([*args, json.dumps(spec)]) == EXIT_VALIDATION
    assert f"[at {pointer}]" in capsys.readouterr().err


def test_asymptotics_on_a_parameter_named_u(capsys, tmp_path):
    # the control of the case above: (u, 1-u) has the one critical point
    # u = a1/(a1+a2), along (1+t, 2-t) the exact branch (1+t)/3
    spec = {"kind": "parametrization", "parameters": ["u"], "functions": ["u", "1-u"]}
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"components": ["1+t", "2-t"]}))
    args = ["asymptotics", "--curve", str(curve), "--bound", "1"]
    assert main([*args, "--spec", json.dumps(spec)]) == EXIT_OK
    [branch] = json.loads(capsys.readouterr().out)["branches"]
    assert branch["exact"]
    [u] = branch["series"]
    assert [c["value"] for c in u["coefficients"]] == ["1/3", "1/3"] + ["0"] * 7


def test_schema_flag(capsys):
    assert main(["--schema"]) == EXIT_OK
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert "spec" in payload and "curve" in payload


def test_warnings_in_report():
    cfg = JobConfig(
        command="rigid-rays", spec_source=fixture("conic_model.json"), bound=1
    )
    report, _ = run_report(cfg)
    codes = {w["code"] for w in report["warnings"]}
    assert "connectedness_unverified" in codes


def asymptotics_in_fresh_interpreter(tmp_path, spec, curve, *options):
    """Run ``asymptotics`` in a new interpreter; (its branches, whether it
    imported numpy)."""
    code = (
        "import sys\n"
        "from tropcrit.cli import main\n"
        "main(sys.argv[1:])\n"
        "print('numpy imported' if 'numpy' in sys.modules else 'numpy absent')\n"
    )
    argv = ["asymptotics", "--spec", spec, "--curve", curve, *options]
    argv += ["--out", str(tmp_path / "report.json")]
    src = str(Path(tropcrit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code] + argv, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    branches = json.loads((tmp_path / "report.json").read_text())["branches"]
    return branches, done.stdout.splitlines()[-1] == "numpy imported"


def test_exact_asymptotics_run_does_not_import_numpy(tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"components": ["3", "2+t", "-2+t", "5"]}))
    branches, imported = asymptotics_in_fresh_interpreter(
        tmp_path, fixture("four_lines.json"), str(curve)
    )
    assert branches and all(b["exact"] for b in branches)
    assert not imported


def test_floating_asymptotics_run_does_not_import_numpy(tmp_path):
    # floating seeds are solved and lifted in pure Python too
    spec, curve = fixture("conic_model.json"), fixture("conic_curve.json")
    branches, imported = asymptotics_in_fresh_interpreter(
        tmp_path, spec, curve, "--bound", "2"
    )
    assert any(not b["exact"] for b in branches)
    assert not imported


def test_cli_run_imports_no_argparse(tmp_path):
    # the command line is read from the option table, so neither argparse
    # nor the gettext and locale modules of its messages are imported
    code = (
        "import sys\n"
        "import tropcrit.cli\n"
        "print(tropcrit.cli.main(sys.argv[1:]))\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    argv = ["rigid-rays", "--spec", FOUR_LINES, "--out", str(tmp_path / "r.json")]
    src = str(Path(tropcrit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code] + argv, env=env, capture_output=True, text=True
    )
    assert done.stdout.splitlines() == ["0", "[]"], done.stderr
    assert json.loads((tmp_path / "r.json").read_text())["rays"]


@pytest.mark.parametrize(
    "document, pointer",
    [
        ({"rays": [{"ray": ["a", 0, 0, 1], "k": 1}]}, "/k/rays/0/ray"),
        ({"rays": [{"ray": [1.5, 0, 0, 1], "k": 1}]}, "/k/rays/0/ray"),
        ({"rays": [{"ray": [True, 0, 0, 1], "k": 1}]}, "/k/rays/0/ray"),
        ({"rays": [{"ray": [1, 0], "k": 1}]}, "/k/rays/0/ray"),
        ({"rays": [{"ray": [1, 0, 0, 1], "k": "abc"}]}, "/k/rays/0/k"),
        ({"rays": [{"ray": [0, 1, 0, 0], "k": -1}]}, "/k/rays/0/k"),
    ],
    ids=[
        "string-entry",
        "float-entry",
        "bool-entry",
        "short-ray",
        "bad-k",
        "negative-k",
    ],
)
def test_bad_k_map_rejected(capsys, tmp_path, document, pointer):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(document))
    args = ["lct", "--spec", fixture("four_lines.json"), "--k", str(path)]
    assert main(args + ["--bound", "1"]) == EXIT_VALIDATION
    assert f"[at {pointer}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, pointer",
    [
        (5, "/curve"),
        ({}, "/curve"),
        ({"components": [3, "t", "1"]}, "/curve/components/0"),
        ({"components": ["t", "1+t^", "1"]}, "/curve/components/1"),
        ({"components": ["-t", "1"]}, "/curve/components"),
        ({"components": ["-t", "1", "2", "3"]}, "/curve/components"),
    ],
    ids=[
        "not-object",
        "no-components",
        "non-string-component",
        "bad-component",
        "too-few-components",
        "too-many-components",
    ],
)
def test_bad_curve_rejected(capsys, tmp_path, document, pointer):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(document))
    args = ["asymptotics", "--spec", fixture("conic_model.json"), "--curve", str(path)]
    assert main(args + ["--bound", "2"]) == EXIT_VALIDATION
    assert f"[at {pointer}]" in capsys.readouterr().err


def test_asymptotics_without_curve_rejected_before_ray_search(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the ray search ran before the curve was checked")

    monkeypatch.setattr(cli, "find_rigid_rays", no_search)
    assert main(["asymptotics", "--spec", fixture("conic_model.json")]) == EXIT_VALIDATION
    assert "[at /curve]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "components, message",
    [
        (["1+t", "2", "t^2"], "transversely"),
        (["-1-t", "1", "t"], "not generic"),
    ],
    ids=["tangent", "on-slope-hyperplane"],
)
def test_curve_breaking_a_precondition_exits_5(capsys, tmp_path, components, message):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"components": components}))
    args = ["asymptotics", "--spec", fixture("conic_model.json"), "--curve", str(path)]
    assert main(args + ["--bound", "2"]) == EXIT_PRECONDITION
    assert message in capsys.readouterr().err


TWO_FUNCTIONS = {"kind": "parametrization", "parameters": ["x"], "functions": ["x", "1-x"]}
FIVE_LINES = [[1, 0, 0], [0, 1, 0], [1, -1, 0], [1, 0, -1], [0, 1, -1]]


@pytest.mark.parametrize(
    "spec, pointer",
    [
        ({"kind": "ideal", "variables": ["x", "x"], "generators": ["x-1"]}, "/variables"),
        ({"kind": "ideal", "variables": ["x", 3], "generators": ["x-1"]}, "/variables"),
        ({"kind": "ideal", "variables": [], "generators": ["1"]}, "/variables"),
        ({"kind": "parametrization", "parameters": [], "functions": ["2", "3"]}, "/parameters"),
        ({"kind": "arrangement", "variables": [], "matrix": []}, "/variables"),
        ({**TWO_FUNCTIONS, "parameters": ["x", "x"]}, "/parameters"),
        ({**TWO_FUNCTIONS, "coordinates": ["a"]}, "/coordinates"),
        ({**TWO_FUNCTIONS, "coordinates": ["a", "a"]}, "/coordinates"),
        ({**TWO_FUNCTIONS, "coordinates": ["a", "x"]}, "/coordinates"),
        ({**TWO_FUNCTIONS, "parameters": ["t1"], "functions": ["t1", "1-t1"]}, "/parameters"),
        ({**TWO_FUNCTIONS, "functions": ["x", "0"]}, "/functions/1"),
        ({**TWO_FUNCTIONS, "functions": []}, "/functions"),
        (
            {"kind": "arrangement", "variables": ["x", "x"], "matrix": [[1, 0, 0], [0, 1, 0]]},
            "/variables",
        ),
        (
            {"kind": "arrangement", "variables": ["t1", "t2"], "matrix": FIVE_LINES},
            "/variables",
        ),
        (
            {
                "kind": "arrangement",
                "variables": ["x", "y"],
                "matrix": [[1, 0, 0], [0, 1, 0], [1, 1, -1]],
                "projective_closure": "no",
            },
            "/projective_closure",
        ),
    ],
    ids=[
        "duplicate-variables",
        "non-string-variable",
        "no-variables",
        "no-parameters",
        "no-arrangement-variables",
        "duplicate-parameters",
        "too-few-coordinates",
        "duplicate-coordinates",
        "coordinate-is-parameter",
        "parameter-is-default-coordinate",
        "zero-function",
        "no-functions",
        "duplicate-arrangement-variables",
        "variable-is-default-coordinate",
        "closure-not-bool",
    ],
)
def test_bad_spec_names_rejected(capsys, spec, pointer):
    code = main(["rigid-rays", "--spec", json.dumps(spec), "--bound", "1"])
    assert code == EXIT_VALIDATION
    assert f"[at {pointer}]" in capsys.readouterr().err
