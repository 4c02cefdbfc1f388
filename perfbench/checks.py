"""Per-job output checks.

Each check takes a parsed JSON report and the job's expectation and returns
a list of problems; an empty list means the report passed.  The bundled
fixtures are compared with their ``*_golden.json``; generated inputs are
checked by routes independent of the one the report took (flacet rays
against the box search, |chi| against the ML degree, the balanced weighted
ray sum, the branch count against the ML degree).
"""

from __future__ import annotations


def _rays(report):
    return [r["v"] for r in report.get("rays", [])]


def _forms(items):
    return sorted(s["form"] for s in items)


def _compare(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got}, want {want}")


def check_golden(report, expect):
    """Every field of a fixture's golden file that the report carries."""
    gold = expect["golden"]
    problems = []
    _compare(problems, "rays", _rays(report), gold["rays"])
    if "slopes" in gold:
        _compare(problems, "slopes", _forms(report.get("slopes", [])), sorted(gold["slopes"]))
    _compare(problems, "ml_degree", report.get("ml_degree"), gold["ml_degree"])
    if "mle_constants" in gold:
        got = report.get("mle", {}).get("constants")
        _compare(problems, "mle constants", got, gold["mle_constants"])
    if "euler_chars" in gold:
        got = [r.get("euler_char") for r in report.get("rays", [])]
        _compare(problems, "euler chars", got, gold["euler_chars"])
    _compare(problems, "weighted ray sum", report.get("weighted_ray_sum"), gold["weighted_ray_sum"])
    bs = report.get("bs", {})
    if "bs_intersection" in gold:
        got = _forms(bs.get("intersection_with_critical_slopes", []))
        _compare(problems, "bs intersection", got, sorted(gold["bs_intersection"]))
    if "bs_fixture_only" in gold:
        _compare(problems, "bs fixture-only", _forms(bs.get("fixture_only", [])), sorted(gold["bs_fixture_only"]))
        _compare(problems, "bs critical-only", _forms(bs.get("critical_only", [])), sorted(gold["bs_critical_only"]))
    return problems


def check_golden_branches(report, expect):
    """Conic asymptotics on its fixture curve: branch count, the escaping
    valuation and its multiplicity |chi|, and the exact interior series."""
    gold = expect["golden"]
    branches = report.get("branches", [])
    problems = check_branches(
        report,
        {"ml_degree": gold["ml_degree"], "ray": gold["escape_valuations"], "escaping": expect["escaping"]},
    )
    interior = [b for b in branches if not any(b["valuation_vector"])]
    if len(interior) != 1 or not interior[0]["exact"]:
        problems.append(f"expected one exact interior branch, got {len(interior)}")
    else:
        got = [[c["value"] for c in s["coefficients"][:3]] for s in interior[0]["series"]]
        _compare(problems, "interior coefficients", got, gold["interior_coefficients"])
    return problems


def check_rays(report, expect):
    """Box-search rays equal the expected set (golden and/or flacet rays)."""
    problems = []
    _compare(problems, "rays", _rays(report), expect["rays"])
    return problems


def check_branches(report, expect):
    """Branch count equals the ML degree; when ``ray`` is given, the
    branches escaping along it number |chi| of its stratum."""
    branches = report.get("branches", [])
    problems = []
    _compare(problems, "branch count", len(branches), expect["ml_degree"])
    if expect.get("ray") is not None:
        along = sum(1 for b in branches if b["valuation_vector"] == expect["ray"])
        _compare(problems, f"branches escaping along {expect['ray']}", along, expect["escaping"])
    return problems


def check_arrangement(report, expect):
    """Rays equal the flacet rays, the ML degree equals |chi_complement|
    and the weighted ray sum vanishes."""
    problems = check_rays(report, expect)
    _compare(problems, "ml_degree", report.get("ml_degree"), expect["ml_degree"])
    wrs = report.get("weighted_ray_sum")
    if not wrs or any(wrs):
        problems.append(f"weighted ray sum {wrs} is not zero")
    return problems


CHECKS = {
    "golden": check_golden,
    "golden_branches": check_golden_branches,
    "rays": check_rays,
    "branches": check_branches,
    "arrangement": check_arrangement,
}


def check(report, expect):
    """Problems with ``report`` under the job's expectation ``expect``."""
    return CHECKS[expect["kind"]](report, expect)
