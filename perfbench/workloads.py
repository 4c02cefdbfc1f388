"""The benchmark's workloads: CLI jobs, their inputs and expectations.

``WORKLOADS[name](seed, inputs_dir)`` returns the jobs of one workload and
the generated input files (relative path -> JSON object).  The program only
ever sees those files.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import json
from random import Random

from . import gen

FIXTURES = "src/tropcrit/fixtures"
CONIC = f"{FIXTURES}/conic_model.json"

# Generator seed of the escapes curves.  It is fixed, not the run's seed:
# generated curves hit the defects listed in NOTES.md on some seeds, and a
# timed workload may not fail at baseline; the defects run as named probes.
ESCAPES_CURVE_SEED = 1
ESCAPES_ARGS = ["--bound", "2", "--order", "12", "--precision", "192"]

FIVE_LINES = {
    "kind": "arrangement",
    "variables": ["x", "y"],
    "matrix": [[1, 0, 0], [0, 1, 0], [1, -1, 0], [1, 0, -1], [0, 1, -1]],
    "projective_closure": True,
}

# (lines, gen.line_type) per generated arrangement: the work follows the
# combinatorial type, so fixing the types per slot keeps a run's cost
# steady while the seed draws the coefficients.
ARRANGEMENT_SLOTS = (
    (4, ()),
    (4, ((3, False),)),
    (4, ((3, True),)),
    (4, ((3, False), (3, True))),
    (5, ((3, True),)),
    (5, ((3, False), (3, True))),
)

# Known defects (NOTES.md), run after the timed loop of ``escapes``.
PROBES = (
    {
        "name": "two_hyperplane_corner",
        "defect": "alpha(0) on two slope hyperplanes returns fewer than 3 branches, no warning",
        "curve": {"components": ["-2", "-t", "2-3*t"]},
        "expect": {"kind": "branches", "ml_degree": 3},
    },
    {
        "name": "order12_float_tail",
        "defect": "float64 tail drops an escaping branch: residual of order 10 does not vanish",
        "curve": {"components": ["-5+3*t", "-2+2*t", "7/2+3*t"]},
        "expect": {"kind": "branches", "ml_degree": 3, "ray": [-1, -1, -2], "escaping": 2},
    },
    {
        "name": "generated_seed2_ray_-1-1-2",
        "defect": "both interior branches vanish without a note",
        "curve": {"components": ["-1-t", "-1-2*t", "1"]},
        "expect": {"kind": "branches", "ml_degree": 3, "ray": [-1, -1, -2], "escaping": 2},
    },
    {
        "name": "generated_seed3_ray_001",
        "defect": "an interior branch fails to lift: residual of order 6 does not vanish",
        "curve": {"components": ["-1", "3/2+2*t", "3*t"]},
        "expect": {"kind": "branches", "ml_degree": 3, "ray": [0, 0, 1], "escaping": 3},
    },
)


def _golden(name):
    with open(f"{FIXTURES}/{name}") as fh:
        return json.load(fh)


def _job(name, argv, expect):
    return {"name": name, "argv": argv, "expect": expect}


def fixtures(seed, inputs_dir):
    """The bundled fixtures as a user runs them, checked against golden."""
    jobs = []
    for model, golden, bs in (
        ("coin_model.json", "coin_golden.json", "coin_bs.json"),
        ("four_lines.json", "four_lines_golden.json", "four_lines_bs.json"),
        ("conic_model.json", "conic_golden.json", None),
    ):
        argv = ["report", "--spec", f"{FIXTURES}/{model}"]
        if bs:
            argv += ["--bs-fixture", f"{FIXTURES}/{bs}"]
        name = model.split("_model")[0].split(".json")[0] + "_report"
        jobs.append(_job(name, argv, {"kind": "golden", "golden": _golden(golden)}))
    conic = _golden("conic_golden.json")
    ray = conic["escape_valuations"]
    jobs.append(
        _job(
            "conic_asymptotics",
            ["asymptotics", "--spec", CONIC, "--curve", f"{FIXTURES}/conic_curve.json", "--bound", "2"],
            {
                "kind": "golden_branches",
                "golden": conic,
                "escaping": abs(conic["euler_chars"][conic["rays"].index(ray)]),
            },
        )
    )
    return jobs, {}


def ray_search(seed, inputs_dir):
    """Box searches dominated by initial ideals: many small Groebner runs."""
    from tropcrit.arrangement import flacet_rays
    from tropcrit.cli import load_spec

    def flacets(spec):
        return [list(r.v) for r in flacet_rays(load_spec(spec).arrangement)]

    four = _golden("four_lines_golden.json")["rays"]
    if flacets(f"{FIXTURES}/four_lines.json") != four:
        raise RuntimeError("four_lines golden rays disagree with its flacet rays")
    path = f"{inputs_dir}/five_lines.json"
    jobs = [
        _job(
            "four_lines_ideal_bound4",
            ["rigid-rays", "--spec", f"{FIXTURES}/four_lines_ideal.json", "--bound", "4"],
            {"kind": "rays", "rays": four},
        ),
        _job(
            "five_lines_bound2",
            ["rigid-rays", "--spec", path, "--bound", "2"],
            {"kind": "rays", "rays": flacets(FIVE_LINES)},
        ),
    ]
    return jobs, {path: FIVE_LINES}


def escapes(seed, inputs_dir):
    """Conic series branches on curves entering one slope hyperplane each:
    few large saturations, series arithmetic and exact refinement."""
    gold = _golden("conic_golden.json")
    rays, chis = gold["rays"], gold["euler_chars"]
    rng = Random(ESCAPES_CURVE_SEED)
    jobs, files = [], {}
    for ray, chi in zip(rays, chis):
        tag = "".join(str(x) for x in ray)
        path = f"{inputs_dir}/curve_{tag}.json"
        files[path] = gen.curve_on_ray(rng, ray, rays)
        jobs.append(
            _job(
                f"curve_on_{tag}",
                ["asymptotics", "--spec", CONIC, "--curve", path] + ESCAPES_ARGS,
                {"kind": "branches", "ml_degree": gold["ml_degree"], "ray": ray, "escaping": abs(chi)},
            )
        )
    return jobs, files


def arrangements(seed, inputs_dir):
    """Full reports on generated essential line arrangements."""
    from tropcrit.arrangement import chi_complement, flacet_rays
    from tropcrit.cli import load_spec

    rng = Random(seed)
    jobs, files = [], {}
    for i, (lines, kind) in enumerate(ARRANGEMENT_SLOTS):
        spec = gen.arrangement(rng, lines, kind)
        arr = load_spec(spec).arrangement
        path = f"{inputs_dir}/arrangement_{i}.json"
        files[path] = spec
        jobs.append(
            _job(
                f"arrangement_{i}_{lines}lines",
                ["report", "--spec", path, "--bound", "1"],
                {
                    "kind": "arrangement",
                    "rays": [list(r.v) for r in flacet_rays(arr)],
                    "ml_degree": abs(chi_complement(arr)),
                },
            )
        )
    return jobs, files


WORKLOADS = {
    "fixtures": fixtures,
    "ray_search": ray_search,
    "escapes": escapes,
    "arrangements": arrangements,
}


def probe_jobs(inputs_dir):
    """Jobs and curve files of the known-defect probes."""
    jobs, files = [], {}
    for probe in PROBES:
        path = f"{inputs_dir}/probe_{probe['name']}.json"
        files[path] = probe["curve"]
        job = _job(probe["name"], ["asymptotics", "--spec", CONIC, "--curve", path] + ESCAPES_ARGS, probe["expect"])
        job["defect"] = probe["defect"]
        jobs.append(job)
    return jobs, files
