"""Command-line surface: JSON in, JSON out.

Commands run the pipeline on a variety spec (ideal, parametrization or
arrangement), write a machine-readable report to stdout (or --out) and a
human summary to stderr.  All randomness flows from the ``Job``'s stream,
seeded by ``--seed``; the seed is echoed in every report.

The command line is read in one pass over argv (``read_argv``): one
command of ``COMMANDS`` and the options of ``OPTIONS``, each as
``--name value`` or ``--name=value`` and spelled out in full; the defaults
are ``JobConfig``'s.  A usage error (unknown or repeated command, unknown
option, missing or non-integer value, no --spec) is a
``SpecValidationError`` at /options/<name>, so it exits 2 like every
other validation error; -h/--help prints the help built from the two
tables and exits 0.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import errors
from .arrangement import Arrangement, matroid_invariants
from .asymptotics import CURVE_VAR, DEFAULT_ORDER, DataCurve, branches
from .bs_lct import (
    BSFactor,
    BSFixture,
    bs_slope_intersection,
    conjecture_check,
    qfa_nonneg_certificate,
)
from .groebner import DEFAULT_SEED, Ideal, Job
from .linalg import rank
from .mle import VarietySpec, default_coordinates, ml_degree, mle_closed_form
from .rings import Polynomial
from .tropical import (
    critical_slopes,
    find_rigid_rays,
    ray_sum,
    stratum_euler_char,
    warn_connectedness_assumed,
)

VERSION = "0.1.0"
DEFAULT_BOUND = 3
DEFAULT_PRECISION = 53

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_DEGENERATE = 4
EXIT_PRECONDITION = 5
EXIT_NUMERIC = 6

EXIT_CODES = {
    errors.SpecValidationError: EXIT_VALIDATION,
    errors.PolyParseError: EXIT_VALIDATION,
    errors.ResourceBudgetExceeded: EXIT_RESOURCE,
    errors.DegenerateSample: EXIT_DEGENERATE,
    errors.NotZeroDimensional: EXIT_DEGENERATE,
    errors.MLDegreeNotOne: EXIT_PRECONDITION,
    errors.UnbalancedRays: EXIT_PRECONDITION,
    errors.NotInTropicalVariety: EXIT_PRECONDITION,
    errors.AlphaNotOnHyperplane: EXIT_PRECONDITION,
    errors.CurveNotGeneric: EXIT_PRECONDITION,
    errors.NotCentral: EXIT_PRECONDITION,
    errors.NotIndecomposable: EXIT_PRECONDITION,
    errors.NotEssential: EXIT_PRECONDITION,
    errors.MissingDiscrepancy: EXIT_PRECONDITION,
    errors.SingularJacobian: EXIT_NUMERIC,
    errors.NoConvergence: EXIT_NUMERIC,
    errors.TruncationTooShort: EXIT_NUMERIC,
}

SPEC_SCHEMA = {
    "oneOf": [
        {
            "kind": "ideal",
            "required": {"variables": "nonempty list of names", "generators": "list of polynomial strings"},
        },
        {
            "kind": "parametrization",
            "required": {"parameters": "nonempty list of names", "functions": "list of polynomial strings"},
            "optional": {"coordinates": "list of names (default t1..tp)"},
        },
        {
            "kind": "arrangement",
            "required": {"variables": "nonempty list of names", "matrix": "rows [a_1..a_n, constant]"},
            "optional": {"projective_closure": "bool (default true)"},
        },
    ]
}
CURVE_SCHEMA = {"components": "list of polynomial strings in t"}
BS_FIXTURE_SCHEMA = {"factors": [{"normal": "integer vector", "offsets": "optional list of rationals"}]}
K_SCHEMA = {"rays": [{"ray": "integer vector", "k": "positive rational"}]}


# -- input loading -----------------------------------------------------------------


def _expect(obj, key, pointer, types=None):
    if key not in obj:
        raise errors.SpecValidationError(f"missing field {key!r}", pointer)
    val = obj[key]
    if types and not isinstance(val, types):
        raise errors.SpecValidationError(
            f"field {key!r} has wrong type {type(val).__name__}", f"{pointer}/{key}"
        )
    return val


def _parse_json(text, what, pointer):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.SpecValidationError(f"{what} is not valid JSON: {exc}", pointer)


def _load_json(path, pointer, what, root):
    """The JSON object in a file, the document ``what``: an unreadable
    file or invalid JSON is a validation error at ``pointer``, and any
    other JSON value one at ``root``, the pointer of the document."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise errors.SpecValidationError(f"cannot read {path}: {exc.strerror}", pointer)
    obj = _parse_json(text, path, pointer)
    if not isinstance(obj, dict):
        raise errors.SpecValidationError(f"{what} must be a JSON object", root)
    return obj


def _rational(x, pointer):
    try:
        return Fraction(str(x))
    except (ValueError, ZeroDivisionError):
        raise errors.SpecValidationError(f"{x!r} is not a rational number", pointer)


def _polynomials(texts, vars, pointer):
    """Parse a list of polynomial strings; the pointer of a bad entry is
    ``pointer/i``."""
    polys = []
    for i, text in enumerate(texts):
        if not isinstance(text, str):
            raise errors.SpecValidationError(
                f"{text!r} is not a polynomial string", f"{pointer}/{i}"
            )
        try:
            polys.append(Polynomial.parse(text, vars))
        except errors.PolyParseError as exc:
            raise errors.SpecValidationError(str(exc), f"{pointer}/{i}")
    return polys


def _names(obj, key, taken=(), size=None):
    """The names listed at ``key``: at least one, distinct strings other
    than the names in ``taken``, and ``size`` of them when a size is
    given."""
    names = _expect(obj, key, "", list)
    if (
        not names
        or not all(isinstance(x, str) for x in names)
        or len({*names, *taken}) != len(names) + len(taken)
        or size not in (None, len(names))
    ):
        count = "one or more" if size is None else size
        other = f" other than {', '.join(taken)}" if taken else ""
        raise errors.SpecValidationError(
            f"{key} must be {count} distinct name strings{other}", f"/{key}"
        )
    return tuple(names)


def load_spec(source) -> VarietySpec:
    """Parse a variety spec from a JSON object, string or file path."""
    if isinstance(source, str):
        if source.lstrip().startswith("{"):
            obj = _parse_json(source, "inline spec", "/spec")
        else:
            obj = _load_json(source, "/spec", "spec", "")
    else:
        obj = source
    if not isinstance(obj, dict):
        raise errors.SpecValidationError("spec must be a JSON object", "")
    kind = _expect(obj, "kind", "", str)
    if kind == "ideal":
        vars = _names(obj, "variables")
        gens = _expect(obj, "generators", "", list)
        polys = _polynomials(gens, vars, "/generators")
        return VarietySpec(kind="ideal", ideal=Ideal(polys, vars))
    if kind == "parametrization":
        texts = _expect(obj, "functions", "", list)
        if not texts:
            raise errors.SpecValidationError(
                "a parametrization needs at least one function", "/functions"
            )
        if obj.get("coordinates") is None:
            coords = default_coordinates(len(texts))
            params = _names(obj, "parameters", coords)
        else:
            params = _names(obj, "parameters")
            coords = _names(obj, "coordinates", params, len(texts))
        funcs = _polynomials(texts, params, "/functions")
        for i, f in enumerate(funcs):
            if f.is_zero:
                raise errors.SpecValidationError(
                    "parametrization functions must be nonzero", f"/functions/{i}"
                )
        return VarietySpec(kind="parametrization", functions=funcs, coordinates=coords)
    if kind == "arrangement":
        matrix = _expect(obj, "matrix", "", list)
        vars = _names(obj, "variables", default_coordinates(len(matrix)))
        rows = []
        for i, row in enumerate(matrix):
            if not isinstance(row, list) or len(row) != len(vars) + 1:
                raise errors.SpecValidationError(
                    f"row must have {len(vars)+1} entries (coefficients + constant)",
                    f"/matrix/{i}",
                )
            entries = [_rational(x, f"/matrix/{i}/{j}") for j, x in enumerate(row)]
            rows.append((tuple(entries[:-1]), entries[-1]))
        closure = obj.get("projective_closure", True)
        if not isinstance(closure, bool):
            raise errors.SpecValidationError(
                "projective_closure must be true or false", "/projective_closure"
            )
        r = rank([list(coeffs) for coeffs, _ in rows])
        if r < len(vars):
            raise errors.NotEssential(
                f"arrangement is not essential: its coefficient matrix has "
                f"rank {r} < {len(vars)}"
            )
        try:
            arr = Arrangement(
                rows=rows,
                nvars=len(vars),
                projective_closure=closure,
                vars=vars,
            )
        except ValueError as exc:
            raise errors.SpecValidationError(str(exc), "/matrix")
        return VarietySpec(kind="arrangement", arrangement=arr)
    raise errors.SpecValidationError(f"unknown kind {kind!r}", "/kind")


def serialize_spec(spec: VarietySpec):
    if spec.kind == "ideal":
        return {
            "kind": "ideal",
            "variables": list(spec.ideal.vars),
            "generators": [str(g) for g in spec.ideal.gens],
        }
    if spec.kind == "parametrization":
        return {
            "kind": "parametrization",
            "parameters": list(spec.params),
            "functions": [str(f) for f in spec.functions],
            "coordinates": list(spec.coordinates),
        }
    arr = spec.arrangement
    return {
        "kind": "arrangement",
        "variables": list(arr.vars),
        "matrix": [
            [str(x) for x in coeffs] + [str(const)] for coeffs, const in arr.rows
        ],
        "projective_closure": arr.projective_closure,
    }


def load_curve(path, size) -> DataCurve:
    """The data curve of a --curve file, checked against ``CURVE_SCHEMA``
    with pointers under /curve: ``size`` polynomials in t, one per
    coordinate."""
    obj = _load_json(path, "/curve", "curve", "/curve")
    comps = _expect(obj, "components", "/curve", list)
    if len(comps) != size:
        raise errors.SpecValidationError(
            f"curve must have {size} components, one per coordinate",
            "/curve/components",
        )
    return DataCurve(tuple(_polynomials(comps, (CURVE_VAR,), "/curve/components")))


def load_bs_fixture(path, size) -> BSFixture:
    """The Bernstein-Sato factors of a fixture file, checked against
    ``BS_FIXTURE_SCHEMA`` with pointers under /bs_fixture; every normal
    has ``size`` entries, one per coordinate."""
    obj = _load_json(path, "/bs_fixture", "BS fixture", "/bs_fixture")
    factors = []
    for i, item in enumerate(_expect(obj, "factors", "/bs_fixture", list)):
        at = f"/bs_fixture/factors/{i}"
        if not isinstance(item, dict):
            raise errors.SpecValidationError("factor must be a JSON object", at)
        normal = _expect(item, "normal", at, list)
        if (
            len(normal) != size
            or not all(type(x) is int for x in normal)
            or not any(normal)
        ):
            raise errors.SpecValidationError(
                f"normal must be a nonzero integer vector of length {size}",
                f"{at}/normal",
            )
        offsets = item.get("offsets")
        if offsets is not None and not isinstance(offsets, list):
            raise errors.SpecValidationError(
                "offsets must be a list of rationals", f"{at}/offsets"
            )
        offsets = tuple(
            _rational(k, f"{at}/offsets/{j}") for j, k in enumerate(offsets or ())
        )
        factors.append(BSFactor(normal=tuple(normal), offsets=offsets or None))
    return BSFixture(factors=factors)


def load_k_map(path, size):
    """The discrepancies of a --k file, ray -> k, checked against
    ``K_SCHEMA`` with pointers under /k; every ray is an integer vector of
    ``size`` entries, one per coordinate, and every k a positive
    rational."""
    obj = _load_json(path, "/k", "k map", "/k")
    out = {}
    for i, item in enumerate(_expect(obj, "rays", "/k", list)):
        at = f"/k/rays/{i}"
        if not isinstance(item, dict):
            raise errors.SpecValidationError("ray entry must be a JSON object", at)
        ray = _expect(item, "ray", at, list)
        if len(ray) != size or not all(type(x) is int for x in ray):
            raise errors.SpecValidationError(
                f"ray must be an integer vector of length {size}", f"{at}/ray"
            )
        k = _rational(_expect(item, "k", at), f"{at}/k")
        if k <= 0:
            raise errors.SpecValidationError("k must be positive", f"{at}/k")
        out[tuple(ray)] = k
    return out


# -- job configuration ------------------------------------------------------------


@dataclass
class JobConfig:
    command: str
    spec_source: str
    bound: int = DEFAULT_BOUND
    order: int = DEFAULT_ORDER
    seed: int = DEFAULT_SEED
    budget: int | None = None
    precision: int = DEFAULT_PRECISION
    out: str | None = None
    curve_path: str | None = None
    bs_fixture_path: str | None = None
    k_path: str | None = None

    def __post_init__(self):
        if self.bound < 1:
            raise errors.SpecValidationError("bound must be >= 1", "/options/bound")
        if self.order < 1:
            raise errors.SpecValidationError("order must be >= 1", "/options/order")
        if self.precision < 1:
            raise errors.SpecValidationError(
                "precision must be >= 1", "/options/precision"
            )
        if self.budget is not None and self.budget < 0:
            raise errors.SpecValidationError(
                "budget must be >= 0", "/options/budget"
            )
        if self.out and not os.path.isdir(os.path.dirname(self.out) or "."):
            raise errors.SpecValidationError(
                f"no directory to write {self.out!r} into", "/options/out"
            )
        if self.out and os.path.isdir(self.out):
            raise errors.SpecValidationError(
                f"{self.out!r} is a directory, not a file", "/options/out"
            )

    def options_dict(self):
        return {
            "bound": self.bound,
            "order": self.order,
            "seed": self.seed,
            "budget": self.budget,
            "precision": self.precision,
        }


def _frac_str(x) -> str:
    return str(Fraction(x))


def _coeff_json(c):
    if isinstance(c, (int, Fraction)):
        return {"value": _frac_str(c), "exact": True}
    c = complex(c)
    if abs(c.imag) < 1e-14 * max(1.0, abs(c.real)):
        return {"value": repr(c.real), "exact": False}
    return {"value": repr(c), "exact": False}


def _series_json(series):
    return {
        "valuation": series.valuation,
        "truncation_order": series.truncation_order,
        "coefficients": [_coeff_json(c) for c in series.coeffs],
        "exact": series.exact,
    }


def _ray_json(ray, chi=None):
    out = {"v": list(ray.v), "rigid": True, "source": ray.source}
    if chi is not None:
        out["euler_char"] = chi
    return out


def _slope_json(h, svars):
    return {"normal": list(h.normal), "form": h.form_string(svars)}


def frac_decimal(x: Fraction, digits: int) -> str:
    """Decimal expansion of a rational to the given number of digits."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole = x.numerator // x.denominator
    rem = x.numerator - whole * x.denominator
    frac_digits = []
    for _ in range(digits):
        rem *= 10
        d = rem // x.denominator
        frac_digits.append(str(d))
        rem -= d * x.denominator
    return f"{sign}{whole}." + "".join(frac_digits)


def _branch_json(branch, precision):
    sol = branch.solution
    entry = {
        "unknown_valuations": list(branch.unknown_valuations),
        "series": [_series_json(s) for s in sol.branch],
        "valuation_vector": list(branch.valuation_vector),
        "exact": sol.exact,
        "residual_order": sol.residual_order,
        "nonnegative_certificate": qfa_nonneg_certificate(branch.valuation_vector),
    }
    if branch.ray is not None:
        entry["ray"] = list(branch.ray.v)
    if branch.refined_leading is not None:
        digits = max(1, precision * 30 // 100)
        entry["refined_leading"] = [
            frac_decimal(r, digits) for r in branch.refined_leading
        ]
    return entry


# -- pipeline ----------------------------------------------------------------------


def run_report(cfg: JobConfig):
    """Execute the requested pipeline; returns (report dict, exit code).

    The whole run is one ``Job``: ``cfg.budget`` bounds the reduction
    steps of all its Groebner calls together, and ``cfg.seed`` seeds its
    one random stream.  An arrangement spec takes its rays, their
    stratum Euler characteristics and its ML degree from the lattice of
    flats (``matroid_invariants``), complete with no bound, and its
    estimator's constants from linear algebra, so its report runs no
    Groebner basis; other specs search the rays within the bound and
    compute the rest on the torus ideal.
    """
    report = {
        "tool": "tropcrit",
        "version": VERSION,
        "command": cfg.command,
        "options": cfg.options_dict(),
        "warnings": [],
    }
    notes = []
    with warnings.catch_warnings(record=True) as caught, Job(cfg.budget, cfg.seed):
        warnings.simplefilter("always")
        spec = load_spec(cfg.spec_source)
        report["inputs"] = serialize_spec(spec)
        svars = list(spec.svars)
        fixture = None
        if cfg.command in ("bs-slopes", "report") and cfg.bs_fixture_path:
            fixture = load_bs_fixture(cfg.bs_fixture_path, len(svars))
        kmap = None
        if cfg.command in ("lct", "report") and cfg.k_path:
            kmap = load_k_map(cfg.k_path, len(svars))
        if cfg.command == "asymptotics":
            if not cfg.curve_path:
                raise errors.SpecValidationError(
                    "asymptotics requires --curve", "/curve"
                )
            if CURVE_VAR in spec.unknowns:
                key = "parameters" if spec.kind == "parametrization" else "variables"
                raise errors.SpecValidationError(
                    f"unknown {CURVE_VAR!r} is the data curve's variable; rename it",
                    f"/{key}/{spec.unknowns.index(CURVE_VAR)}",
                )
            curve = load_curve(cfg.curve_path, len(svars))
        chis = degree = None
        if spec.kind == "arrangement":
            rays, chis, degree = matroid_invariants(spec.arrangement)
            warn_connectedness_assumed()
        else:
            ideal = spec.to_ideal()
            rays = find_rigid_rays(ideal, bound=cfg.bound)
        report["exhaustive_within_bound"] = cfg.bound

        if cfg.command in ("rigid-rays", "report"):
            report["rays"] = [_ray_json(r) for r in rays]

        if cfg.command in ("slopes", "report"):
            report["slopes"] = [
                _slope_json(h, svars) for h in critical_slopes(rays)
            ]

        if cfg.command in ("euler", "report"):
            if chis is None:
                chis = [stratum_euler_char(ideal, r) for r in rays]
            report["rays"] = [_ray_json(r, chi) for r, chi in zip(rays, chis)]
            report["weighted_ray_sum"] = list(ray_sum(spec.p, rays, chis))

        if cfg.command in ("mle", "report"):
            if degree is None:
                degree = ml_degree(spec)
            report["ml_degree"] = degree
            if degree == 1 and rays:
                formula = mle_closed_form(spec, rays)
                report["mle"] = {
                    "constants": [_frac_str(c) for c in formula.constants],
                    "coordinates": [
                        formula.coordinate_str(i) for i in range(len(formula.constants))
                    ],
                    "factors": formula.to_json(),
                }

        if cfg.command == "asymptotics":
            found, branch_notes = branches(
                spec, curve, rays, cfg.order, cfg.precision
            )
            notes.extend(branch_notes)
            report["curve"] = {"components": [str(c) for c in curve.components]}
            report["branches"] = [_branch_json(b, cfg.precision) for b in found]

        if cfg.command in ("bs-slopes", "report"):
            bs = bs_slope_intersection(rays, fixture=fixture)
            entry = {
                "intersection_with_critical_slopes": [
                    _slope_json(h, svars) for h in bs.intersection_with_sf
                ]
            }
            if fixture is not None:
                entry["fixture_slopes"] = [
                    _slope_json(h, svars) for h in bs.fixture_slopes
                ]
                entry["fixture_only"] = [_slope_json(h, svars) for h in bs.bs_only]
                entry["critical_only"] = [_slope_json(h, svars) for h in bs.sf_only]
                entry["consistent_with_fixture"] = bs.consistent_with_fixture
            report["bs"] = entry

        if cfg.command in ("lct", "report"):
            arrangement = (
                spec.arrangement if spec.kind == "arrangement" else None
            )
            nonneg = [r for r in rays if all(x >= 0 for x in r.v)]
            if arrangement is None and not kmap:
                if cfg.command == "lct":
                    raise errors.MissingDiscrepancy(
                        "lct needs an arrangement spec or --k with discrepancies"
                    )
                notes.append("lct skipped: no discrepancy data for this spec kind")
            elif nonneg:
                report["lct"] = conjecture_check(
                    nonneg, k=kmap, arrangement=arrangement
                )

    seen = set()
    for w in caught:
        code = getattr(w.message, "code", "warning")
        msg = str(w.message)
        if (code, msg) not in seen:
            seen.add((code, msg))
            report["warnings"].append({"code": code, "message": msg})
    for msg in notes:
        report["warnings"].append({"code": "note", "message": msg})
    report["seed"] = cfg.seed
    return report, EXIT_OK


def _summarize(report, stream):
    print(f"tropcrit {report['version']} :: {report['command']}", file=stream)
    if "rays" in report:
        for r in report["rays"]:
            chi = f"  chi={r['euler_char']}" if "euler_char" in r else ""
            print(f"  ray {tuple(r['v'])}  rigid={r['rigid']}{chi}", file=stream)
    if "slopes" in report:
        forms = ", ".join(s["form"] for s in report["slopes"])
        print(f"  slopes: {forms}", file=stream)
    if "weighted_ray_sum" in report:
        print(f"  weighted ray sum: {tuple(report['weighted_ray_sum'])}", file=stream)
    if "ml_degree" in report:
        print(f"  ML degree: {report['ml_degree']}", file=stream)
    if "mle" in report:
        for i, c in enumerate(report["mle"]["coordinates"]):
            print(f"  psi_{i + 1} = {c}", file=stream)
    if "branches" in report:
        for b in report["branches"]:
            print(
                f"  branch valuations {tuple(b['valuation_vector'])} "
                f"exact={b['exact']}",
                file=stream,
            )
    if "bs" in report:
        forms = ", ".join(
            s["form"] for s in report["bs"]["intersection_with_critical_slopes"]
        )
        print(f"  BS-slope intersection: {forms}", file=stream)
        if "fixture_only" in report["bs"]:
            fo = ", ".join(s["form"] for s in report["bs"]["fixture_only"])
            so = ", ".join(s["form"] for s in report["bs"]["critical_only"])
            print(f"  fixture-only: {fo or '-'} | critical-only: {so or '-'}", file=stream)
    if "lct" in report:
        for item in report["lct"]:
            print(
                f"  lct ray {tuple(item['ray'])} k={item['k']} "
                f"facet={item['facet_defining']}",
                file=stream,
            )
    for w in report["warnings"]:
        print(f"  [{w['code']}] {w['message']}", file=stream)


COMMANDS = {
    "rigid-rays": "rigid rays: complete for arrangements, else within the bound",
    "slopes": "critical slope hyperplanes of the rigid rays",
    "euler": "stratum Euler characteristics and the weighted ray sum",
    "mle": "ML degree and, when it is one, the closed-form estimator",
    "asymptotics": "series branches along a data curve",
    "bs-slopes": "intersection with the Bernstein-Sato slope locus",
    "lct": "LCT-polytope facet predicate per nonnegative ray",
    "report": "full pipeline",
}

# the options every command shares: --name -> (JobConfig field, type);
# their defaults are JobConfig's
OPTIONS = {
    "--spec": ("spec_source", str),
    "--bound": ("bound", int),
    "--order": ("order", int),
    "--seed": ("seed", int),
    "--budget": ("budget", int),
    "--precision": ("precision", int),
    "--out": ("out", str),
    "--curve": ("curve_path", str),
    "--bs-fixture": ("bs_fixture_path", str),
    "--k": ("k_path", str),
}


def usage() -> str:
    """The help text, built from ``COMMANDS`` and ``OPTIONS``."""
    lines = [
        "usage: tropcrit <command> --spec FILE [--name VALUE | --name=VALUE ...]",
        "       tropcrit --schema | -h | --help",
        "",
        "rigid tropical rays, critical slopes, closed-form MLE, series asymptotics",
        "and LCT facet tests for very affine varieties",
        "",
        "commands:",
        *(f"  {name:<12} {doc}" for name, doc in COMMANDS.items()),
        "",
        "options (--spec is a file path or inline JSON, and required):",
        *(
            f"  {name} {'N' if kind is int else 'FILE'}"
            for name, (_, kind) in OPTIONS.items()
        ),
    ]
    return "\n".join(lines)


def read_argv(argv):
    """The command of a command line and the ``JobConfig`` fields of its
    options, read in one pass; ("help", {}) for -h or --help and
    ("schema", {}) for --schema, and a None command when argv names none.
    Each option takes a value, as ``--name value`` or ``--name=value``
    (a next argument that starts with -- is not a value); a usage error
    raises ``SpecValidationError`` at /options/<name>."""
    command = None
    values = {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return "help", {}
        if arg == "--schema":
            return "schema", {}
        if not arg.startswith("-"):
            if arg not in COMMANDS:
                raise errors.SpecValidationError(
                    f"unknown command {arg!r}", "/options/command"
                )
            if command is not None:
                raise errors.SpecValidationError(
                    f"command {arg!r} given after {command!r}", "/options/command"
                )
            command = arg
            continue
        name, eq, value = arg.partition("=")
        pointer = f"/options/{name.lstrip('-')}"
        if name not in OPTIONS:
            raise errors.SpecValidationError(f"unknown option {name}", pointer)
        if not eq:
            value = next(args, None)
            if value is None or value.startswith("--"):
                raise errors.SpecValidationError(f"{name} needs a value", pointer)
        field, kind = OPTIONS[name]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise errors.SpecValidationError(
                    f"{name} must be an integer, got {value!r}", pointer
                )
        values[field] = value
    if command is not None and "spec_source" not in values:
        raise errors.SpecValidationError("--spec is required", "/options/spec")
    return command, values


def main(argv=None) -> int:
    try:
        command, values = read_argv(sys.argv[1:] if argv is None else argv)
        if command == "help":
            print(usage())
            return EXIT_OK
        if command == "schema":
            json.dump(
                {
                    "spec": SPEC_SCHEMA,
                    "curve": CURVE_SCHEMA,
                    "bs_fixture": BS_FIXTURE_SCHEMA,
                    "k": K_SCHEMA,
                },
                sys.stdout,
                indent=2,
                sort_keys=True,
            )
            print()
            return EXIT_OK
        if command is None:
            print(usage())
            return EXIT_VALIDATION
        cfg = JobConfig(command=command, **values)
        report, code = run_report(cfg)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    _summarize(report, sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
