"""Outside-in benchmark of the tropcrit CLI.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 20 --trace 0

Every job is a real CLI invocation (``tropcrit.cli.main``) in a fresh
interpreter, because module-global caches survive between in-process calls
and a CLI user never benefits from them.  Jobs of the workload run in turn
until ``--seconds`` have passed (every job at least once); each report is
checked.  The last stdout line is one JSON object:

* ``--trace 0``: ``wall_s`` (per-job median seconds inside ``main()``,
  summed over the jobs), ``setup_s`` (median interpreter start plus
  ``import tropcrit.cli`` per spawn) and ``peak_rss_mb`` (largest child
  peak RSS).  Times are scaled to a reference machine speed measured next
  to each job (see REFERENCE_CALIBRATION_S).
* ``--trace 1``: each job alternately untraced and traced; the per-layer
  metrics of ``tracer.py`` from the traced runs, and the traced-minus-
  untraced overhead on a line of its own.

The run record, with the generated inputs, every sample, check results,
report hashes and the environment, is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOB_TIMEOUT_S = 120
RUN_LIMIT_S = 150  # a job still running this long into the run is killed

# Shared hosts slow down by up to 2x for stretches of seconds.  Each child
# times calibration bursts before, during (every 0.1 s) and after main(), on
# its own core.  speed = REFERENCE_CALIBRATION_S / mean burst, and a time is
# scaled by speed ** exponent, so it reads as seconds at the speed where a
# burst takes REFERENCE_CALIBRATION_S.  The exponents are the slopes of log
# time against log burst time within runs on the reference host (x86-64,
# 2 cores, Python 3.11; 300 job samples over all four workloads, each
# workload 0.81-0.85): the program slows less than the burst does.  The raw
# seconds are kept in the run record.
REFERENCE_CALIBRATION_S = 0.003
MAIN_SPEED_EXPONENT = 0.83
SETUP_SPEED_EXPONENT = 0.58

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# (metric, layer, field, unit); distinct_frac is distinct / calls.
PER_LAYER = (
    ("groebner.buchberger.calls", "groebner.buchberger", "calls", "count"),
    ("groebner.buchberger.self_s", "groebner.buchberger", "self_s", "s"),
    ("groebner.buchberger.steps", "groebner.buchberger", "steps", "count"),
    ("groebner.interreduce.self_s", "groebner.interreduce", "self_s", "s"),
    ("groebner.initial.calls", "groebner.initial", "calls", "count"),
    ("groebner.initial.distinct_frac", "groebner.initial", "distinct_frac", "ratio"),
    ("groebner.saturate.calls", "groebner.saturate", "calls", "count"),
    ("groebner.saturate.total_s", "groebner.saturate", "total_s", "s"),
    ("groebner.eliminate.total_s", "groebner.eliminate", "total_s", "s"),
    ("groebner.squarefree_check.total_s", "groebner.squarefree_check", "total_s", "s"),
    ("groebner.solve_zero_dim_numeric.total_s", "groebner.solve_zero_dim_numeric", "total_s", "s"),
    ("asymptotics.saturated_equations.calls", "asymptotics.saturated_equations", "calls", "count"),
    ("asymptotics.saturated_equations.total_s", "asymptotics.saturated_equations", "total_s", "s"),
    ("asymptotics.branch_seeds.total_s", "asymptotics.branch_seeds", "total_s", "s"),
    ("asymptotics.series_newton_lift.total_s", "asymptotics.series_newton_lift", "total_s", "s"),
    ("asymptotics.hensel.total_s", "asymptotics.hensel", "total_s", "s"),
    ("asymptotics.refine_seed_exact.total_s", "asymptotics.refine_seed_exact", "total_s", "s"),
    ("mle.to_ideal.total_s", "mle.to_ideal", "total_s", "s"),
    ("mle.ml_degree.calls", "mle.ml_degree", "calls", "count"),
    ("mle.ml_degree.total_s", "mle.ml_degree", "total_s", "s"),
    ("mle.mle_closed_form.total_s", "mle.mle_closed_form", "total_s", "s"),
    ("tropical.find_rigid_rays.total_s", "tropical.find_rigid_rays", "total_s", "s"),
    ("tropical.contains.calls", "tropical.contains", "calls", "count"),
    ("tropical.is_rigid.calls", "tropical.is_rigid", "calls", "count"),
    ("tropical.stratum_euler_char.total_s", "tropical.stratum_euler_char", "total_s", "s"),
    ("series.poly_eval_series.calls", "series.poly_eval_series", "calls", "count"),
    ("series.poly_eval_series.self_s", "series.poly_eval_series", "self_s", "s"),
    ("linalg.rref.calls", "linalg.rref", "calls", "count"),
    ("linalg.rref.self_s", "linalg.rref", "self_s", "s"),
    ("linalg.inverse.self_s", "linalg.inverse", "self_s", "s"),
    ("bs_lct.conjecture_check.total_s", "bs_lct.conjecture_check", "total_s", "s"),
    ("bs_lct.bs_slope_intersection.total_s", "bs_lct.bs_slope_intersection", "total_s", "s"),
    ("cli.run_report.total_s", "cli.run_report", "total_s", "s"),
)


def environment():
    """Python, numpy, core count and commit, stored with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def _git_commit():
    """HEAD of the checkout read from .git directly (no git process, which
    would search parent directories); None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Spawns one child interpreter per job and keeps every sample."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.samples = []

    def run(self, index, job, traced, timeout=JOB_TIMEOUT_S):
        tag = f"{index}{'t' if traced else ''}"
        job_file = self.workdir / f"job{tag}.json"
        result_file = self.workdir / f"result{tag}.json"
        report_file = self.workdir / f"report{tag}.json"
        for stale in (result_file, report_file):
            stale.unlink(missing_ok=True)
        spec = {
            "argv": job["argv"] + ["--out", str(report_file.relative_to(ROOT))],
            "trace": traced,
            "spans": str(self.workdir / f"spans{tag}.jsonl"),
            "job_id": index,
        }
        job_file.write_text(json.dumps(spec))
        child = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(job_file), str(result_file)]
        with open(self.workdir / f"stderr{tag}.txt", "w") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(child, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
            try:
                proc.wait(timeout=max(timeout, 0.1))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        sample = {"job": index, "traced": traced, "problems": []}
        try:
            result = json.loads(result_file.read_text())
        except (OSError, ValueError):
            sample["problems"].append(f"no result (child exit {proc.returncode}, timeout {timeout:.0f} s)")
            self.samples.append(sample)
            return sample
        speed = REFERENCE_CALIBRATION_S / statistics.mean(result["calibration_s"])
        scale = speed**MAIN_SPEED_EXPONENT
        sample.update(
            speed=speed,
            scale=scale,
            raw_setup_s=result["imported"] - spawned,
            raw_main_s=result["main_s"],
            setup_s=(result["imported"] - spawned) * speed**SETUP_SPEED_EXPONENT,
            main_s=result["main_s"] * scale,
            exit_code=result["exit_code"],
            peak_rss_kb=result["peak_rss_kb"],
            trace=result.get("trace"),
        )
        from perfbench.checks import check

        if result["exit_code"] != 0:
            sample["problems"].append(f"exit code {result['exit_code']} {result['error'] or ''}".strip())
        else:
            data = report_file.read_bytes()
            sample["sha256"] = hashlib.sha256(data).hexdigest()
            sample["problems"] = check(json.loads(data), job["expect"])
        self.samples.append(sample)
        return sample


def _median_per_job(samples, jobs, key, traced=False):
    """Per-job median of ``key`` over the samples of that job."""
    out = []
    for index in range(len(jobs)):
        values = [s[key] for s in samples if s["job"] == index and s["traced"] == traced and key in s]
        out.append(statistics.median(values) if values else None)
    return out


def end_to_end(samples, jobs):
    untraced = [s for s in samples if not s["traced"] and "main_s" in s]
    walls = _median_per_job(untraced, jobs, "main_s")
    return {
        "wall_s": sum(w for w in walls if w is not None),
        "setup_s": statistics.median(s["setup_s"] for s in samples if "setup_s" in s),
        "peak_rss_mb": max(s["peak_rss_kb"] for s in untraced) / 1024,
    }


def per_layer(samples, jobs):
    """Layer metrics summed over jobs, each job's value the median over its
    traced samples, seconds scaled like ``main_s``; a layer any child
    reported missing stays missing."""
    traced = [s for s in samples if s["traced"] and s.get("trace")]
    missing = set()
    for s in traced:
        missing.update(s["trace"]["missing"])
    totals = {}
    for index in range(len(jobs)):
        mine = [s for s in traced if s["job"] == index]
        if not mine:
            continue
        for layer, fields in mine[0]["trace"]["layers"].items():
            acc = totals.setdefault(layer, {})
            for field in fields:
                values = [
                    s["trace"]["layers"][layer][field] * (s["scale"] if field.endswith("_s") else 1)
                    for s in mine
                ]
                acc[field] = acc.get(field, 0) + statistics.median(values)
    metrics = {}
    for name, layer, field, unit in PER_LAYER:
        if layer in missing or layer not in totals:
            metrics[name] = {"value": None, "unit": unit, "missing": True}
            continue
        acc = totals[layer]
        if field == "distinct_frac":
            value = acc["distinct"] / acc["calls"] if acc["calls"] else 0.0
        else:
            value = acc[field]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run_probes(runner, workdir, offset, deadline):
    """Known-defect probes: run once, untimed, reported by name only."""
    from perfbench.workloads import probe_jobs

    jobs, files = probe_jobs(str((workdir / "inputs").relative_to(ROOT)))
    _write_inputs(files)
    results = []
    for i, job in enumerate(jobs):
        sample = runner.run(offset + i, job, False, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
        runner.samples.remove(sample)
        results.append({"name": job["name"], "defect": job["defect"], "problems": sample["problems"]})
    return files, results


def _write_inputs(files):
    for path, obj in files.items():
        target = ROOT / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tropcrit" / "cli.py").is_file():
        print(f"error: no tropcrit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs_dir = str((workdir / "inputs").relative_to(ROOT))
    jobs, files = WORKLOADS[args.workload](args.seed, inputs_dir)
    _write_inputs(files)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    runner = Runner(workdir)
    variants = (False, True) if args.trace else (False,)
    started = time.monotonic()
    count = 0
    while count < len(jobs) * len(variants) or time.monotonic() - started < args.seconds:
        index = (count // len(variants)) % len(jobs)
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        runner.run(index, jobs[index], variants[count % len(variants)], min(JOB_TIMEOUT_S, remaining))
        count += 1
    elapsed = time.monotonic() - started

    samples = runner.samples
    if not any("main_s" in s and not s["traced"] for s in samples):
        print("error: no job produced a result; see the stderr files in " + str(workdir), file=sys.stderr)
        return 1
    failed = sum(1 for s in samples if s["problems"])
    for index, job in enumerate(jobs):
        mine = [s for s in samples if s["job"] == index]
        bad = [p for s in mine for p in s["problems"]]
        hashes = sorted({s["sha256"] for s in mine if "sha256" in s})
        times = [s["main_s"] for s in mine if "main_s" in s and not s["traced"]]
        status = "ok" if not bad else "FAIL " + "; ".join(sorted(set(bad)))
        digest = hashes[0] if len(hashes) == 1 else f"{len(hashes)} distinct"
        median = statistics.median(times) if times else float("nan")
        print(f"job {job['name']}: {status} samples={len(mine)} main_s={median:.4f} sha256={digest}")

    probe_files, probes = {}, []
    if args.workload == "escapes":
        probe_files, probes = run_probes(runner, workdir, len(jobs), started + RUN_LIMIT_S)
        for p in probes:
            state = "defect reproduced: " + "; ".join(p["problems"]) if p["problems"] else "passes (defect fixed?)"
            print(f"probe {p['name']}: {state} [{p['defect']}]")

    e2e = end_to_end(samples, jobs)
    untraced = sum(1 for s in samples if not s["traced"])
    counts = {"wall_s": f"median of {untraced // len(jobs)}+ samples per job, {len(jobs)} jobs",
              "setup_s": f"median of {sum(1 for s in samples if 'setup_s' in s)} spawns",
              "peak_rss_mb": f"max over {untraced} jobs"}
    for name, unit in END_TO_END:
        print(f"metric {name} = {e2e[name]:.4f} {unit} ({counts[name]})")
    print(f"metric failed_frac = {failed / len(samples):.4f} ({failed}/{len(samples)} jobs)")
    raw = sum(w for w in _median_per_job(samples, jobs, "raw_main_s") if w is not None)
    speeds = [s["speed"] for s in samples if "speed" in s]
    print(f"unscaled wall_s = {raw:.4f} s; machine speed factor median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f}")
    print(f"measured {elapsed:.1f} s")

    if args.trace:
        layers = per_layer(samples, jobs)
        traced_wall = sum(w for w in _median_per_job(samples, jobs, "main_s", traced=True) if w)
        overhead = traced_wall - e2e["wall_s"]
        print(f"trace overhead = {overhead:+.4f} s ({overhead / e2e['wall_s']:+.1%} of untraced wall_s)")
        for name, m in layers.items():
            value = "MISSING" if m.get("missing") else f"{m['value']:.6g}"
            print(f"layer {name} = {value} {m['unit']}")
        metrics = layers
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "inputs": {**files, **probe_files},
        "jobs": jobs,
        "samples": samples,
        "probes": probes,
        "metrics": metrics,
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
