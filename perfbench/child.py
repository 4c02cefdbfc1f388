"""Run one tropcrit CLI job in this fresh interpreter and record timings.

Usage: python3 perfbench/child.py JOB.json RESULT.json

JOB.json holds {"argv": [...], "trace": bool, "spans": path, "job_id": int};
with "trace" set, tracer.Tracer wraps the program's layers and writes the
spans to "spans".
RESULT.json receives the monotonic time at which ``import tropcrit.cli``
finished (the parent subtracts its spawn time to get set-up time), the
seconds spent inside ``main()`` net of the calibration bursts taken during
it, the seconds of every calibration burst, the exit code and the peak RSS.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


CALIBRATION_STEPS = 500
CALIBRATION_INTERVAL_S = 0.1


class Calibration:
    """Times a fixed burst of Fraction arithmetic into a tuple-keyed dict,
    the operations tropcrit's kernels spend their time on, before the job,
    every CALIBRATION_INTERVAL_S during it (from SIGALRM) and after it."""

    def __init__(self):
        self.bursts = []

    def burst(self, *_):
        from fractions import Fraction

        start = time.perf_counter()
        terms = {}
        for k in range(1, CALIBRATION_STEPS + 1):
            terms[(k % 97, k % 13, k)] = Fraction(k, 7) * Fraction(3, k + 1) + Fraction(1, 3)
        self.bursts.append(time.perf_counter() - start)

    def during(self, fn):
        """Run fn() with periodic bursts; returns (result, bursts' seconds)."""
        import signal

        done = len(self.bursts)
        previous = signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        try:
            return fn(), self.bursts[done:]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run(job_path, result_path):
    sys.path.insert(0, ROOT + "/src")
    import tropcrit.cli

    imported = time.monotonic()
    import json
    import resource

    with open(job_path) as fh:
        job = json.load(fh)
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, ROOT)
        from perfbench.tracer import Tracer

        tracer = Tracer(job.get("job_id", 0))
        tracer.install()
    error = None
    calibration = Calibration()
    for _ in range(3):
        calibration.burst()
    start = time.monotonic()
    try:
        code, inside = calibration.during(lambda: tropcrit.cli.main(job["argv"]))
    except Exception as exc:  # noqa: BLE001 - recorded and reported by the parent
        code, error, inside = 1, f"{type(exc).__name__}: {exc}", []
    main_s = time.monotonic() - start - sum(inside)
    for _ in range(3):
        calibration.burst()
    result = {
        "imported": imported,
        "main_s": main_s,
        "calibration_s": calibration.bursts,
        "exit_code": code,
        "error": error,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.dump(job["spans"])
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    run(sys.argv[1], sys.argv[2])
