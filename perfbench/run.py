"""ratho benchmark: seeded workloads, end-to-end metrics, traced layer run.

    python3 perfbench/run.py --workload big_complexes --seed 1 --seconds 35
    python3 perfbench/run.py --workload certificates --trace 1
    python3 perfbench/run.py --workload all

Run from a checkout of the repository: ratho is imported from ./src.  One
process and one thread drive ratho as a closed loop with a single caller;
each job starts when the previous one has returned.  A run makes one
warm-up pass over the workload's job list, then repeats whole passes until
--seconds would be exceeded (at least MIN_PASSES).  Every job's value goes
through the workload's oracle outside the timed span; a wrong value or an
exception counts as failed, and any failure makes the exit code 1.

Host speed.  The host's speed changes several times a second, so every
job is also measured in ref units against a reference sampled while it
runs (perfbench/hostclock.py).  The gated timing metrics are in ref
units; the same figures in seconds are printed beside them and kept in the
samples file.  setup_s stays in seconds.

End-to-end metrics: setup_s is the median of SETUP_SAMPLES fresh
interpreters each importing ratho and building the workload's inputs,
taken at intervals over the run; wall_ref is one pass, the sum over jobs
of each job's median across passes; job_ref_p50 and job_ref_p90 pool the
jobs of all timed passes; peak_rss_mb is the process's peak resident set.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1, passes alternate untraced and traced and the metrics are
the per-layer ones from perfbench/tracer.py, per traced pass.  Samples and
spans are written to .perfbench/ at the root of the checkout.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("big_complexes", "certificates", "cli_sweep")
MIN_PASSES = 3
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170


def _require_ratho():
    if not (SRC / "ratho" / "__init__.py").is_file():
        sys.exit("error: %s/ratho not found; run from a ratho checkout" % SRC)
    sys.path.insert(0, str(SRC))


def _setup_probe(workload, seed):
    """Import ratho and build the workload's inputs in this fresh process."""
    start = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload](seed)
    print(repr(time.perf_counter() - start))


def _setup_probe_s(workload, seed):
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S)
    return float(done.stdout.split()[-1])


class Pass:
    """Timing of each job in one pass, and the values the jobs returned."""

    def __init__(self):
        self.spans = []
        self.seconds = []
        self.refs = []
        self.values = []

    def run(self, jobs, host):
        clock = time.perf_counter
        for job in jobs:
            spent = host.spent_s
            start = clock()
            try:
                value = job.call()
            except Exception as exc:  # a failed job is a result, not a crash
                value = exc
            end = clock()
            self.values.append(value)
            self.spans.append((start, end))
            self.seconds.append(end - start - (host.spent_s - spent))
        return self

    def rate(self, host):
        self.refs = [host.refs(start, end, seconds) for (start, end), seconds
                     in zip(self.spans, self.seconds)]


def _failures(jobs, values):
    failed = []
    for job, value in zip(jobs, values):
        if isinstance(value, Exception):
            failed.append("%s: raised %r" % (job.name, value))
            continue
        try:
            ok = job.check(value)
        except Exception as exc:
            ok = False
            value = exc
        if not ok:
            failed.append("%s: wrong value %r" % (job.name, value))
    return failed


class Run:
    """Passes over one workload's jobs and what they measured."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.passes = []
        self.traced = []
        self.setup_s = []
        self.host = HostClock()
        self.attempted = 0
        self.failed = []

    def one_pass(self, tracer=None):
        if tracer is not None:
            tracer.install()
        try:
            done = Pass().run(self.jobs, self.host)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += len(self.jobs)
        self.failed += _failures(self.jobs, done.values)
        done.values = None
        return done

    def measure(self, seconds, probe, tracer=None):
        """Warm-up pass, then whole passes until the budget is used.

        Between passes, probe() takes set-up times spread evenly over the
        run, SETUP_SAMPLES in all, so they sample the host like the passes.
        """
        self.setup_s.append(probe())
        with self.host:
            self._passes(seconds, probe, tracer)
        for p in self.passes + self.traced:
            p.rate(self.host)

    def _passes(self, seconds, probe, tracer):
        self.one_pass()
        start = time.perf_counter()
        while True:
            self.passes.append(self.one_pass())
            if tracer is not None:
                self.traced.append(self.one_pass(tracer))
            done = len(self.passes)
            elapsed = time.perf_counter() - start
            finished = (done >= MIN_PASSES
                        and elapsed * (done + 1) / done > seconds)
            due = (SETUP_SAMPLES if finished else
                   1 + int(elapsed / seconds * (SETUP_SAMPLES - 1)))
            while len(self.setup_s) < min(due, SETUP_SAMPLES):
                self.setup_s.append(probe())
            if finished:
                return

    def pooled(self, attr):
        return [x for p in self.passes for x in getattr(p, attr)]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _end_to_end(run):
    refs = run.pooled("refs")
    return {
        "setup_s": _metric(statistics.median(run.setup_s), "s"),
        "wall_ref": _metric(sum(statistics.median(per_job) for per_job
                                in zip(*(p.refs for p in run.passes))),
                            "ref"),
        "job_ref_p50": _metric(statistics.median(refs), "ref"),
        "job_ref_p90": _metric(_p90(refs), "ref"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }


def _print_seconds(run):
    ms = [s * 1000.0 for s in run.pooled("seconds")]
    print("seconds, not gated: wall_s %.4f  job_ms_p50 %.4f  job_ms_p90 %.4f"
          % (statistics.median(sum(p.seconds) for p in run.passes),
             statistics.median(ms), _p90(ms)))
    ref = [s * 1e6 for s in run.host.ref_s]
    d = statistics.quantiles(ref, n=10)
    q = statistics.quantiles(ref, n=4)
    print("host noise: reference %.1f / %.1f / %.1f / %.1f / %.1f us "
          "(p10 / q1 / median / q3 / p90 of %d samples), p90/p10 %.2f"
          % (d[0], q[0], q[1], q[2], d[8], len(ref), d[8] / d[0]))


# Which layers each workload is meant to stress, by metric-name prefix.
_GROUPS = (("linalg", ("linalg.",)),
           ("polynomial", ("core_algebra.Polynomial.",)),
           ("cli.main", ("cli.main",)),
           ("other layers", ("",)))


def _shares(tracer, traced_s):
    """Share of traced pass time that is each group's self time."""
    out = {}
    taken = set()
    for group, prefixes in _GROUPS:
        total = 0.0
        for name, s in tracer.stats.items():
            if name not in taken and name.startswith(prefixes):
                taken.add(name)
                total += s["self_s"]
        out[group] = total / traced_s
    return out


def _trace_metrics(run, tracer, workload, seed):
    overhead = (statistics.median(sum(p.refs) for p in run.traced)
                / statistics.median(sum(p.refs) for p in run.passes) - 1.0)
    metrics = tracer.metrics(len(run.traced))
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    shares = _shares(tracer, sum(sum(p.seconds) for p in run.traced))
    for group, share in shares.items():
        print("self-time share %-12s %.3f" % (group, share))
    path = OUT / ("trace-%s-seed%d.jsonl" % (workload, seed))
    tracer.write(path, {"workload": workload, "seed": seed,
                        "traced_passes": len(run.traced), "shares": shares})
    print("spans written to %s" % path.relative_to(ROOT))
    return metrics


def _run_workload(args):
    import workloads
    jobs = workloads.WORKLOADS[args.workload](args.seed)
    run = Run(jobs)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    run.measure(args.seconds,
                lambda: _setup_probe_s(args.workload, args.seed), tracer)

    print("workload %s seed %d: %d jobs per pass, %d timed passes, "
          "%d job samples" % (args.workload, args.seed, len(jobs),
                              len(run.passes), len(run.pooled("refs"))))
    _print_seconds(run)
    for line in run.failed[:20]:
        print("FAILED %s" % line)
    OUT.mkdir(exist_ok=True)
    samples = OUT / ("samples-%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace))
    samples.write_text(json.dumps({
        "jobs": [job.name for job in jobs], "setup_s": run.setup_s,
        "passes": [vars(p) for p in run.passes],
        "traced_passes": [vars(p) for p in run.traced]}))
    print("samples written to %s" % samples.relative_to(ROOT))
    if args.trace:
        metrics = _trace_metrics(run, tracer, args.workload, args.seed)
    else:
        metrics = _end_to_end(run)
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    failed = len(run.failed)
    print("failed_frac %.6f (%d of %d job runs)"
          % (failed / run.attempted, failed, run.attempted))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _run_all(args):
    """Each workload in its own process; one table of every metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            sys.stderr.write(done.stderr)
            sys.exit("error: workload %s exited %d"
                     % (workload, done.returncode))
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        code = max(code, done.returncode)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = m
    print(json.dumps(merged))
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_ratho()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
