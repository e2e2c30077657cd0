"""Wall-clock end-to-end benchmark of the Emu reproduction's user paths.

    python3 perfbench/run.py --workload kernel-closed --seed 1 \\
        --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Workloads (README.md gives the rationale and the per-layer
predictions):

* ``kernel-closed`` — memcached on the fpga backend at ``-O2``, closed
  loop through ``Deployment.run`` (memaslap binary mix, 80-byte frames);
* ``openloop-bulk`` — memcached on the behavioural fpga backend, Poisson
  arrivals through ``Deployment.run_open_loop`` (50% SETs, 512-byte
  ASCII values, 4096 keys);
* ``serve-udp`` — memcached on the cpu backend served on UDP loopback by
  ``python -m repro.deploy --serve``, driven closed loop by
  ``repro.serve.loadgen``.

A run is split into slices, each a fresh process that sets the
workload up (timed as ``setup_s``), measures its share of
``--seconds`` and checks every reply.  ``--trace 0`` runs three
untraced slices and reports the end-to-end metrics of
``BENCHMARK.json``.  ``--trace 1`` runs one slice that alternates
untraced and traced calls on the same inputs, and reports the
per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when any check fails.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("kernel-closed", "openloop-bulk", "serve-udp")
UNTRACED_SLICES = 3
#: Wall-clock budget of one run, all slices included.
RUN_BUDGET_S = 170.0

#: The names the human-readable report gives the end-to-end metrics on
#: each workload (the JSON keeps one workload-neutral name each).
HUMAN_NAMES = {
    "kernel-closed": {"rps": "sim_rps", "p50_us": "send_p50_us",
                      "p99_us": "send_p99_us"},
    "openloop-bulk": {"rps": "sim_rps", "p50_us": "profile_p50_us",
                      "p99_us": "profile_p99_us"},
    "serve-udp": {"rps": "serve_rps", "p50_us": "serve_p50_us",
                  "p99_us": "serve_p99_us"},
}

MODELED_UNITS = {"kernel.avg_cycles": "cycles", "p50_us": "us",
                 "p99_us": "us", "max_qps": "req/s",
                 "offered_qps": "req/s"}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed check)."""


def load_declared():
    """``(end_to_end, per_layer)`` as ``{name: unit}`` from
    BENCHMARK.json."""
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError("cannot read BENCHMARK.json: %s" % error)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_slice(workload, seed, seconds, traced, inject, deadline):
    """One fresh worker process; returns its JSON result."""
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds),
            "--launch-ns", str(time.monotonic_ns())]
    if traced:
        argv.append("--traced")
    if inject:
        argv += ["--inject", inject]
    # A session of its own, so a timed-out slice is killed together
    # with the server process it may have started.
    proc = subprocess.Popen(argv, cwd=str(ROOT), stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as error:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchError("%s slice overran the run budget" % workload)
        raise
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s slice exited with %d"
                         % (workload, proc.returncode))
    return json.loads(lines[-1])


def throughput(calls):
    """Requests per second over timed *calls*."""
    return sum(c[0] for c in calls) * 1e9 / sum(c[1] for c in calls)


def out_dir():
    """Where runs leave their raw per-call figures and spans."""
    path = ROOT / ".perfbench_out"
    path.mkdir(exist_ok=True)
    return path


def determinism_failures(slices):
    """Open-loop calls are pure functions of the seed: the virtual-time
    report of call *i* must match in every slice that reached it."""
    failures = []
    runs = [s["reports"] for s in slices if "reports" in s]
    for index in range(min((len(r) for r in runs), default=0)):
        if any(r[index] != runs[0][index] for r in runs[1:]):
            failures.append("open-loop call %d differs between slices "
                            "of the same seed" % index)
    return failures


def run_workload(workload, seed, seconds, trace, inject, declared):
    """One run: slices, checks, and the metrics for *trace*."""
    end_to_end, per_layer = declared
    deadline = time.monotonic() + RUN_BUDGET_S
    plan = [True] if trace else [False] * UNTRACED_SLICES
    share = seconds / len(plan)
    slices = [run_slice(workload, seed, share, traced,
                        inject if index == 0 else None, deadline)
              for index, traced in enumerate(plan)]
    with open(out_dir() / "last-run.json", "w") as handle:
        json.dump(slices, handle)
    mismatches = determinism_failures(slices)
    checks = [c for s in slices for c in s["checks"]] + mismatches
    attempted = sum(s["attempted"] for s in slices)
    failed = sum(s["failed"] for s in slices) + len(mismatches)

    calls = [c for s in slices for c in s["calls"]]
    if trace:
        (traced,) = slices
        values = dict(traced["layers"])
        values["trace.overhead"] = \
            throughput(traced["traced_calls"]) / throughput(calls)
        units = per_layer
    else:
        values = {
            "rps": throughput(calls),
            "p50_us": statistics.mean(c[3] for c in calls) / 1e3,
            "p99_us": statistics.median(c[4] for c in calls) / 1e3,
            "setup_s": statistics.median(
                v for s in slices for v in s["setup_s"]),
            "peak_rss_mb": statistics.median(
                v for s in slices for v in s["peak_rss_mb"]),
        }
        units = end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError("no value for declared metric(s) %s"
                         % ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print_report(workload, seed, seconds, trace, slices, metrics,
                 attempted, failed, checks)
    return {"correct": failed == 0 and not checks,
            "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_report(workload, seed, seconds, trace, slices, metrics,
                 attempted, failed, checks):
    print("perfbench %s  seed=%d  seconds=%g  trace=%d  slices=%d "
          "(fresh process each)"
          % (workload, seed, seconds, trace, len(slices)))
    names = HUMAN_NAMES[workload]
    calls = sum(len(s["calls"]) for s in slices)
    samples = sum(c[2] for s in slices for c in s["calls"])
    print("measured (wall clock):")
    for name, metric in metrics.items():
        note = ""
        if name == "rps":
            note = "  (%d timed calls)" % calls
        elif name == "p50_us":
            note = "  (mean over %d calls; %d samples)" % (calls, samples)
        elif name == "p99_us":
            note = "  (median over %d calls)" % calls
        print("  %-26s %14.4f %-7s%s" % (names.get(name, name),
                                         metric["value"], metric["unit"],
                                         note))
    print("  %-26s %14d" % ("ops_attempted", attempted))
    print("  %-26s %14d" % ("ops_failed", failed))
    modeled = slices[0]["modeled"]
    print("modeled (virtual time, not gated):")
    if not modeled:
        print("  n/a: the cpu backend has no timing model")
    for name, value in modeled.items():
        print("  %-26s %14.4f %s" % (name, value,
                                     MODELED_UNITS.get(name, "")))
    for check in checks:
        print("CHECK FAILED: %s" % check)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Wall-clock end-to-end benchmark (see README.md).")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("corrupt", "missing"),
                        help="break one reply on purpose (tests the "
                             "checks; the run must then fail)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program to measure (src/repro is missing "
              "under %s)" % ROOT, file=sys.stderr)
        return 2
    try:
        declared = load_declared()
        workloads = WORKLOADS if args.workload == "all" \
            else (args.workload,)
        results = {}
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, args.trace,
                args.inject, declared)
            print()
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (workload, name): metric
                        for workload, r in results.items()
                        for name, metric in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
