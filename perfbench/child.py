"""Timed child process: run one workload's jobs in a closed loop.

Usage (started by run.py, with src/ on PYTHONPATH):

    python perfbench/child.py --workload W --seed N --seconds T --trace 0|1 [--setup-only]

The child imports the library, builds the seeded job list, and prints
``READY <job hash>``; the parent times set-up from process start to that
line.  With ``--setup-only`` it stops there.  Otherwise it runs whole
cycles of jobs, one at a time, until ``--seconds`` have passed and at least
``workloads.MIN_CYCLES`` cycles are done, and prints
one JSON line per job as it completes (outside the timed region).  Just
before and just after each job it times the fixed reference kernel, which
tracks the speed of the shared machine.

With ``--trace 1`` it runs a fixed number of cycles instead, each job once
untraced and once traced, and ends with a line holding the span aggregate.
Oracles never run here: sympy is not imported in the timed process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import threading
from time import perf_counter

import metrics
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_MARKER = "PERFBENCH-TRACE "


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def run_process(cmd: list[str]):
    """Run one command; return (wall s, exit code, stdout, stderr, rusage)."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return wall, proc.returncode, out.decode("utf-8"), err[0].decode("utf-8"), usage


def peak_rss_kib() -> int:
    """This process's own peak resident set (VmHWM), in KiB.

    Unlike ru_maxrss, VmHWM does not include the parent's peak inherited
    at exec.  Falls back to ru_maxrss where /proc is not available.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "finiverse", *argv]


def traced_cli_command(argv: list[str]) -> list[str]:
    entry = os.path.join(ROOT, "perfbench", "cli_entry.py")
    return [sys.executable, "-X", "importtime", entry, *argv]


def run_in_process(job: dict):
    """Time one library job; return (latency s, summary or None, error or None)."""
    t0 = perf_counter()
    try:
        raw = workloads.run_job(job)
    except Exception as exc:  # a job that raises is counted as failed, not fatal
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0
    return latency, workloads.summarize(job, raw), None


def run_cli(job: dict) -> dict:
    wall, code, out, _, usage = run_process(cli_command(job["argv"]))
    return {"lat": wall, "out": {"exit": code, "stdout": out}, "rss_kib": usage.ru_maxrss}


def untraced_loop(workload: str, cycles: list, seconds: float) -> None:
    start = perf_counter()
    done = 0
    while True:
        cycle = cycles[done % len(cycles)]
        for i, job in enumerate(cycle):
            if workload == "cli_cold":
                before = metrics.reference_kernel()
                doc = run_cli(job)
            else:
                gc.collect()  # every job starts from the same collector state
                before = metrics.reference_kernel()
                lat, out, error = run_in_process(job)
                doc = {"lat": lat, "out": out} if error is None else {"lat": lat, "error": error}
            doc.update(c=done, i=i, ref=[before, metrics.reference_kernel()])
            emit(doc)
        done += 1
        if perf_counter() - start >= seconds and done >= workloads.MIN_CYCLES[workload]:
            break
    emit({"done": True, "cycles": done, "wall_s": perf_counter() - start,
          "peak_rss_kib": peak_rss_kib()})


def traced_loop(workload: str, cycles: list) -> None:
    import spans

    start = perf_counter()
    total: dict = {}
    tracer = spans.Tracer()
    for c in range(workloads.TRACE_CYCLES[workload]):
        for i, job in enumerate(cycles[c % len(cycles)]):
            doc = {"c": c, "i": i}
            if workload == "cli_cold":
                plain = run_cli(job)
                wall, code, out, err, _ = run_process(traced_cli_command(job["argv"]))
                marker = [ln for ln in err.splitlines() if ln.startswith(TRACE_MARKER)]
                agg = json.loads(marker[-1][len(TRACE_MARKER):]) if marker else {}
                doc.update(lat=plain["lat"], out=plain["out"], lat_traced=wall,
                           out_traced={"exit": code, "stdout": out},
                           imports=spans.parse_importtime(err), spans=agg)
                spans.merge(total, {k: v for k, v in agg.items() if k != "cli.import_s"})
            else:
                lat, out, error = run_in_process(job)
                tracer.job = c * len(cycles[0]) + i
                tracer.install()
                try:
                    lat_t, out_t, error_t = run_in_process(job)
                finally:
                    tracer.uninstall()
                doc.update(lat=lat, out=out, lat_traced=lat_t, out_traced=out_t)
                if error or error_t:
                    doc["error"] = error or error_t
            emit(doc)
    if workload != "cli_cold":
        total = spans.aggregate(tracer)
    emit({"done": True, "cycles": workloads.TRACE_CYCLES[workload],
          "wall_s": perf_counter() - start, "trace": total})


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = perf_counter()
    if args.workload != "cli_cold":
        import finiverse  # noqa: F401
    elif args.setup_only:
        import finiverse.cli  # noqa: F401  (the cold-start import a CLI user pays)
    # A cli_cold run itself imports nothing from the library: a process
    # inherits its parent's peak RSS as a floor for its own ru_maxrss, so
    # the spawner of the CLI processes stays small.
    import_s = perf_counter() - t0
    cycles = workloads.job_list(args.workload, args.seed)
    gc.freeze()  # set-up objects (modules, the job list) leave the collector's view
    print("READY", workloads.job_hash(cycles), f"{import_s:.6f}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        traced_loop(args.workload, cycles)
    else:
        untraced_loop(args.workload, cycles, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
