"""The finiverse benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1              # all four workloads, one table

Each run starts a fresh single-threaded child process (perfbench/child.py)
that imports the library from src/, builds the seeded job list and runs it
in a closed loop.  Set-up is timed in several more fresh children.  After
the child has exited, this process checks every job's output against an
independent oracle (perfbench/oracles.py, which imports sympy) and prints
a report line and, last, one JSON result line: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
from importlib import metadata
from time import perf_counter

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 8  # timed set-up-only children per run
INTERPRETER_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Child:
    """One child.py process: started, read line by line, then reaped."""

    def __init__(self, workload, seed, seconds, trace=False, setup_only=False):
        cmd = [sys.executable]
        if trace:
            cmd += ["-X", "importtime"]
        cmd += [os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        self._stderr: list[str] = []
        self.start = perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE if trace else None,
                                     env=child_env(), cwd=ROOT, text=True)
        self._reader = None
        if trace:
            self._reader = threading.Thread(
                target=lambda: self._stderr.append(self.proc.stderr.read()))
            self._reader.start()

    def ready(self) -> tuple[float, str, float]:
        """Wait for READY; return (set-up seconds, job hash, import seconds)."""
        line = self.proc.stdout.readline()
        setup = perf_counter() - self.start
        parts = line.split()
        if len(parts) != 3 or parts[0] != "READY":
            raise BenchError(f"child did not become ready: {line!r}")
        return setup, parts[1], float(parts[2])

    def lines(self):
        for line in self.proc.stdout:
            yield json.loads(line)

    def reap(self) -> str:
        """Wait for the child; return its stderr text."""
        if self._reader is not None:
            self._reader.join()
        self.proc.wait()
        self.proc.stdout.close()
        if self.proc.stderr is not None:
            self.proc.stderr.close()
        if self.proc.returncode != 0:
            raise BenchError(f"child exited with code {self.proc.returncode}")
        return "".join(self._stderr)

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def setup_samples(workload, seed, expected_hash) -> list[float]:
    """Set-up times of fresh set-up-only children, at reference speed.

    Each sample is scaled like a job, by the reference kernel timed just
    before and just after it.  One untimed warm-up child runs first.
    """
    samples = []
    for n in range(SETUP_SAMPLES + 1):
        before = metrics.reference_kernel()
        child = Child(workload, seed, 0, setup_only=True)
        try:
            setup, digest, _ = child.ready()
            for _ in child.lines():
                pass
            child.reap()
        finally:
            child.kill()
        kernel = (before + metrics.reference_kernel()) / 2
        if digest != expected_hash:
            raise BenchError("set-up child built a different job list")
        if n:
            samples.append(setup * metrics.REFERENCE_S / kernel)
    return samples


def interpreter_start_ms() -> float:
    walls = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=child_env(), cwd=ROOT)
        walls.append(perf_counter() - t0)
    return 1e3 * metrics.median(walls)


def environment() -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    nproc = len(os.sched_getaffinity(0))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
        "nproc": nproc,
        "cpu_model": cpu,
        "note": (f"closed loop, one client, one job at a time; each workload in its own "
                 f"single-threaded child process; {nproc}-core machine, possibly shared"),
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _job_of(cycles, doc):
    return cycles[doc["c"] % len(cycles)][doc["i"]]


def check_jobs(cycles, docs, traced) -> list[str]:
    """Oracle (and, traced, untraced-vs-traced) failures, one reason per job."""
    import oracles  # imports sympy; never loaded before the timed child is done

    failures = []
    for doc in docs:
        job = _job_of(cycles, doc)
        where = f"cycle {doc['c']} job {doc['i']} ({job['kind']})"
        if "error" in doc:
            failures.append(f"{where}: raised {doc['error']}")
            continue
        reason = oracles.check(job, doc["out"])
        if reason is None and traced and doc["out_traced"] != doc["out"]:
            reason = "traced output differs from untraced output"
        if reason is not None:
            failures.append(f"{where}: {reason}")
    return failures


def rk4_steps(argv) -> int:
    """RK4 steps of `cosmo evolve` (main run plus half-step rerun), replaying
    the integrator's own time loop."""
    t_end = float(argv[argv.index("--t-end") + 1])
    step = float(argv[argv.index("--step") + 1])
    steps = 0
    for h0 in (step, step / 2):
        t = 0.0
        while t < t_end:
            t += min(h0, t_end - t)
            steps += 1
    return steps


def end_to_end(docs, setup, rss_kib) -> tuple[dict, dict]:
    """Metrics at reference speed, and a report of the raw job timings.

    Each job's latency is scaled by REFERENCE_S over the local speed of the
    machine: the median kernel time over the job and its neighbours
    (set-up samples are scaled by the kernel timed around each of them).
    This takes out most of the shared machine's drift in speed.
    """
    lat = [d["lat"] for d in docs]
    kernel = metrics.local_kernel([d["ref"] for d in docs])
    scaled = [t * metrics.REFERENCE_S / k for t, k in zip(lat, kernel)]
    tail_value, percentile, beyond = metrics.tail(scaled)
    values = {
        "setup_s": metrics.median(setup),
        "jobs_per_s": len(scaled) / sum(scaled),
        "job_p50_ms": 1e3 * metrics.median(scaled),
        "job_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": rss_kib / 1024,
    }
    info = {
        "tail": {"percentile": percentile, "samples_beyond": beyond, "samples": len(lat)},
        "reference_kernel_median_s": metrics.median(kernel),
        "raw": {"jobs_per_s": len(lat) / sum(lat), "job_p50_ms": 1e3 * metrics.median(lat),
                "job_tail_ms": 1e3 * metrics.tail(lat)[0]},
        "setup_samples_s": setup,
    }
    return values, info


def per_layer(workload, cycles, docs, done, child_import_s, child_stderr) -> dict:
    import oracles
    import spans

    agg = done["trace"]
    v = {name: agg.get(name, 0) for name in (
        "fields.construct.calls", "fields.construct.s", "fields.mul.calls", "fields.mul.s",
        "fields.add.calls", "fields.add.s", "fields.inv.calls", "fields.inv.s",
        "fields.pow.calls", "fields.pow.s", "fields.operation_tables.s",
        "fields.axiom_battery.self_s", "geometry.points.built", "geometry.points.s",
        "geometry.enumerate_lines.s", "geometry.lines.built",
        "geometry.incidence_structure.self_s", "geometry.check_hesse_property.s",
        "geometry.self_s", "geometry.find_degenerate_pair.s", "geometry.find_ordinary_line.s",
        "hilbert.enumerate_vectors.s", "hilbert.vectors.built", "hilbert.inner_product.calls",
        "hilbert.inner_product.s", "hilbert.conjugate.calls", "regularization.calls",
        "regularization.s", "cosmology.evolve_scale_factor.s")}

    lookups = scanned = built = pairs = steps = 0
    for d in docs:
        if "error" in d:
            continue
        job = _job_of(cycles, d)
        kind, out = job["kind"], d["out"]
        if kind == "field_axioms":
            lookups += 4 * (job["p"] ** job["k"]) ** 3
        elif kind == "ring_axioms":
            lookups += 4 * job["n"] ** 3
        elif kind == "degenerate":
            scanned += oracles.degenerate_scanned(job, out)
            built += out["points"]
        elif kind == "ordinary" and out["pair"] is not None:
            pairs += oracles.pairs_scanned(len(job["points"]), out["pair"])
        elif kind == "cli" and job["argv"][:2] == ["cosmo", "evolve"] and out["exit"] == 0:
            steps += rk4_steps(job["argv"])
    v["fields.axiom_battery.lookups"] = lookups
    v["geometry.degenerate.scan_ratio"] = scanned / built if built else 0.0
    v["geometry.ordinary.pairs_scanned"] = pairs
    v["cosmology.rk4_steps"] = steps
    v["cosmology.us_per_rk4_step"] = (1e6 * v["cosmology.evolve_scale_factor.s"] / steps
                                      if steps else 0.0)

    if workload == "cli_cold":
        imports = [d["imports"] for d in docs]
        per_proc = [d["spans"] for d in docs]
        import_ms = [1e3 * s.get("cli.import_s", 0.0) for s in per_proc]
        dispatch = [s.get("cli.dispatch_s", 0.0) for s in per_proc]
        render = [s.get("cli.render_s", 0.0) for s in per_proc]
        walls = [d["lat_traced"] for d in docs]
        v["cli.dispatch_ms"] = 1e3 * metrics.median(dispatch)
        v["cli.render_us"] = 1e6 * metrics.median(render)
        v["cli.startup_share"] = (sum(walls) - sum(dispatch) - sum(render)) / sum(walls)
    else:
        imports = [spans.parse_importtime(child_stderr)]
        import_ms = [1e3 * child_import_s]
        v["cli.dispatch_ms"] = v["cli.render_us"] = v["cli.startup_share"] = 0.0

    def import_ms_of(module, cumulative=False):
        return metrics.median([i.get(module, (0, 0))[int(cumulative)] / 1e3 for i in imports])

    v["regularization.import_self_ms"] = import_ms_of("finiverse.regularization")
    v["cli.interpreter_start_ms"] = interpreter_start_ms()
    v["cli.import_ms"] = metrics.median(import_ms)
    v["cli.import.numpy_ms"] = import_ms_of("numpy", cumulative=True)
    v["cli.import.fields_ms"] = import_ms_of("finiverse.fields")
    v["cli.import.cli_ms"] = import_ms_of("finiverse.cli")
    v["trace.overhead_ratio"] = (sum(d["lat_traced"] for d in docs)
                                 / sum(d["lat"] for d in docs))
    return v


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report)."""
    if not os.path.isfile(os.path.join(SRC, "finiverse", "__init__.py")):
        raise BenchError(f"no finiverse package under {SRC}")
    cycles = workloads.job_list(workload, seed)
    digest = workloads.job_hash(cycles)
    setup = [] if trace else setup_samples(workload, seed, digest)

    child = Child(workload, seed, seconds, trace=trace)
    try:
        _, child_digest, import_s = child.ready()
        docs, done = [], None
        for doc in child.lines():
            if doc.get("done"):
                done = doc
            else:
                docs.append(doc)
        stderr = child.reap()
    finally:
        child.kill()
    if child_digest != digest or done is None:
        raise BenchError("child ran a different job list or stopped early")

    failures = check_jobs(cycles, docs, trace)
    report = {
        "workload": workload, "seed": seed, "job_hash": digest, "trace": int(trace),
        "seconds": seconds, "cycles": done["cycles"], "jobs": len(docs),
        "failed_ratio": len(failures) / len(docs), "failures": failures[:20],
        "env": environment(),
    }
    if trace:
        values = per_layer(workload, cycles, docs, done, import_s, stderr)
        units = per_layer_units()
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError(f"per-layer metrics not computed: {missing}")
        result_metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        # the child's own peak; for cli_cold the largest CLI process's ru_maxrss
        rss_kib = (max(d["rss_kib"] for d in docs) if workload == "cli_cold"
                   else done["peak_rss_kib"])
        values, info = end_to_end(docs, setup, rss_kib)
        report.update(info)
        result_metrics = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": not failures, "attempted": len(docs), "failed": len(failures),
              "metrics": result_metrics}
    return result, report


def print_table(rows) -> None:
    names = ["setup_s", "jobs_per_s", "job_p50_ms", "job_tail_ms", "failed_ratio", "peak_rss_mb"]
    units = dict(END_TO_END_UNITS, failed_ratio="ratio")
    print(f"{'workload':<12}" + "".join(f"{n + ' [' + units[n] + ']':>22}" for n in names))
    for workload, result, report in rows:
        vals = {k: m["value"] for k, m in result["metrics"].items()}
        vals["failed_ratio"] = report["failed_ratio"]
        print(f"{workload:<12}" + "".join(f"{vals[n]:>22.6g}" for n in names))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One core for everything, inherited by every child: the reference
    # kernel then times the same core the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    try:
        for name in names:
            result, report = run(name, args.seed, args.seconds, bool(args.trace))
            rows.append((name, result, report))
            print(json.dumps({"report": report}))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        if not args.trace:
            print_table(rows)
        for name, result, _ in rows:
            print(json.dumps({"workload": name, **result}))
    else:
        print(json.dumps(rows[0][1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
