"""Benchmark of the wqed_mobile package: one closed-loop client, one job in flight.

    python3 bench/run.py --workload {cli-figures,emit-localized,bulk-library,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from ``src/``.  The
seed draws every job's physical parameters (see workloads.py).  Jobs run back
to back until S seconds of job time have been measured; every output passes
through the correctness gate (gate.py).  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` untraced and traced copies of each job
alternate, spans are taken around the package calls each job makes, and the
per-layer metrics are printed.  The last stdout line is one JSON object; the
exit code is 1 when any check failed and 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gate
import workloads
from tracing import Tracer, duration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
JOB_TIMEOUT_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "WQED_THREADS")

# (name, unit) of every end-to-end metric.  fail_frac is 0 whenever the gate
# passes, so it is printed but left out of the JSON metrics, which hold only
# quantities that are never 0; the JSON's `failed`/`attempted` carry it.
END_TO_END = (("setup_s", "s"), ("job_s.p50", "s"), ("job_s.tail", "s"),
              ("jobs_per_s", "1/s"), ("peak_rss_mib", "MiB"), ("fail_frac", "ratio"))
NOT_IN_JSON = ("fail_frac",)


@dataclass
class Proc:
    wall: float
    rss_mib: float
    returncode: int
    stdout: str
    stderr: str


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra)
    return env


def run_process(argv: list[str], cwd: Path, env: dict) -> Proc:
    """Run one process to completion; the peak RSS is its own."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall=wall, rss_mib=usage.ru_maxrss / 1024.0, returncode=proc.returncode,
                stdout=out_path.read_text(errors="replace"),
                stderr=err_path.read_text(errors="replace"))


# ---------------------------------------------------------------------------
# Set-up, import breakdown and machine block


def measure_setup(workdir: Path) -> list[float]:
    """Fresh-interpreter time to `import wqed_mobile`, after one untimed launch."""
    argv = [sys.executable, "-c", "import wqed_mobile"]
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        p = run_process(argv, workdir, child_env())
        if p.returncode != 0:
            raise SystemExit(f"error: `import wqed_mobile` failed:\n{p.stderr}")
        if i:
            times.append(p.wall)
    return times


def import_breakdown(workdir: Path) -> dict[str, float]:
    """Cumulative import times from `python -X importtime`, medians over launches."""
    argv = [sys.executable, "-X", "importtime", "-c", "import wqed_mobile"]
    found: dict[str, list[float]] = {"wqed_mobile": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        p = run_process(argv, workdir, child_env())
        seen = {}
        for line in p.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in found:
                seen[fields[2].strip()] = int(fields[1]) * 1e-6
        for name in found:
            found[name].append(seen.get(name, 0.0))
    return {"import.package_s": statistics.median(found["wqed_mobile"]),
            "import.scipy_optimize_s": statistics.median(found["scipy.optimize"])}


def machine_block() -> dict:
    import numpy as np
    from wqed_mobile.dynamics import resolve_threads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    lines = [line for f in sorted(SRC.rglob("*.py")) for line in f.read_text().splitlines()]
    return {
        "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "pool_threads": resolve_threads(),
        "commit": commit, "src_lines": len(lines),
        "src_nonblank_lines": sum(1 for line in lines if line.strip()),
    }


# ---------------------------------------------------------------------------
# Jobs


class Runner:
    """Runs the jobs of one workload, one at a time, and checks their outputs.

    Each record holds the job, its mode (plain, traced or single-thread), its
    wall time, peak RSS and the gate's failures."""

    def __init__(self, workload: str, workdir: Path, tracer: Tracer, reference: dict):
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.reference = reference.get(workload, {})
        self.records: list[dict] = []
        if workload == "bulk-library":
            import wqed_mobile
            self.wq = wqed_mobile

    def run(self, job, mode: str = "plain") -> dict:
        i = len(self.records)
        tracer = self.tracer if mode == "traced" else UNTRACED
        if self.workload == "bulk-library":
            rec = self._bulk(job, i, tracer)
        else:
            rec = self._cli(job, i, tracer, mode)
        rec.update(id=i, job=job, mode=mode)
        self.records.append(rec)
        return rec

    def _cli(self, job, i: int, tracer: Tracer, mode: str) -> dict:
        out = f"j{i}"
        args = list(job.argv) + ["--out", out]
        spans_path = self.workdir / f"{out}.spans"
        env = child_env()
        if mode == "traced":
            argv = [sys.executable, str(BENCH / "shim.py"), str(spans_path)] + args
        else:
            argv = [sys.executable, "-m", "wqed_mobile.cli"] + args
        if mode == "single-thread":
            argv.append("--threads=1")
            env["OPENBLAS_NUM_THREADS"] = "1"
        with tracer.span("job", job=i) as span:
            p = run_process(argv, self.workdir, env)
        failures = gate.check_cli_job(job, str(self.workdir), out, p.returncode, p.stdout,
                                      p.stderr, self.reference.get(job.key)).failures
        rec = {"wall": p.wall, "rss_mib": p.rss_mib, "failures": failures}
        if mode == "traced" and spans_path.exists():
            child = json.loads(spans_path.read_text())["spans"]
            tracer.adopt(child, span["id"], i)
            rec["in_process_s"] = sum(duration(s) for s in child if s["parent"] is None)
        for f in self.workdir.glob(f"{out}[._]*"):
            f.unlink()
        return rec

    def _bulk(self, job, i: int, tracer: Tracer) -> dict:
        t0 = time.perf_counter()
        try:
            with tracer.span("job", job=i):
                out = workloads.bulk_pass(self.wq, job, tracer, i)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a pass that raises is a failed job, not a crash
            frames = [f.filename for f in traceback.extract_tb(exc.__traceback__)
                      if "wqed_mobile" in f.filename]
            layer = Path(frames[-1]).stem if frames else "cli"
            return {"wall": time.perf_counter() - t0, "rss_mib": _self_rss_mib(),
                    "failures": [(layer, f"bulk pass raised {exc!r}")]}
        return {"wall": wall, "rss_mib": _self_rss_mib(),
                "failures": gate.check_bulk(job, out, self.reference.get(job.key)).failures}


UNTRACED = Tracer(enabled=False)


def _self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(runner: Runner, stream, seconds: float, traced: bool) -> None:
    """One client: the next job starts when the previous one has finished,
    until `seconds` of job time are measured and a round is complete.  A
    traced run follows each job with a traced copy of it."""
    busy, n = 0.0, 0
    per_round = workloads.round_length(runner.workload)
    while busy < seconds or n % per_round or n == 0:
        job = next(stream)
        n += 1
        busy += runner.run(job)["wall"]
        if traced:
            busy += runner.run(job, "traced")["wall"]


# ---------------------------------------------------------------------------
# Metrics


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it, or the maximum when there are 10 or fewer."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(runner: Runner, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values, and the sample note printed beside each."""
    recs = [r for r in runner.records if r["mode"] == "plain"]
    walls = [r["wall"] for r in recs]
    n = len(walls)
    failed = sum(1 for r in recs if r["failures"])
    value, pct, beyond = tail(walls)
    values = {
        "setup_s": statistics.median(setup),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": value,
        "jobs_per_s": n / sum(walls),
        "peak_rss_mib": max(r["rss_mib"] for r in recs),
        "fail_frac": failed / n,
    }
    notes = {
        "setup_s": f"median of {len(setup)} launches",
        "job_s.p50": f"n={n}",
        "job_s.tail": f"p{pct:.1f}, {beyond} samples beyond, n={n}",
        "jobs_per_s": f"{n} jobs in {sum(walls):.2f} s of job time",
        "peak_rss_mib": f"max over n={n}",
        "fail_frac": f"{failed}/{n} jobs failed",
    }
    return values, notes


# (name, unit) of every per-layer metric.
PER_LAYER = (
    ("import.package_s", "s"), ("import.scipy_optimize_s", "s"),
    ("cli.write_csv_s", "s"), ("cli.csv_bytes", "B"), ("cli.process_overhead_s", "s"),
    ("scattering.sweep_s", "s"), ("scattering.points_per_s", "1/s"),
    ("scattering.degenerate_points", "count"),
    ("boundstates.band_scan_s", "s"), ("boundstates.solve_us", "us"),
    ("dynamics.evolve_localized_s", "s"), ("dynamics.block_ms", "ms"),
    ("dynamics.block_eigh_ms", "ms"), ("dynamics.pool_threads", "count"),
    ("dynamics.cpu_util", "cpu-s/s"), ("dynamics.position_observables_s", "s"),
    ("dynamics.phi_mib", "MiB"), ("dynamics.evolve_fixed_K_s", "s"),
    ("dynamics.single_thread_job_s", "s"),
    ("oracle.dense_diag_s", "s"), ("oracle.wavepacket_s", "s"),
    ("oracle.wavepacket_blocks", "count"),
) + tuple((f"{layer}.failed", "count") for layer in gate.LAYERS) + (
    ("trace.overhead_s", "s"),
)

EVOLVE = ("dynamics.evolve_localized", "dynamics.evolve_fixed_K")


def per_layer(runner: Runner) -> tuple[dict, dict]:
    """Per-layer metric values from the spans of the traced jobs, and the
    sample note of each.  Times are medians per call unless a note says per
    job; a layer the workload never calls reads 0."""
    spans = runner.tracer.spans
    values: dict = {}
    notes: dict = {}

    def named(*names: str) -> list[dict]:
        return [s for s in spans if s["name"] in names]

    def total(found: list[dict], counter: str | None = None) -> float:
        return sum(s["counters"].get(counter, 0) if counter else duration(s) for s in found)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def put(metric: str, value: float, note: str) -> None:
        values[metric] = value
        notes[metric] = note

    def per_call(metric: str, name: str) -> None:
        found = named(name)
        put(metric, statistics.median([duration(s) for s in found] or [0.0]),
            f"median of {len(found)} calls")

    def largest(metric: str, found: list[dict], counter: str, scale: float = 1.0) -> None:
        put(metric, max((s["counters"][counter] for s in found), default=0) * scale,
            f"max over {len(found)} calls")

    recs = runner.records
    traced = [r for r in recs if r["mode"] == "traced"]
    plain = [r for r in recs if r["mode"] == "plain"]
    cli_jobs = [r for r in traced if "in_process_s" in r]
    csv = named("cli.write_csv")
    put("cli.write_csv_s", ratio(total(csv), len(cli_jobs)),
        f"per job, {len(csv)} files in {len(cli_jobs)} jobs")
    put("cli.csv_bytes", ratio(total(csv, "bytes"), len(cli_jobs)), f"per job, {len(cli_jobs)} jobs")
    # Job wall time outside the spans of the job process: interpreter start-up
    # before the package import, and exit.
    put("cli.process_overhead_s",
        statistics.median([r["wall"] - r["in_process_s"] for r in cli_jobs] or [0.0]),
        f"median of {len(cli_jobs)} jobs")

    sweeps = named("scattering.sweep_scattering")
    per_call("scattering.sweep_s", "scattering.sweep_scattering")
    put("scattering.points_per_s", ratio(total(sweeps, "points"), total(sweeps)),
        f"{total(sweeps, 'points'):.0f} points in {len(sweeps)} calls")
    put("scattering.degenerate_points", total(sweeps, "degenerate"), f"sum over {len(sweeps)} calls")

    scans = named("boundstates.band_scan")
    per_call("boundstates.band_scan_s", "boundstates.band_scan")
    put("boundstates.solve_us", 1e6 * ratio(total(scans), total(scans, "solves")),
        f"{total(scans, 'solves'):.0f} root solves in {len(scans)} calls")

    evolve = named(*EVOLVE)
    per_call("dynamics.evolve_localized_s", "dynamics.evolve_localized")
    put("dynamics.block_ms", 1e3 * ratio(total(evolve), total(evolve, "blocks")),
        f"wall per block, {total(evolve, 'blocks'):.0f} blocks")
    put("dynamics.block_eigh_ms", *block_eigh_ms(runner))
    largest("dynamics.pool_threads", named("dynamics.evolve_localized"), "pool_threads")
    put("dynamics.cpu_util", ratio(sum(s["cpu"] for s in evolve), total(evolve)),
        f"CPU s per wall s over {len(evolve)} calls")
    per_call("dynamics.position_observables_s", "dynamics.position_observables")
    largest("dynamics.phi_mib", evolve, "phi_bytes", 2.0**-20)
    per_call("dynamics.evolve_fixed_K_s", "dynamics.evolve_fixed_K")
    single = [r["wall"] for r in recs if r["mode"] == "single-thread"]
    put("dynamics.single_thread_job_s", statistics.median(single or [0.0]),
        f"{len(single)} jobs with --threads 1 and OPENBLAS_NUM_THREADS=1")

    per_call("oracle.dense_diag_s", "oracle.dense_block_diagonalize")
    per_call("oracle.wavepacket_s", "oracle.wavepacket_scattering_oracle")
    largest("oracle.wavepacket_blocks", named("oracle.wavepacket_scattering_oracle"), "blocks")

    for layer in gate.LAYERS:
        put(f"{layer}.failed", sum(1 for r in recs for lay, _ in r["failures"] if lay == layer),
            f"failed checks over {len(recs)} jobs")
    put("trace.overhead_s", statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in plain),
        f"median of {len(traced)} traced minus median of {len(plain)} untraced jobs")
    return values, notes


def block_eigh_ms(runner: Runner) -> tuple[float, str]:
    """Median time of `eigh` alone on K blocks of the first traced job that
    evolved any, built with `block_hamiltonian` and timed here; the rest of
    dynamics.block_ms is the assembly of the amplitudes."""
    import numpy as np
    from wqed_mobile import ModelParams, momentum_grid
    from wqed_mobile.dynamics import block_hamiltonian

    evolved = {s["job"] for s in runner.tracer.spans if s["name"] in EVOLVE}
    rec = next((r for r in runner.records if r["id"] in evolved), None)
    if rec is None:
        return 0.0, "no block evolved"
    job = rec["job"]
    if job.workload == "emit-localized":
        L, ks = 400, momentum_grid(400)[::25]
    elif job.workload == "bulk-library":
        L, ks = workloads.BULK_SIZES["block_L"], [job.value("K")] * 3
    elif job.sub == "emit-fixed-k":
        L, ks = 400, [job.value("K")] * 9
    else:  # selfcheck: its fixed-K block at K = 0
        job = workloads.make_job("cli-figures", {"Jp": "0.5", "Omega": "0.2", "Delta": "0"},
                                 "selfcheck")
        L, ks = 400, [0.0] * 9
    params = ModelParams(J=workloads.J, Jp=job.value("Jp"), Delta=job.value("Delta"),
                         Omega=job.value("Omega"), L=L)
    times = []
    for K in ks:
        h = block_hamiltonian(params, float(K))
        t0 = time.perf_counter()
        np.linalg.eigh(h)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times), f"median of {len(times)} blocks of size {L + 1}"


# ---------------------------------------------------------------------------
# Entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, reference: dict) -> tuple[dict, dict, Runner]:
    """Run one workload; returns (metrics, notes, runner)."""
    tracer = Tracer(enabled=trace)
    runner = Runner(name, workdir, tracer, reference)
    stream = workloads.jobs(name, seed)
    if trace:
        imports = import_breakdown(workdir)
    else:
        setup = measure_setup(workdir)
    if name == "bulk-library":
        runner.run(next(stream), "warm-up")
    closed_loop(runner, stream, seconds, traced=trace)
    if not trace:
        return (*end_to_end(runner, setup), runner)
    if name == "emit-localized":
        runner.run(runner.records[0]["job"], "single-thread")
    metrics, notes = per_layer(runner)
    metrics.update(imports)
    notes.update(dict.fromkeys(imports, f"median of {IMPORTTIME_LAUNCHES} launches "
                                        "of python -X importtime"))
    return metrics, notes, runner


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="job time to measure per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wqed_mobile" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'wqed_mobile'}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((BENCH / "reference.json").read_text())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    workdir = ROOT / ".bench_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        machine = machine_block()
        print("machine " + json.dumps(machine))
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    metrics = {}
    table = PER_LAYER if args.trace else END_TO_END
    for name, (values, notes, runner) in results.items():
        print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}")
        for metric, unit in table:
            print(f"  {metric:32s} {values[metric]:14.6g} {unit:8s} {notes[metric]}")
        for r in runner.records:
            attempted += 1
            failed += bool(r["failures"])
            for layer, message in r["failures"]:
                print(f"  FAILED job {r['id']} [{r['job'].key}] {layer}: {message}")
        prefix = f"{name}." if len(results) > 1 else ""
        metrics.update({prefix + metric: {"value": values[metric], "unit": unit}
                        for metric, unit in table if metric not in NOT_IN_JSON})
        if args.trace:
            out = ROOT / ".bench_out" / f"trace-{name}-seed{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            runner.tracer.dump(str(out), machine=machine, workload=name, seed=args.seed,
                               jobs=[{"id": r["id"], "key": r["job"].key, "mode": r["mode"],
                                      "wall": r["wall"], "rss_mib": r["rss_mib"],
                                      "failures": r["failures"]} for r in runner.records])
            print(f"  spans written to {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
