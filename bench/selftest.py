"""Self-test of the correctness gate: clean outputs pass, corrupted ones fail.

    python3 bench/selftest.py

Run from the root of a checkout (about 30 s).  It runs one real job of each
output kind below, checks that the gate passes it, then corrupts one output
at a time (a NaN row, a broken sum rule, a shifted energy, a lost photon)
and checks that the gate reports each corruption.  Exits 1 if a corruption
goes unnoticed or a clean output fails.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402
from run import child_env  # noqa: E402
from tracing import Tracer  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text())


def cli_job(sub: str, **params):
    base = {"Jp": "0.5", "Omega": "0.2", "Delta": "3", "K": "1.0471975512",
            "branch": "plus", "x0": "0"}
    workload = "emit-localized" if sub == "emit-localized" else "cli-figures"
    return workloads.make_job(workload, dict(base, **params), sub)


def edit_csv(path: Path, column: str, fn) -> None:
    """Rewrite one column of a CSV output with fn(values)."""
    cols = gate.read_csv(str(path))
    cols[column] = fn(cols[column].copy())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*cols.values()):
            fh.write(",".join(f"{v:.12e}" for v in row) + "\n")


def nan_row(values):
    values[len(values) // 2] = np.nan
    return values


CLI_CASES = [
    ("map-transmission", "NaN row", ".csv", "T", nan_row),
    ("map-transmission", "|t|^2 + |r|^2 != 1", ".csv", "R", lambda v: v * 1.001),
    ("bound-energies", "E_+ moved into the band", ".csv", "E_plus", lambda v: v - 1.0),
    ("emit-fixed-k", "photon lost", "_np.csv", "N_p", lambda v: v * 0.99),
    ("emit-localized", "sum N != sum P_g", "_x_t49.csv", "N", lambda v: v * 1.01),
    ("emit-localized", "NaN row in P_e", "_pe.csv", "P_e_total", nan_row),
]


def check(job, workdir: Path, proc) -> list:
    return gate.check_cli_job(job, str(workdir), "out", proc.returncode, proc.stdout,
                              proc.stderr, REFERENCE[job.workload].get(job.key)).failures


def main() -> int:
    workdir = ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    missed = 0
    try:
        runs = {}
        for sub, what, suffix, column, corrupt in CLI_CASES:
            job = cli_job(sub)
            if sub not in runs:
                proc = subprocess.run(
                    [sys.executable, "-m", "wqed_mobile.cli"] + list(job.argv) + ["--out", "out"],
                    cwd=workdir, env=child_env(), capture_output=True, text=True)
                clean = check(job, workdir, proc)
                print(f"{'ok    ' if not clean else 'FAILED'} clean {sub} output passes {clean}")
                missed += bool(clean)
                runs[sub] = proc
                backup = workdir / "backup"
                shutil.rmtree(backup, ignore_errors=True)
                backup.mkdir()
                for f in workdir.glob("out*"):
                    shutil.copy(f, backup / f.name)
            for f in (workdir / "backup").iterdir():
                shutil.copy(f, workdir / f.name)
            edit_csv(workdir / f"out{suffix}", column, corrupt)
            caught = check(job, workdir, runs[sub])
            print(f"{'ok    ' if caught else 'MISSED'} {sub}: {what} -> {caught[:2]}")
            missed += not caught

        import wqed_mobile
        job = next(workloads.jobs("bulk-library", 0))
        out = workloads.bulk_pass(wqed_mobile, job, Tracer(enabled=False))
        clean = gate.check_bulk(job, out, REFERENCE["bulk-library"].get(job.key)).failures
        print(f"{'ok    ' if not clean else 'FAILED'} clean bulk-library pass passes {clean}")
        missed += bool(clean)
        table = dict(out["table"], T=nan_row(out["table"]["T"].copy()))
        packet = dataclasses.replace(out["packet"], reflection=out["packet"].reflection + 1e-3)
        for what, bad in (("NaN row in the sweep", dict(out, table=table)),
                          ("T + R + residual != 1", dict(out, packet=packet))):
            caught = gate.check_bulk(job, bad, REFERENCE["bulk-library"].get(job.key)).failures
            print(f"{'ok    ' if caught else 'MISSED'} bulk-library: {what} -> {caught[:2]}")
            missed += not caught
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {'all corruptions caught' if not missed else f'{missed} problem(s)'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
