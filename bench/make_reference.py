"""Write reference.json: the output fingerprint of every job the menus allow.

    python3 bench/make_reference.py [workload ...]

Run from the root of a checkout.  Each job runs in this process (CLI jobs
through `wqed_mobile.cli.main`), must pass every invariant of the gate, and
its fingerprint is stored under the job's key.  Regenerate only when a
change to the package is meant to change its numbers; the emit-localized
entries take a few minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def fingerprint(job, workdir: Path) -> dict:
    if job.workload == "bulk-library":
        import wqed_mobile
        out = workloads.bulk_pass(wqed_mobile, job, Tracer(enabled=False))
        g = gate.check_bulk(job, out, None, record_only=True)
    else:
        from wqed_mobile import cli
        stdout = io.StringIO()
        # CSV content does not depend on the thread count; one pool thread
        # makes emit-localized quicker here.
        with contextlib.redirect_stdout(stdout):
            rc = cli.main(list(job.argv) + ["--out", str(workdir / "ref"), "--threads", "1"])
        g = gate.check_cli_job(job, str(workdir), "ref", rc, stdout.getvalue(), "", None,
                               record_only=True)
    if g.failures:
        raise SystemExit(f"{job.workload} [{job.key}] fails the gate: {g.failures}")
    return g.fingerprint


def main() -> None:
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    workdir = ROOT / ".bench_work" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in sys.argv[1:] or workloads.WORKLOADS:
            entries = {}
            for job in workloads.all_jobs(name):
                if job.sub != "selfcheck":  # selfcheck writes no data
                    entries[job.key] = fingerprint(job, workdir)
            reference[name] = entries
            print(f"{name}: {len(entries)} entries", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
