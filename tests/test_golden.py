"""Golden CLI outputs at small sizes, recorded in tests/golden.json.

* map-transmission, map-recoil and windows CSV files are pinned by SHA-256
  of their bytes, the maps also at the README's 101 x 101 size;
* every sidecar must equal the recorded one after dropping `wall_time_s`
  and `threads` (the latter follows os.cpu_count()); scatter's `result`
  block is compared exactly;
* bound-energies and bound-wavefunction values are pinned to a relative
  1e-12, the precision of the bound-state root, above an absolute 1e-15 for
  entries that are zero in closed form and rounding residue in practice
  (Im f(0) and its phase);
* emit-fixed-k and emit-localized values are pinned to 1e-10, because their
  last digits depend on the BLAS build;
* every bound-state and windows job of the benchmark must pass bench/gate.py
  against its stored fingerprint in bench/reference.json.

Rewrite the record, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py

It rewrites only the cases that fail against the record or are new, and names
them; a stored entry that passes its case's tolerance keeps its bytes, so a
re-record of an unchanged tree leaves golden.json as it is.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

from wqed_mobile.cli import main

GOLDEN = Path(__file__).with_name("golden.json")

#: name -> (argv, CSV file suffixes, (rel, abs) tolerance); None means exact bytes.
CASES = {
    "scatter": (["scatter", "--ki", "1.0471975512", "--pi", "1.5707963268",
                 "--Jp", "0.1", "--Omega", "0.5"], [], None),
    "map-transmission": (["map-transmission", "--Jp", "0.1", "--Omega", "0.5",
                          "--nk", "5", "--np", "7"], [""], None),
    "map-recoil": (["map-recoil", "--Jp", "0.5", "--Omega", "1", "--Delta", "3",
                    "--nk", "5", "--np", "7"], [""], None),
    "windows": (["windows", "--Jp", "0.5", "--Delta", "3"], [""], None),
    **{f"{sub}-101-Jp{jp}": ([sub, "--Jp", jp, "--Omega", "0.5", "--Delta", "0",
                              "--nk", "101", "--np", "101"], [""], None)
       for sub in ("map-transmission", "map-recoil") for jp in ("0", "0.5")},
    "windows-lower": (["windows", "--Jp", "1.2", "--Delta", "-3"], [""], None),
    "bound-energies": (["bound-energies", "--Jp", "0.5", "--Omega", "1", "--nK", "16"],
                       [""], (1e-12, 1e-15)),
    "bound-wavefunction": (["bound-wavefunction", "--K", "1.0471975512",
                            "--Jp", "0.5", "--Omega", "1", "--branch", "minus",
                            "--xmax", "10"], [""], (1e-12, 1e-15)),
    "bound-wavefunction-plus": (["bound-wavefunction", "--K", "2.5", "--Jp", "0.3",
                                 "--Omega", "0.4", "--Delta", "-1", "--xmax", "8"],
                                [""], (1e-12, 1e-15)),
    "emit-fixed-k": (["emit-fixed-k", "--K", "1", "--Jp", "0.5", "--Omega", "0.2",
                      "--L", "64", "--tmax", "30", "--nt", "11"],
                     ["_pe", "_np"], (1e-10, 1e-10)),
    "emit-localized": (["emit-localized", "--Jp", "0.5", "--Omega", "0.2",
                        "--L", "40", "--tmax", "10", "--nt", "6",
                        "--snapshot", "5", "--snapshot", "10"],
                       ["_pe", "_x_t5", "_x_t10"], (1e-10, 1e-10)),
}


def _run(name: str, workdir: Path) -> dict:
    """Run one case in workdir; returns its sidecar and CSV outputs."""
    argv, suffixes, tol = CASES[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(argv + ["--out", "g"]) == 0
    finally:
        os.chdir(cwd)
    meta = json.loads((workdir / "g.json").read_text())
    meta.pop("wall_time_s")
    meta.pop("threads")
    files = {}
    for s in suffixes:
        blob = (workdir / f"g{s}.csv").read_bytes()
        if tol is None:
            files[s] = hashlib.sha256(blob).hexdigest()
        else:
            lines = blob.decode().splitlines()
            files[s] = {"header": lines[0],
                        "rows": [[float(v) for v in ln.split(",")] for ln in lines[1:]]}
    return {"sidecar": meta, "files": files}


def _mismatch(got, want, tol: tuple[float, float] | None, where: str) -> str | None:
    """Where `got` first leaves `want`'s tolerance (None: exact equality), or None."""
    if tol is None or not isinstance(want, (dict, list, float)):
        return None if got == want else f"{where}: {got!r} != {want!r}"
    if isinstance(want, float):
        return None if math.isclose(got, want, rel_tol=tol[0], abs_tol=tol[1]) \
            else f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        pairs = [(got[k], want[k], f"{where}.{k}") for k in want]
    else:
        if len(got) != len(want):
            return f"{where}: length {len(got)} != {len(want)}"
        pairs = [(g, w, f"{where}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    return next(filter(None, (_mismatch(g, w, tol, at) for g, w, at in pairs)), None)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    mismatch = _mismatch(_run(name, tmp_path), want, CASES[name][2], name)
    assert mismatch is None, mismatch


def _bench_gate_failures(tmp_path, monkeypatch, sub: str, count: int) -> list:
    """Run every cli-figures job whose subcommand starts with `sub` through
    bench/gate.py's checks and its stored fingerprints (bench/reference.json)."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    import gate
    import workloads

    reference = json.loads((bench / "reference.json").read_text())["cli-figures"]
    jobs = [job for job in workloads.all_jobs("cli-figures") if job.sub.startswith(sub)]
    assert len(jobs) == count
    failures = []
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(list(job.argv) + ["--out", str(tmp_path / "job")])
        checked = gate.check_cli_job(job, str(tmp_path), "job", rc, "", "",
                                     reference.get(job.key))
        failures += [(job.key, failure) for failure in checked.failures]
    return failures


def test_bound_state_jobs_pass_the_bench_gate(tmp_path, monkeypatch):
    # A bound-wavefunction phase that flips between +pi and -pi fails here as
    # well as in the benchmark.
    assert _bench_gate_failures(tmp_path, monkeypatch, "bound-", 243) == []


def test_windows_jobs_pass_the_bench_gate(tmp_path, monkeypatch):
    # The closed-form window ends hold the fingerprints that the scan recorded.
    assert _bench_gate_failures(tmp_path, monkeypatch, "windows", 9) == []


if __name__ == "__main__":
    import tempfile

    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    record, rewritten = {}, []
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            fresh = _run(case, Path(d))
        if case in stored and _mismatch(fresh, stored[case], CASES[case][2], case) is None:
            record[case] = stored[case]
        else:
            record[case] = fresh
            rewritten.append(case)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"rewrote {', '.join(rewritten) or 'no case'} in {GOLDEN}", file=sys.stderr)
