"""The three benchmark workloads: their inputs, drawn from a seed, and jobs.

One job is one unit of user work.  Physical parameters are drawn per job from
small menus, so that every draw has a stored reference fingerprint
(``reference.json``, written by ``make_reference.py``); the program only sees
the argv or the call arguments built from the draw.

* ``cli-figures``: one fresh ``wqed`` process per job, cycling through the
  eight light README subcommands in a seed-shuffled order at README sizes.
* ``emit-localized``: one fresh ``wqed emit-localized`` process per job, the
  README run (L=400, nt=51, snapshots at t=49 and t=100).
* ``bulk-library``: one pass of five large library calls per job, in the
  benchmark process after one untimed warm-up pass.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from tracing import Tracer, call

J = 1.0

#: The eight light README subcommands of ``cli-figures``.
CLI_SUBCOMMANDS = ("scatter", "map-transmission", "map-recoil", "bound-energies",
                   "bound-wavefunction", "emit-fixed-k", "windows", "selfcheck")

# Values are argv strings.  J' <= J/2 keeps every band open (|z(K)| >= J/2)
# and keeps the bulk-library wavepacket from wrapping round its ring.
MENUS = {
    "cli-figures": {
        "Jp": ("0", "0.1", "0.5"),
        "Omega": ("0.2", "0.5", "1"),
        "Delta": ("-3", "0", "3"),
        "K": ("0", "1.0471975512", "2.0943951024", "3.1415926536"),
        "branch": ("plus", "minus"),
    },
    # J' = 0 makes every K block the same matrix, with exactly degenerate
    # photon pairs; x0 only translates the outputs, so it is not in the key.
    "emit-localized": {
        "Jp": ("0", "0.25", "0.5"),
        "Omega": ("0.2", "0.4"),
        "Delta": ("-3", "0", "3"),
        "x0": ("-60", "0", "60"),
    },
    "bulk-library": {
        "Jp": ("0.1", "0.25", "0.5"),
        "Omega": ("0.2", "0.5"),
        "Delta": ("0", "3"),
        "K": ("0", "1.0471975512", "2.0943951024"),
    },
}

WORKLOADS = tuple(MENUS)


def round_length(workload: str) -> int:
    """Jobs in one round: cli-figures runs whole rounds of its eight
    subcommands, so that every run holds the same mix of them."""
    return len(CLI_SUBCOMMANDS) if workload == "cli-figures" else 1

# README sizes of the job arguments.
EMIT_LOCALIZED_ARGS = ["--L", "400", "--tmax", "100", "--snapshot", "49", "--snapshot", "100"]
EMIT_SNAPSHOTS = (49.0, 100.0)
BULK_SIZES = {"sweep": 1001, "band_nK": 4001, "block_L": 2000, "fixed_K_nt": 201,
              "fixed_K_tmax": 200.0, "packet_L": 1000, "packet_sigma": 0.03,
              "packet_t": 160.0}


@dataclass(frozen=True)
class Job:
    """One job's inputs: the drawn parameters, the argv, the reference key."""

    workload: str
    sub: str
    params: dict
    argv: tuple
    key: str

    def value(self, name: str) -> float:
        return float(self.params[name])


def _model_flags(p: dict) -> list[str]:
    return ["--Jp", p["Jp"], "--Omega", p["Omega"], "--Delta", p["Delta"]]


def cli_argv(sub: str, p: dict) -> list[str]:
    """README-sized argv of one light subcommand (no --out)."""
    if sub == "scatter":
        return [sub, "--ki", p["K"], "--pi", "1.5707963268"] + _model_flags(p)
    if sub in ("map-transmission", "map-recoil"):
        return [sub] + _model_flags(p) + ["--nk", "101", "--np", "101"]
    if sub == "bound-energies":
        return [sub] + _model_flags(p) + ["--nK", "201"]
    if sub == "bound-wavefunction":
        return [sub, "--K", p["K"]] + _model_flags(p) + ["--branch", p["branch"],
                                                         "--xmax", "50"]
    if sub == "emit-fixed-k":
        return [sub, "--K", p["K"]] + _model_flags(p) + ["--L", "400", "--tmax", "200"]
    if sub == "windows":
        return [sub, "--Jp", p["Jp"], "--Delta", p["Delta"]]
    if sub == "selfcheck":
        return [sub]
    raise ValueError(f"unknown subcommand {sub!r}")


def make_job(workload: str, p: dict, sub: str | None = None) -> Job:
    if workload == "cli-figures":
        argv = cli_argv(sub, p)
        return Job(workload, sub, p, tuple(argv), " ".join(argv))
    if workload == "emit-localized":
        argv = ["emit-localized"] + _model_flags(p) + EMIT_LOCALIZED_ARGS
        return Job(workload, "emit-localized", p,
                   tuple(argv[:1] + ["--x0", p["x0"]] + argv[1:]), " ".join(argv))
    key = ",".join(f"{k}={p[k]}" for k in MENUS[workload])
    return Job(workload, "bulk", p, (), key)


def jobs(workload: str, seed: int):
    """Endless job stream of a workload; the same seed gives the same stream.

    Each parameter (and each cli-figures subcommand) is drawn from a shuffle
    bag: every value of its menu comes once before any comes again, so runs
    of a few jobs already hold an even mix and their timings vary less with
    the seed."""
    rng = random.Random(f"{workload}:{seed}")
    menu = dict(MENUS[workload], sub=CLI_SUBCOMMANDS if workload == "cli-figures" else [None])
    bags: dict[str, list] = {k: [] for k in menu}

    def draw(k: str):
        if not bags[k]:
            bags[k] = rng.sample(menu[k], len(menu[k]))
        return bags[k].pop()

    while True:
        params = {k: draw(k) for k in menu}
        yield make_job(workload, params, params.pop("sub"))


def all_jobs(workload: str):
    """Every distinct job the menus allow, one per reference key."""
    menu = MENUS[workload]
    seen = {}
    subs = CLI_SUBCOMMANDS if workload == "cli-figures" else [None]
    for sub in subs:
        for values in itertools.product(*menu.values()):
            job = make_job(workload, dict(zip(menu, values)), sub)
            seen.setdefault(job.key, job)
    return list(seen.values())


def bulk_pass(wq, job: Job, tracer: Tracer, job_id: int | None = None) -> dict:
    """One bulk-library pass; returns every output the gate checks.  The
    fixed-K evolution and the dense oracle work on the same L=2000 block."""
    s = BULK_SIZES
    params = wq.ModelParams(J=J, Jp=job.value("Jp"), Delta=job.value("Delta"),
                            Omega=job.value("Omega"), L=s["block_L"])
    K = job.value("K")
    times = [s["fixed_K_tmax"] * i / (s["fixed_K_nt"] - 1) for i in range(s["fixed_K_nt"])]

    table = call(tracer, "scattering", wq.sweep_scattering, params, s["sweep"], s["sweep"],
                 job=job_id)
    scan = call(tracer, "boundstates", wq.band_scan, params, s["band_nK"], job=job_id)
    traj = call(tracer, "dynamics", wq.evolve_fixed_K, params, K, times, job=job_id)
    n_p, _ = call(tracer, "dynamics", wq.photon_spectrum_and_directionality, traj,
                  s["fixed_K_tmax"], job=job_id)
    spec = call(tracer, "oracle", wq.dense_block_diagonalize, params, K, job=job_id)
    packet_params = wq.ModelParams(J=J, Jp=params.Jp, Delta=params.Delta,
                                   Omega=params.Omega, L=s["packet_L"])
    packet = call(tracer, "oracle", wq.wavepacket_scattering_oracle, packet_params,
                  math.pi / 3, math.pi / 2, s["packet_sigma"], s["packet_t"], job=job_id)
    return {"table": table, "scan": scan, "traj": traj, "n_p": n_p, "spec": spec,
            "packet": packet}
