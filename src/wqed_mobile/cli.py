"""Command-line front end: parameter parsing, sweeps, and figure-data emission.

Every data-producing subcommand writes CSV files (UTF-8, comma-separated,
header row, LF line endings, 12-significant-digit floats, fixed row order,
so repeated runs with identical flags produce byte-identical files) plus a
JSON metadata sidecar carrying the echo of the model flags the subcommand
reads (it takes no others), grid sizes, package version, and wall time.

Exit codes: 0 success, 2 invalid parameters (message names the violated
invariant), 3 numerical failure (band-edge singularity, missing bound
state, non-convergence, overflow, an invalid or non-finite value, a norm
that drifts past NORM_TOL, phases resolved only to more than PHASE_TOL,
memory budget); nothing is written unless every output value is finite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import (
    BandEdgeSingularity,
    NoBoundState,
    NotEmbedded,
    NumericalFailure,
    ParameterError,
    SizeError,
)
from .model import ModelParams, momentum_grid
from .scattering import SWEEP_COLUMNS, scatter, sweep_scattering
from .boundstates import band_scan, bound_wavefunctions, solve_bound_state
from .dynamics import (
    asymptotic_momenta,
    classify_regime_and_windows,
    evolve_fixed_K,
    evolve_localized,
    fit_exponential_rate,
    markov_rate,
    photon_spectrum_and_directionality,
    position_observables,
    resolve_threads,
    spectrum_peaks,
)


#: Rows formatted at once: bounds the formatter's arrays, not the file size.
_CHUNK_ROWS = 2048
_QUAD = (np.arange(10000, dtype=np.int16)[:, None]  # row i: the digits of "%04d" % i
         // np.array([1000, 100, 10, 1], dtype=np.int16) % 10 + 48).astype(np.uint8)
#: 10**m, m = -296..336, correctly rounded; clamped at 1e308, the largest finite one.
_POW10 = np.array([f"1e{min(m, 308)}" for m in range(-296, 337)], dtype=float)


def _cells(c: np.ndarray) -> np.ndarray:
    """(n, w) uint8 rows of '%d,' (int or bool c) or '%.12e,' % v; bytes 0 are padding.

    rint(|v| 10^(12-e)) gives the 13 significant digits, unless the scaled value lies
    within its rounding error (two eps: the power and the product) of a tie, or its digits
    leave [10^12, 10^13): those few values take Python's correctly rounded '%.12e'."""
    if c.dtype.kind in "biu":
        text = c.astype(np.int64).astype("S").view(np.uint8).reshape(len(c), -1)
        return np.pad(text, ((0, 0), (0, 1)), constant_values=ord(","))
    x = c.astype(np.float64)
    a = np.abs(x)
    e = np.floor(np.log10(np.where(a > 0, a, 1.0))).astype(np.int64)
    s = a * _POW10[296 + 12 - e]
    r = np.rint(s)
    ok = (a == 0) | ((s >= 1e12) & (r < 1e13)
                     & (np.abs(s - r) < 0.5 - 2 * np.finfo(float).eps * s))
    r = r.astype(np.int64)
    for i in np.flatnonzero(~ok):
        mant, _, exp = ("%.12e" % x[i]).partition("e")
        r[i], e[i] = int(mant.lstrip("-").replace(".", "")), int(exp)
    out = np.tile(np.frombuffer(b"-0.000000000000e+000,", np.uint8), (len(x), 1))
    out[~np.signbit(x), 0] = 0
    out[:, 1] = ord("0") + r // 10**12
    for j, div in ((3, 10**8), (7, 10**4), (11, 1)):
        out[:, j:j + 4] = _QUAD.take(r // div % 10**4, axis=0)
    out[:, 17:20] = _QUAD.take(np.abs(e), axis=0)[:, 1:]
    out[e < 0, 16] = ord("-")
    out[np.abs(e) < 100, 17] = 0
    return out


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Deterministic CSV: header row, LF endings, '%d' for int and bool columns,
    Python's '%.12e' of each float64 value, which must be finite (_writes checks)."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for i in range(0, len(columns[0]), _CHUNK_ROWS):
            rows = np.hstack([_cells(np.asarray(c)[i:i + _CHUNK_ROWS]) for c in columns])
            rows[:, -1] = ord("\n")
            fh.write(rows[rows != 0].tobytes())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.generic, np.ndarray)):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return repr(obj)
    return obj


def write_sidecar(path: str, args: argparse.Namespace, params: ModelParams,
                  t_start: float, **extra) -> None:
    meta = {
        "version": __version__,
        "command": args.command,
        "params": {name: getattr(params, name) for name in args.model},
        "wall_time_s": time.perf_counter() - t_start,
    }
    meta.update(_jsonable(extra))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


#: ModelParams field -> its flag; a subcommand takes the fields its `model` names.
_MODEL_FLAGS = {
    "J": ("--J", dict(type=float, default=1.0, help="photon hopping (energy unit)")),
    "Jp": ("--Jp", dict(type=float, default=0.0, help="emitter hopping J'")),
    "Delta": ("--Delta", dict(type=float, default=0.0, help="emitter splitting")),
    "Omega": ("--Omega", dict(type=float, default=1.0, help="emitter-photon coupling")),
    "L": ("--L", dict(type=int, default=400, help="lattice sites / momentum modes")),
}
#: Flags every subcommand takes: (flag, add_argument keywords).
_RUN_FLAGS = (
    ("--out", dict(type=str, default=None,
                   help="output prefix (default: the subcommand name)")),
    ("--threads", dict(type=int, default=None,
                       help="echoed in the sidecar only: K blocks run in one loop")),
)


# Compute steps map (args, params) to (tables, sidecar fields); tables map an
# output-file suffix to (CSV header, columns).  They reach the package through
# this module's globals, so wrappers set on the module at run time see every call.


def _scatter(args, params):
    res = scatter(params, args.ki, args.pi)
    print(f"T = {abs(res.t)**2:.6f}  R = {abs(res.r)**2:.6f}  "
          f"p_f2 = {res.p_f2:.6f}  degenerate = {res.degenerate}")
    return {}, {"result": dict(asdict(res), k_i=args.ki, p_i=args.pi,
                               T=abs(res.t) ** 2, R=abs(res.r) ** 2)}


def _map(args, params):
    table = sweep_scattering(params, args.nk, args.np)
    return ({"": (list(SWEEP_COLUMNS), [table[c] for c in SWEEP_COLUMNS])},
            {"grid": {"nk": args.nk, "np": args.np},
             "degenerate_points": int(table["degenerate"].sum())})


def _bound_bands(args, params):
    scan = band_scan(params, args.nK)
    return ({"": (["K", "E_minus", "E_plus", "band_min", "band_max"],
                  [scan.K, scan.e_minus, scan.e_plus, scan.band_min, scan.band_max])},
            {"grid": {"nK": args.nK}, "flatness": asdict(scan.flatness)})


def _bound_wavefunction(args, params):
    bound = solve_bound_state(params, args.K, +1 if args.branch == "plus" else -1)
    field, density = bound_wavefunctions(params, bound, args.xmax)
    return ({"": (["x", "f_re", "f_im", "abs_f", "phase"],
                  [field.x, field.amp.real, field.amp.imag,
                   np.abs(field.amp), np.angle(field.amp)])},
            {"K": args.K, "branch": args.branch, "energy": bound.energy,
             "u": bound.u, "y_in": bound.y_in, "loc_length": bound.loc_length,
             "photon_density": density})


def _time_grid(args) -> np.ndarray:
    if args.nt < 0:
        raise ParameterError(f"--nt must be >= 0 (got {args.nt})")
    if args.tmax < 0:
        raise ParameterError(f"--tmax must be >= 0 (got {args.tmax})")
    return np.linspace(0.0, args.tmax, args.nt)


#: Largest |norm - 1| an emission run may reach and still write its files.
NORM_TOL = 1e-9
#: Largest rounding, in radians, that an emission run's phases E_n t may carry.
PHASE_TOL = 1e-9
#: Relative error charged to each E_n t: double's unit roundoff, as each E_n is a double
#: and carries at least half an ulp; the product E_n t itself is taken exactly.
_PHASE_UNIT = 2.0**-53


def _check_emission(norms: np.ndarray, params: ModelParams, t_max: float) -> None:
    """The norm, then the phases: E_n t enters them exactly, but each is charged max|E_n| t
    _PHASE_UNIT, where max|E_n| <= max(|Delta| + 2J', 2J + 2J') + Omega."""
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= NORM_TOL:  # also a NaN drift
        raise NumericalFailure(f"the run loses its norm: max|norm - 1| = {drift:.3g} "
                               f"> {NORM_TOL:g}")
    e_max = max(abs(params.Delta) + 2 * params.Jp, 2 * (params.J + params.Jp)) + params.Omega
    error = e_max * t_max * _PHASE_UNIT
    if error > PHASE_TOL:
        raise NumericalFailure(f"the phases exp(-iEt) are resolved only to max|E| t u = "
                               f"{error:.3g} rad > {PHASE_TOL:g} (phase resolution); "
                               "reduce --tmax")


def _emit_fixed_k(args, params):
    times = _time_grid(args)
    if not times.size or times[-1] != args.tmax:
        raise ParameterError(f"--nt {args.nt} does not sample --tmax {args.tmax}")
    traj = evolve_fixed_K(params, args.K, times)
    _check_emission(traj.norms(), params, times[-1])
    n_p, direction = photon_spectrum_and_directionality(traj, args.tmax)
    try:
        gamma = markov_rate(params, args.K)
    except (NotEmbedded, BandEdgeSingularity):
        gamma = None
    pm = asymptotic_momenta(params, args.K) or (None, None)
    return ({"_pe": (["t", "P_e_total"], [times, np.abs(traj.psi_e) ** 2]),
             "_np": (["p", "N_p"], [momentum_grid(params.L), n_p])},
            {"K": args.K, "tmax": args.tmax, "nt": args.nt,
             "directionality": direction,
             "directionality_note": "normalized by total emitted photon number",
             "measured_peaks": spectrum_peaks(momentum_grid(params.L), n_p),
             "predicted_p_plus": pm[0], "predicted_p_minus": pm[1],
             "markov_rate": gamma})


def _emit_localized(args, params):
    times = _time_grid(args)
    snapshots = [s + 0.0 for s in args.snapshot or [args.tmax]]  # + 0.0 turns -0 into 0
    named = {}
    for s in snapshots:
        if not 0 <= s <= args.tmax:
            raise ParameterError(f"--snapshot must lie in [0, --tmax {args.tmax!r}] (got {s!r})")
        key = f"{s:g}"
        if key in named:  # a repeat, or a time that rounds to the same name
            raise ParameterError(f"--snapshot t = {named[key]!r} and t = {s!r} "
                                 f"would both write _x_t{key}.csv")
        named[key] = s
        if not np.any(np.abs(times - s) <= 1e-12 * max(1.0, s)):
            times = np.sort(np.append(times, s))
    run = evolve_localized(params, args.x0, times, snapshots)
    _check_emission(run.total_norm(), params, run.times[-1])
    pe_total = run.pe_total()
    tables = {"_pe": (["t", "P_e_total"], [run.times, pe_total])}
    for s in snapshots:
        obs = position_observables(run, s)
        tables[f"_x_t{s:g}"] = (["x", "N", "P_g", "P_e"],
                                [obs.x, obs.n_photon, obs.p_ground, obs.p_excited])
    return tables, {"x0": args.x0, "tmax": args.tmax, "nt": args.nt,
                    "snapshots": list(snapshots),
                    "final_pe_total": float(pe_total[-1])}


def _windows(args, params):
    win = classify_regime_and_windows(params)
    k_lo, k_hi = np.array(win.windows, dtype=float).reshape(-1, 2).T
    return {"": (["K_lo", "K_hi"], [k_lo, k_hi])}, asdict(win)


def _writes(compute):
    """Runner of a data subcommand: validate the flags, run the compute
    step, write its tables to <out><suffix>.csv and the sidecar <out>.json."""
    def run(args: argparse.Namespace) -> int:
        for name, value in vars(args).items():
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ParameterError(f"--{name} must be finite (got {v})")
        params = ModelParams(**{name: getattr(args, name) for name in args.model})
        threads = resolve_threads(args.threads)
        t0 = time.perf_counter()
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            tables, fields = compute(args, params)
        out = args.out if args.out else args.command
        for suffix, (header, columns) in tables.items():
            for name, column in zip(header, columns):
                if not np.all(np.isfinite(np.asarray(column, dtype=float))):
                    raise NumericalFailure(f"non-finite {name} in {out}{suffix}.csv")
        for suffix, (header, columns) in tables.items():
            write_csv(f"{out}{suffix}.csv", header, columns)
        write_sidecar(f"{out}.json", args, params, t0, threads=threads, **fields)
        return 0
    return run


def selfcheck(args: argparse.Namespace) -> int:
    """Fast internal consistency checks; prints one PASS/FAIL line each."""
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")
        failures += 0 if ok else 1

    params = ModelParams(J=1.0, Jp=0.1, Delta=0.0, Omega=0.5, L=400)
    table = sweep_scattering(params, 51, 51)
    t = table["t_re"] + 1j * table["t_im"]
    r = table["r_re"] + 1j * table["r_im"]
    report("scattering unitarity", float(np.abs(1 - (table["T"] + table["R"])).max()) < 1e-10)
    report("scattering sum rule 1+r=t", float(np.abs(1 + r - t).max()) < 1e-12)

    static = ModelParams(J=1.0, Jp=0.0, Delta=0.0, Omega=1.0, L=400)
    bound = solve_bound_state(static, 0.0, +1)
    report("static bound-state energy",
           abs(bound.energy - math.sqrt(2.0 + math.sqrt(5.0))) < 1e-10,
           f"E+ = {bound.energy:.6f}")

    mobile = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=400)
    times = np.linspace(0.0, 120.0, 121)
    traj = evolve_fixed_K(mobile, 0.0, times)
    report("block norm conservation",
           float(np.abs(traj.norms() - 1.0).max()) < NORM_TOL)
    rate = fit_exponential_rate(times, np.abs(traj.psi_e) ** 2, 10.0, 120.0)
    gamma = markov_rate(mobile, 0.0)
    report("Markov decay rate", abs(rate - gamma) / gamma < 0.05,
           f"fit {rate:.5f} vs {gamma:.5f}")

    win = classify_regime_and_windows(ModelParams(J=1.0, Jp=0.5, Delta=3.0,
                                                  Omega=0.2, L=400))
    report("emission window width",
           win.w_plus is not None
           and abs(win.w_plus - math.acos(5.0 - math.sqrt(21.0))) < 1e-6)

    print(f"selfcheck: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 3


class Command(NamedTuple):
    """One subcommand: its name, help line, runner, extra flags, other names, model flags."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], int]
    flags: tuple = ()
    aliases: tuple = ()
    model: tuple = tuple(_MODEL_FLAGS)


_MAP_FLAGS = (
    ("--nk", dict(type=int, default=101, help="emitter-momentum grid size")),
    ("--np", dict(type=int, default=101, help="photon-momentum grid size")),
)
_K_FLAG = ("--K", dict(type=float, required=True, help="total momentum"))
_NO_L = ("J", "Jp", "Delta", "Omega")  # scattering and bound states never read L

COMMANDS = (
    Command("scatter", "single (k_i, p_i) scattering amplitudes", _writes(_scatter), (
        ("--ki", dict(type=float, required=True, help="initial emitter momentum")),
        ("--pi", dict(type=float, required=True, help="initial photon momentum"))), model=_NO_L),
    Command("map-transmission", "transmission and recoil-energy map over (k_i, p_i)",
            _writes(_map), _MAP_FLAGS, ("map-recoil",), model=_NO_L),
    Command("bound-energies", "bound-state bands over K", _writes(_bound_bands), (
        ("--nK", dict(type=int, default=201, help="K-grid size")),), model=_NO_L),
    Command("bound-wavefunction", "bound-state wavefunction at one K",
            _writes(_bound_wavefunction), (
        _K_FLAG,
        ("--branch", dict(choices=("plus", "minus"), default="plus")),
        ("--xmax", dict(type=int, default=50, help="relative-coordinate range"))), model=_NO_L),
    Command("emit-fixed-k", "spontaneous emission at fixed K", _writes(_emit_fixed_k), (
        _K_FLAG,
        ("--tmax", dict(type=float, default=200.0)),
        ("--nt", dict(type=int, default=201, help="time samples")))),
    Command("emit-localized", "emission of an emitter localized at x0",
            _writes(_emit_localized), (
        ("--x0", dict(type=int, default=0, help="initial emitter site")),
        ("--tmax", dict(type=float, default=100.0)),
        ("--nt", dict(type=int, default=51, help="time samples")),
        ("--snapshot", dict(type=float, action="append", default=None,
                            help="time(s) for x-resolved output "
                                 "(repeatable; default tmax)")))),
    Command("windows", "K-selective emission windows", _writes(_windows),
            model=("J", "Jp", "Delta")),
    Command("selfcheck", "run fast internal consistency checks", selfcheck, model=()),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wqed",
        description="Waveguide QED with a quantum-mechanically mobile emitter: "
                    "scattering, bound states, and emission dynamics "
                    "(energies in units of J, momenta in radians).",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd.name, help=cmd.help, aliases=cmd.aliases)
        for flag, kwargs in [_MODEL_FLAGS[m] for m in cmd.model] + [*_RUN_FLAGS, *cmd.flags]:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(run=cmd.run, model=cmd.model)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ParameterError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return 2
    except (BandEdgeSingularity, NoBoundState, NotEmbedded, NumericalFailure, SizeError,
            FloatingPointError) as exc:  # FloatingPointError: numpy's, under _writes' errstate
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: numerical failure: overflow ({exc})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
