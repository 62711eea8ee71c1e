"""Exact single-photon scattering off the mobile emitter.

An incoming photon p_i meeting a ground-state emitter k_i has two outgoing
channels at the same total momentum K_i = k_i + p_i and total energy
omega_tilde(K_i, p_i):

* elastic transmission with amplitude t, photon momentum unchanged;
* inelastic "reflection in the emitter frame" with amplitude r and photon
  momentum p_f2, the second root of the on-shell condition
  omega_tilde(K_i, p_f2) = omega_tilde(K_i, p_i).

With the signed linewidth  Gamma_i = Omega^2 / (2 J sin p_i - 2 J' sin k_i)
and the detuning  Delta_i = omega_tilde(K_i, p_i) - (Delta + xi_{K_i}),

    t = Delta_i / (Delta_i + i Gamma_i),     r = -i Gamma_i / (Delta_i + i Gamma_i),

which satisfy 1 + r = t and |t|^2 + |r|^2 = 1 identically.  When the two
initial group velocities coincide (J sin p_i = J' sin k_i) the linewidth
diverges and the Gamma -> infinity limit t = 0, r = -1 applies; such points
are flagged `degenerate` rather than dropped.
"""

from __future__ import annotations

import itertools
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_memory
from .model import ModelParams, momentum_grid, omega_photon, wrap, xi_emitter

log = logging.getLogger(__name__)

#: |J sin p_i - J' sin k_i| at or below this times J is a velocity degeneracy.
DEGENERACY_TOL = 1e-12

#: On-shell residual of the sign-prefixed arccos root of p_f2, relative to
#: max(J, |energy|), above which the exact second root replaces it.
BRANCH_TOL = 1e-10

#: Points of one kernel call in a sweep, and the bytes a point of the table
#: (11 doubles and a bool) and of a chunk in flight: the kernel's arrays and
#: the previous chunk's output (tracemalloc peak, 331).
_CHUNK_POINTS = 16384
_TABLE_BYTES = 89
_KERNEL_BYTES = 336

#: Column order of the sweep table (fixed external schema).
SWEEP_COLUMNS = (
    "k_i", "p_i", "t_re", "t_im", "r_re", "r_im",
    "T", "R", "p_f2", "k_f2", "dE_qb", "degenerate",
)


@dataclass(frozen=True)
class ScatterOutcome:
    """Scattering amplitudes and kinematics for one (k_i, p_i) pair."""

    t: complex
    r: complex
    p_f2: float
    k_f2: float
    detuning: float
    gamma: float
    degenerate: bool


def _scatter_grid(params: ModelParams, k_i: np.ndarray, p_i: np.ndarray):
    """Vectorized scattering kernel on the grid k_i x p_i (k_i down the rows); returns a
    dict of 2-D arrays.  Functions of k_i or p_i alone are taken once per grid value,
    and the rare degenerate and free points are patched after the plain formula."""
    k = np.asarray(k_i, dtype=float)[:, None]
    p = np.asarray(p_i, dtype=float)
    J, Jp, om2 = params.J, params.Jp, params.Omega**2
    # Overflowing parameters give non-finite columns here, which the caller
    # reports as a numerical failure; numpy need not warn about them first.
    with np.errstate(all="ignore"):
        sin_p, cos_p, sin_k = np.sin(p), np.cos(p), np.sin(k)
        K = k + p
        cos_K, sin_K = np.cos(K), np.sin(K)
        z = np.empty(K.shape, dtype=complex)  # the bits of z_of_K(params, K)
        z.real, z.imag = J + Jp * cos_K, 0.0 - Jp * sin_K
        absz2 = np.abs(z) ** 2
        energy = -2.0 * J * cos_p + xi_emitter(params, K - p)  # omega_tilde(params, K, p)
        detuning = energy - (params.Delta + -2.0 * Jp * cos_K)

        half_vdiff = J * sin_p - Jp * sin_k
        # A decoupled emitter (Omega = 0) never scatters; the velocity-degeneracy
        # limit t=0, r=-1 is the Gamma -> infinity limit and needs Omega > 0.
        small = np.abs(half_vdiff) <= DEGENERACY_TOL * J
        degenerate = small & (om2 > 0.0)
        small = small.ravel().nonzero()[0]  # flat indices
        gamma = om2 / (2.0 * half_vdiff)
        gamma.flat[small] = math.inf if om2 > 0.0 else om2 / 2.0
        # t = detuning / denom and r = -1j gamma / denom, denom = detuning + 1j gamma: each
        # operand is set part by part to the bits of numpy's complex products.
        t, r, denom = np.empty((3, *K.shape), dtype=complex)
        zero = 0.0 * gamma
        t.real, t.imag = detuning, 0.0
        np.add(zero, 0.0, out=r.real)
        np.negative(gamma, out=r.imag)
        np.add(detuning, zero, out=denom.real)
        np.add(0.0, gamma, out=denom.imag)
        t /= denom
        r /= denom
        if small.size and om2 > 0.0:
            t.flat[small], r.flat[small] = 0.0, -1.0
        if np.count_nonzero(gamma) < gamma.size:
            # denom == 0 only when Omega = 0 exactly on resonance: free propagation.
            free = np.flatnonzero((gamma == 0.0) & (detuning == 0.0))
            t.flat[free], r.flat[free] = 1.0, 0.0

        # Inelastic momentum: sign-prefixed arccos, verified on-shell.  Where that
        # fails, and at a velocity degeneracy (p_i at a band extremum, whose
        # limiting second root is the same), take the exact root -p_i - 2 arg z(K).
        vdiff = 2.0 * Jp * sin_k - 2.0 * J * sin_p  # v_emitter(k_i) - v_photon(p_i)
        arg = np.minimum(np.maximum(cos_p - Jp * sin_K * vdiff / absz2, -1.0), 1.0)
        sign = np.where(absz2 * sin_p + vdiff * z.real >= 0.0, 1.0, -1.0)
    p_f2 = sign * np.arccos(arg)
    res = np.abs(omega_photon(params, p_f2) + xi_emitter(params, K - p_f2) - energy)
    flip = res > BRANCH_TOL * np.maximum(J, np.abs(energy))
    exact = (degenerate | flip).ravel().nonzero()[0]
    p_f2 = wrap(p_f2)
    if exact.size:
        p_f2.flat[exact] = wrap(-p[exact % p.size] - 2.0 * np.angle(z.flat[exact]))
    k_f2 = wrap(K - p_f2)

    return {
        "t_re": t.real,
        "t_im": t.imag,
        "r_re": r.real,
        "r_im": r.imag,
        "T": np.abs(t) ** 2,
        "R": np.abs(r) ** 2,
        "p_f2": p_f2,
        "k_f2": k_f2,
        "dE_qb": xi_emitter(params, k_f2) - xi_emitter(params, k),
        "degenerate": degenerate,
        "detuning": detuning,
        "gamma": gamma,
        "flipped": flip & ~degenerate,
    }


def _log_flips(n_bad: int) -> None:
    if n_bad:
        log.warning("arccos sign prefactor failed on-shell check at %d point(s); "
                    "selected the exact second root", n_bad)


def scatter(params: ModelParams, k_i: float, p_i: float) -> ScatterOutcome:
    """Scattering amplitudes for a single initial pair (k_i, p_i); warns at a
    velocity degeneracy, where it returns the limit t = 0, r = -1."""
    out = {name: column.item() for name, column
           in _scatter_grid(params, np.array([k_i]), np.array([p_i])).items()}
    _log_flips(int(out["flipped"]))
    degenerate = bool(out["degenerate"])
    if degenerate:
        warnings.warn(
            "initial photon and emitter group velocities are degenerate; "
            "returning the full-reflection limit t=0, r=-1",
            stacklevel=2,
        )
    return ScatterOutcome(
        t=complex(out["t_re"], out["t_im"]),
        r=complex(out["r_re"], out["r_im"]),
        p_f2=out["p_f2"],
        k_f2=out["k_f2"],
        detuning=out["detuning"],
        gamma=out["gamma"],
        degenerate=degenerate,
    )


def sweep_scattering(params: ModelParams, n_k: int, n_p: int) -> dict[str, np.ndarray]:
    """Scattering table over the (k_i, p_i) grid, row-major with p_i fastest.

    Grid points follow the momentum_grid convention (-pi + 2*pi*j/n), which
    is closed under negation modulo 2*pi.  Degenerate points are flagged in
    the `degenerate` column, never dropped, so the table stays rectangular.
    Returns a dict of flat arrays keyed by SWEEP_COLUMNS.  The kernel runs
    on blocks of whole k_i rows, about _CHUNK_POINTS points each (a row
    longer than that is cut into blocks of _CHUNK_POINTS columns), and writes
    into 2-D views of the preallocated table; each point depends on its own
    (k_i, p_i) alone, so the columns are those of one call on the grid.
    """
    if n_k < 2 or n_p < 2:
        raise ParameterError(f"sweep grid sizes must be >= 2 (got {n_k} x {n_p})")
    n = n_k * n_p
    check_memory(n * _TABLE_BYTES + _CHUNK_POINTS * _KERNEL_BYTES,
                 f"the scattering sweep on {n_k} x {n_p} points", "reduce nk or np")
    k, p = momentum_grid(n_k), momentum_grid(n_p)
    table = {"k_i": np.repeat(k, n_p), "p_i": np.tile(p, n_k)}
    table.update((name, np.empty(n, dtype=bool if name == "degenerate" else float))
                 for name in SWEEP_COLUMNS[2:])
    grid = {name: table[name].reshape(n_k, n_p) for name in SWEEP_COLUMNS[2:]}
    rows, cols = max(1, _CHUNK_POINTS // n_p), min(n_p, _CHUNK_POINTS)
    n_flipped = 0
    for r, c in itertools.product(range(0, n_k, rows), range(0, n_p, cols)):
        block = slice(r, r + rows), slice(c, c + cols)
        out = _scatter_grid(params, k[block[0]], p[block[1]])
        for name, column in grid.items():
            column[block] = out[name]
        n_flipped += int(np.count_nonzero(out["flipped"]))
    _log_flips(n_flipped)
    return table
