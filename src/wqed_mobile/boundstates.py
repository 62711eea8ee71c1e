"""In-gap photon-emitter bound states at fixed total momentum K.

Bound-state energies are the out-of-band roots of the monotonically
increasing pole function

    F(E) = E - E_{K,Delta} - Sigma_K(E),

one root below the band (branch -1) and one above (branch +1), which exist
for every parameter set with Omega > 0.  The excited-state weight follows
from the analytic derivative of the self-energy, u_K^{-2} = 1 - dSigma/dE,
and the photon cloud in the relative coordinate x = x_photon - x_emitter is
a two-sided geometric decay in the inner self-energy pole y_<:

    f(x) = Omega u_K y_<^x / [z(K) (y_< - y_>)]          for x >= 0,
    f(x) = conj(f(-x))                                   for x < 0,

so |f(x)| is even in x while the phase winds by -Arg z(K) per site on the
positive side and +Arg z(K) on the negative side (odd in x; it vanishes for
a static emitter and in the K = 0, pi subspaces).

Root finding is performed in the band-edge offset delta = |E| - 2|z(K)| on a
logarithmic scale, which keeps full precision even when weak coupling pins
the root exponentially close to the band edge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BandEdgeSingularity, NoBoundState, NumericalFailure, ParameterError,
                     check_memory)
from .model import (
    ModelParams,
    band_halfwidth,
    gap_energy,
    momentum_grid,
    z_of_K,
)

#: Acceptable residual |F(E)| relative to max(1, |E|) after polishing.
ROOT_TOL = 1e-12


@dataclass(frozen=True)
class BoundState:
    """One in-gap eigenstate: branch +1 above the band, -1 below.

    edge_offset keeps |energy| - 2|z(K)| at full precision; for weak coupling
    the root sits exponentially close to the band edge, where the rounded
    `energy` alone cannot resolve it.
    """

    branch: int
    K: float
    energy: float
    u: float
    y_in: complex
    loc_length: float
    edge_offset: float


@dataclass(frozen=True)
class WavefunctionField:
    """Relative-coordinate photon amplitudes f(x) for |x| <= x_max."""

    x: np.ndarray
    amp: np.ndarray


def pole_function(params: ModelParams, K: float, E: float) -> float:
    """F(E) = E - E_{K,Delta} - Sigma_K(E), defined for |E| > 2|z(K)|."""
    b = float(band_halfwidth(params, K))
    if abs(E) == b:
        raise BandEdgeSingularity(f"F(E) undefined at the band edge |E| = {b!r}")
    if abs(E) < b:
        raise ParameterError(
            f"F(E) is only defined outside the band (|E| = {abs(E)!r} < 2|z| = {b!r})"
        )
    return _f_of_delta(abs(E) - b, 1 if E > 0 else -1, b,
                       float(gap_energy(params, K)), params.Omega**2)


def _f_of_delta(delta: float, side: int, b: float, e_gap: float, om2: float) -> float:
    """F evaluated at E = side * (b + delta) without band-edge cancellation."""
    sigma = side * om2 / math.sqrt(delta * (delta + 2.0 * b))
    return side * (b + delta) - e_gap - sigma


def _df_dE(delta: float, b: float, om2: float) -> float:
    """F'(E) = 1 - dSigma/dE, valid on both sides of the band."""
    return 1.0 + om2 * (b + delta) / (delta * (delta + 2.0 * b)) ** 1.5


def _resolved_offset(b: float, energy: float, delta: float) -> tuple[float, float]:
    """Offset d = |E| - 2|z| and sqrt(E^2 - 4|z|^2) at the rounded energy E, bit for
    bit; the exact offset delta replaces d where E rounds onto the band edge."""
    e = abs(energy)
    d = e - b if e > b else delta
    return d, math.sqrt(d * (e + b))


def solve_bound_state(params: ModelParams, K: float, branch: int) -> BoundState:
    """Locate the bound state of the requested branch (+1 above, -1 below).

    Bracketed monotone root finding on log(delta) with delta = |E| - 2|z(K)|,
    refined by Newton steps using the analytic F'; the final residual
    satisfies |F(E)| < 1e-12 * max(1, |E|).

    With Omega = 0 the root is the decoupled level E_{K,Delta} if it lies
    out of band on the requested side, otherwise NoBoundState is raised.
    """
    if branch not in (+1, -1):
        raise ParameterError(f"branch must be +1 or -1 (got {branch!r})")
    side = branch
    b = float(band_halfwidth(params, K))
    e_gap = float(gap_energy(params, K))
    om2 = params.Omega**2

    if om2 == 0.0 and side * e_gap <= b:
        raise NoBoundState(
            "Omega = 0 and the decoupled level is not out of band on "
            f"branch {branch:+d} (E_gap = {e_gap!r}, 2|z| = {b!r})"
        )
    g = lambda s: side * _f_of_delta(math.exp(s), side, b, e_gap, om2)

    # Inner bracket end: g -> -inf as delta -> 0; shrink until negative.
    d_lo = 1e-8 * max(1.0, b)
    while g(math.log(d_lo)) >= 0.0:
        d_lo /= 256.0
        if d_lo < 1e-280:
            raise NumericalFailure("could not bracket the bound-state root from below")
    # Outer bracket end: grow geometrically from the coupling scale.
    d_hi = max(params.Omega, 1e-3)
    while g(math.log(d_hi)) <= 0.0:
        d_hi *= 2.0
        if d_hi > 1e12:
            raise NumericalFailure("could not bracket the bound-state root from above")

    # Imported here so that `import wqed_mobile` does not load scipy.
    from scipy.optimize import brentq

    s_root = brentq(g, math.log(d_lo), math.log(d_hi), xtol=1e-14, rtol=8.9e-16,
                    maxiter=200)
    delta = math.exp(s_root)

    # Newton polish in delta; dF/ddelta = side * F'(E) with F' >= 1.
    energy = side * (b + delta)
    for _ in range(8):
        f_val = _f_of_delta(delta, side, b, e_gap, om2)
        if abs(f_val) < ROOT_TOL * max(1.0, abs(energy)):
            break
        step = side * f_val * delta / dg_ds(delta)
        if delta - step <= 0.0:
            step = delta * 0.5
        delta -= step
        energy = side * (b + delta)
    else:
        raise NumericalFailure(
            f"bound-state residual did not reach tolerance at K={K!r}, branch={branch:+d}"
        )

    u = 1.0 / math.sqrt(_df_dE(delta, b, om2))
    d, sq = _resolved_offset(b, energy, delta)
    y_in = -side * 2.0 * complex(z_of_K(params, K)).conjugate() / (abs(energy) + sq)
    # -log|y_<| = log((|E| + sq) / b), free of cancellation at the edge.
    return BoundState(branch=branch, K=float(K), energy=energy, u=u, y_in=y_in,
                      loc_length=1.0 / math.log1p((d + sq) / b), edge_offset=delta)


def _bound_energies(params: ModelParams, K: np.ndarray, side: int) -> np.ndarray:
    """solve_bound_state(params, k, side).energy for every k of K at once.

    The same bracket on s = log delta and the same Newton polish in delta,
    with a bisection-safeguarded Newton iteration on s in place of Brent's
    method; the energies agree with the scalar solver to the tolerance of
    its Brent step.
    """
    # About 32 float arrays over K are alive at once.
    check_memory(K.size * 32 * 8, f"the bound-state solve on {K.size} K points", "reduce nK")
    b = band_halfwidth(params, K)
    e_gap = gap_energy(params, K)
    om2 = params.Omega**2
    if om2 == 0.0 and np.any(side * e_gap <= b):
        raise NoBoundState(
            "Omega = 0 and the decoupled level is not out of band on "
            f"branch {side:+d} at every K")

    def f(d):  # _f_of_delta over arrays
        return side * (b + d) - e_gap - side * om2 / np.sqrt(d * (d + 2.0 * b))

    def g(s):
        return side * f(np.exp(s))

    def dg_ds(d):  # delta F'(E), in a form that does not underflow at tiny delta
        return d + om2 * (b + d) / (np.sqrt(d) * (d + 2.0 * b) ** 1.5)

    lo = np.log(1e-8 * np.maximum(1.0, b))
    while np.any(shrink := g(lo) >= 0.0):
        lo[shrink] -= math.log(256.0)
        if lo.min() < math.log(1e-280):
            raise NumericalFailure("could not bracket the bound-state root from below")
    hi = np.full(K.shape, math.log(max(params.Omega, 1e-3)))
    while np.any(grow := g(hi) <= 0.0):
        hi[grow] += math.log(2.0)
        if hi.max() > math.log(1e12):
            raise NumericalFailure("could not bracket the bound-state root from above")

    s = 0.5 * (lo + hi)
    for _ in range(200):
        gs = g(s)
        lo, hi = np.where(gs < 0.0, s, lo), np.where(gs > 0.0, s, hi)
        step = s - gs / dg_ds(np.exp(s))
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        moving = (gs != 0.0) & (np.abs(step - s) > 1e-14 + 8.9e-16 * np.abs(s))
        s = np.where(gs != 0.0, step, s)
        if not moving.any():
            break
    else:
        raise NumericalFailure("bound-state root search did not converge")

    delta = np.exp(s)
    energy = side * (b + delta)
    for _ in range(8):
        f_val = f(delta)
        open_ = np.abs(f_val) >= ROOT_TOL * np.maximum(1.0, np.abs(energy))
        if not open_.any():
            return energy
        step = side * f_val * delta / dg_ds(delta)
        step = np.where(delta - step <= 0.0, 0.5 * delta, step)
        delta = np.where(open_, delta - step, delta)
        energy = side * (b + delta)
    raise NumericalFailure(f"bound-state residual did not reach tolerance on branch {side:+d}")


def pole_residual(params: ModelParams, bound: BoundState) -> float:
    """|F| at a solved bound state, evaluated in the band-edge offset
    parametrization so the measurement stays exact arbitrarily close to the
    edge (plain pole_function loses precision there to cancellation)."""
    b = float(band_halfwidth(params, bound.K))
    return abs(_f_of_delta(bound.edge_offset, bound.branch, b,
                           float(gap_energy(params, bound.K)), params.Omega**2))


def bound_wavefunctions(params: ModelParams, bound: BoundState, x_max: int
                        ) -> tuple[np.ndarray, WavefunctionField, float]:
    """Momentum and position wavefunctions of a bound state.

    Returns (f_p, field, photon_density):

    * f_p    : real amplitudes Omega u / sqrt(L) / (E - omega_tilde(K, p))
               on the L-point momentum grid;
    * field  : closed-form f(x) for |x| <= x_max, phase odd in x;
    * photon_density : the x-independent photon number
               |Omega u y_<|^2 / (|z(K)|^2 |y_< - y_>|^2 (1 - |y_<|^2)).
    """
    if x_max < 0:
        raise ParameterError(f"x_max must be >= 0 (got {x_max})")
    n_x = 2 * x_max + 1  # about six complex arrays per site, output columns included
    check_memory(n_x * 6 * 16, f"the wavefunction on {n_x} sites", "reduce x_max")
    L = params.L
    z = complex(z_of_K(params, bound.K))
    # E - omega_tilde(K, p) = side edge_offset + 2|z| (side + cos(p + arg z)), the
    # bracket in half-angle form: no cancellation where p sits on the band extremum.
    half = 0.5 * (momentum_grid(L) + cmath.phase(z))
    bracket = np.cos(half) ** 2 if bound.branch > 0 else np.sin(half) ** 2
    f_p = (params.Omega / math.sqrt(L)) * bound.u / (
        bound.branch * (bound.edge_offset + 4.0 * abs(z) * bracket))

    b = float(band_halfwidth(params, bound.K))
    d, sq = _resolved_offset(b, bound.energy, bound.edge_offset)
    y_out = -bound.branch * (abs(bound.energy) + sq) / (2.0 * z)
    x = np.arange(-x_max, x_max + 1)
    # z (y_< - y_>) = branch sq, used only where y_< and y_> round to one value.
    c_plus = params.Omega * bound.u / (z * (bound.y_in - y_out) or bound.branch * sq)
    decay = c_plus * bound.y_in ** np.abs(x)
    amp = np.where(x >= 0, decay, np.conj(decay))
    field = WavefunctionField(x=x, amp=amp)

    # |y_<| = b / (b + d + sq), so 1 - |y_<|^2 has no cancellation.
    density = ((params.Omega * bound.u * b / sq) ** 2
               / ((d + sq) * (2.0 * b + d + sq)))
    return f_p, field, float(density)


@dataclass(frozen=True)
class FlatnessReport:
    """Least-squares fit of E_{K,+} - E_{pi,+} to c2 u^2 + c4 u^4, u = K - pi."""

    c2: float
    c4: float
    half_window: float
    n_points: int


@dataclass(frozen=True)
class BandScan:
    """Bound-state bands over a K grid, plus the flatness fit near K = pi."""

    K: np.ndarray
    e_minus: np.ndarray
    e_plus: np.ndarray
    band_min: np.ndarray
    band_max: np.ndarray
    flatness: FlatnessReport


def flatness_report(params: ModelParams, half_window: float = 0.5,
                    n_points: int = 201) -> FlatnessReport:
    """Quantify quartic flattening of the upper bound band around K = pi.

    c2 and c4 are the least-squares coefficients of
    E_{pi+u,+} - E_{pi,+} = c2 u^2 + c4 u^4 over n_points values of u in
    [-half_window, half_window], not the Taylor coefficients: higher orders
    leak into them, strongly at weak coupling where the band is not
    polynomial over the window.  The Taylor coefficient of u^2 vanishes when
    (E^2 - 4|z(pi)|^2)^{3/2} = 2 J Omega^2 at the K = pi energy E.
    """
    u = np.linspace(-half_window, half_window, n_points)
    e = np.array([solve_bound_state(params, math.pi + ui, +1).energy for ui in u])
    e0 = solve_bound_state(params, math.pi, +1).energy
    basis = np.column_stack([u**2, u**4])
    coef, *_ = np.linalg.lstsq(basis, e - e0, rcond=None)
    return FlatnessReport(c2=float(coef[0]), c4=float(coef[1]),
                          half_window=half_window, n_points=n_points)


def band_scan(params: ModelParams, n_K: int) -> BandScan:
    """Both bound-state branches over an n_K-point K grid in (-pi, pi]."""
    if n_K < 8:
        raise ParameterError(f"n_K must be >= 8 (got {n_K})")
    K = momentum_grid(n_K)
    e_minus = _bound_energies(params, K, -1)
    e_plus = _bound_energies(params, K, +1)
    b = band_halfwidth(params, K)
    return BandScan(K=K, e_minus=e_minus, e_plus=e_plus,
                    band_min=-b, band_max=b, flatness=flatness_report(params))
