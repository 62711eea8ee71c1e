"""In-gap photon-emitter bound states at fixed total momentum K.

Bound-state energies are the out-of-band roots of the monotonically
increasing pole function

    F(E) = E - E_{K,Delta} - Sigma_K(E),

one root below the band (branch -1) and one above (branch +1), which exist
for every parameter set with Omega > 0.  The excited-state weight follows
from the analytic derivative of the self-energy, u_K^{-2} = 1 - dSigma/dE;
F and this slope are written in the band-edge offset delta = |E| - 2|z(K)|
here, not through model.self_energy.  The photon cloud in the relative
coordinate x = x_photon - x_emitter is a two-sided geometric decay in the
inner self-energy pole y_<, with no momentum grid and at any ring size L:

    f(x) = Omega u_K y_<^x / [z(K) (y_< - y_>)]          for x >= 0,
    f(x) = conj(f(-x))                                   for x < 0,

so |f(x)| is even in x while the phase winds by -Arg z(K) per site on the
positive side and +Arg z(K) on the negative side (odd in x; it vanishes for
a static emitter and in the K = 0, pi subspaces).

One array solver finds the roots for one K, a K grid and the flatness fit:
Brent's method, element by element, in the band-edge offset delta = |E| -
2|z(K)| on a logarithmic scale, which keeps full precision even when weak
coupling pins the root exponentially close to the band edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoBoundState, NumericalFailure, ParameterError, check_memory
from .model import (
    ModelParams,
    band_halfwidth,
    gap_energy,
    momentum_grid,
    z_of_K,
)

#: Acceptable residual |F(E)| relative to max(1, |E|, |E_{K,Delta}|) after polishing.
ROOT_TOL = 1e-12

#: Smallest band-edge offset the bracket of a root reaches; below it the solve fails.
_OFFSET_FLOOR = 1e-280

FLATNESS_HALF_WINDOW, FLATNESS_N_POINTS = 0.5, 201  # flatness_report's window in K - pi


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


def _f_of_delta(delta, side: int, b, e_gap, om2: float):
    """F at E = side * (b + delta) without band-edge cancellation, on floats or arrays."""
    sigma = side * om2 / np.sqrt(delta * (delta + 2.0 * b))
    return side * (b + delta) - e_gap - sigma


def _slope(delta, b, om2: float):
    """delta F'(E) with F' = 1 - dSigma/dE >= 1 on both sides of the band, in a form
    that does not underflow at tiny delta."""
    return delta + om2 * (b + delta) / (np.sqrt(delta) * (delta + 2.0 * b) ** 1.5)


def _resolved_offset(b: float, energy: float, delta: float) -> tuple[float, float]:
    """Offset d = |E| - 2|z| and sqrt(E^2 - 4|z|^2) at the rounded energy E, bit for
    bit; the exact offset delta replaces d where E rounds onto the band edge."""
    e = abs(energy)
    d = e - b if e > b else delta
    return d, math.sqrt(d * (e + b))


def solve_bound_state(params: ModelParams, K: float, branch: int) -> BoundState:
    """Locate the bound state of the requested branch (+1 above, -1 below).

    The root is the one `_bound_offsets` finds at this K: Brent's method on
    log(delta) with delta = |E| - 2|z(K)|, then Newton steps in delta until
    |F(E)| < 1e-12 * max(1, |E|, |E_{K,Delta}|).

    With Omega = 0 the root is the decoupled level E_{K,Delta} if it lies
    out of band on the requested side, otherwise NoBoundState is raised.
    """
    if branch not in (+1, -1):
        raise ParameterError(f"branch must be +1 or -1 (got {branch!r})")
    delta = float(_bound_offsets(params, np.array([float(K)]), branch)[0])
    b = float(band_halfwidth(params, K))
    energy = branch * (b + delta)
    u = math.sqrt(delta / _slope(delta, b, params.Omega**2))
    d, sq = _resolved_offset(b, energy, delta)
    y_in = -branch * 2.0 * complex(z_of_K(params, K)).conjugate() / (abs(energy) + sq)
    # -log|y_<| = log((|E| + sq) / b), free of cancellation at the edge.
    return BoundState(branch=branch, K=float(K), energy=energy, u=u, y_in=y_in,
                      loc_length=1.0 / math.log1p((d + sq) / b), edge_offset=delta)


# numpy's SIMD exp/log differ from libm's in the last bit (AVX-512: exp on 4.6 % of inputs).
def _libm(fn, x):
    """fn (math.exp or math.log) applied to the array x element by element."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _bound_offsets(params: ModelParams, K: np.ndarray, side: int) -> np.ndarray:
    """Band-edge offsets delta = |E| - 2|z(k)| of the branch-`side` bound state at
    every k of the array K: each root bracketed in delta, found by `_brent` on
    s = log delta, and polished by Newton steps in delta until |F| < ROOT_TOL *
    max(1, |E|, |E_{K,Delta}|), since F's terms and their rounding reach |E_{K,Delta}|.
    """
    # About 32 float arrays over K are alive at once.
    check_memory(K.size * 32 * 8, f"the bound-state solve on {K.size} K points", "reduce nK")
    b = band_halfwidth(params, K)
    e_gap = gap_energy(params, K)
    om2 = params.Omega**2

    def where(k):  # the branch and the K point k, for a message
        return (f"on branch {side:+d} at K = {float(K[k])!r} (E_gap = "
                f"{float(e_gap[k])!r}, 2|z| = {float(b[k])!r})")

    if om2 == 0.0 and (inside := side * e_gap <= b).any():
        k = inside.argmax()
        if params.Omega > 0.0:  # the root's offset ~ Omega^4 is far below a double's reach
            raise NumericalFailure(f"Omega = {params.Omega!r} > 0, but Omega^2 underflows "
                                   f"to 0, so the bound state {where(k)} is not resolved")
        raise NoBoundState(f"Omega = 0 and the decoupled level is not out of band {where(k)}")

    def g(s, i):  # side * F at delta = e^s for the K points i, increasing in s
        return side * _f_of_delta(_libm(math.exp, s), side, b[i], e_gap[i], om2)

    # Inner bracket end: g -> -inf as delta -> 0; shrink until negative.
    every = np.arange(K.size)
    d_lo = 1e-8 * np.maximum(1.0, b)
    g_lo = g(_libm(math.log, d_lo), every)
    while (i := np.flatnonzero(g_lo >= 0.0)).size:
        d_lo[i] /= 256.0
        if d_lo[i].min() < _OFFSET_FLOOR:
            k = i[np.argmin(d_lo[i])]
            raise NumericalFailure(
                f"could not bracket the bound-state root from below {where(k)}: at "
                f"Omega = {params.Omega!r} its band-edge offset lies below the "
                f"{_OFFSET_FLOOR!r} floor of the bracket")
        g_lo[i] = g(_libm(math.log, d_lo[i]), i)
    # Outer bracket end: grow geometrically from the coupling scale.
    d_hi = np.full(K.shape, max(params.Omega, 1e-3))
    g_hi = g(_libm(math.log, d_hi), every)
    while (i := np.flatnonzero(g_hi <= 0.0)).size:
        d_hi[i] *= 2.0
        if d_hi[i].max() > 1e12:
            raise NumericalFailure("could not bracket the bound-state root from above")
        g_hi[i] = g(_libm(math.log, d_hi[i]), i)

    s = _brent(g, _libm(math.log, d_lo), _libm(math.log, d_hi), g_lo, g_hi)
    delta = _libm(math.exp, s)
    scale = np.maximum(1.0, np.abs(e_gap))
    for _ in range(8):
        f_val = _f_of_delta(delta, side, b, e_gap, om2)
        open_ = ~(np.abs(f_val) < ROOT_TOL * np.maximum(scale, b + delta))
        if not open_.any():
            return delta
        step = np.where(open_, side * f_val * delta / _slope(delta, b, om2), 0.0)
        delta = np.where(delta - step <= 0.0, 0.5 * delta, delta - step)
    raise NumericalFailure(f"bound-state residual did not reach tolerance on branch {side:+d}")


def _brent(f, xpre, xcur, fpre, fcur):
    """Roots of f(x, i) = 0, f evaluated at x for the indices i, each bracketed by
    xpre[i] and xcur[i] with f values fpre[i] < 0 < fcur[i].

    Brent's method (Brent 1973, Algorithms for Minimization Without Derivatives,
    ch. 4) with the steps of scipy's scalar Brent solver in the same order, element
    by element: every root has its bits at xtol 1e-14, rtol 8.9e-16, maxiter 200.
    """
    root = np.empty_like(xcur)
    i = np.arange(xcur.size)
    xblk = fblk = spre = scur = np.zeros_like(xcur)
    # Both trial steps are formed everywhere; each element keeps the one Brent takes.
    with np.errstate(all="ignore"):
        for _ in range(200):
            # fpre != 0 here, and fcur = 0 ends the iteration whether or not it flips.
            flip = np.signbit(fpre) != np.signbit(fcur)
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            tol = (1e-14 + 8.9e-16 * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = (fcur == 0.0) | (np.abs(sbis) < tol)
            if done.any():
                root[i[done]] = xcur[done]
                if done.all():
                    return root
                i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, tol, sbis = (
                    a[~done] for a in (i, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                                       tol, sbis))
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            short = ((np.abs(spre) > tol) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - tol)))
            spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > tol, scur, np.where(sbis > 0, tol, -tol))
            fcur = f(xcur, i)
    raise NumericalFailure("bound-state root search did not converge")


def bound_wavefunctions(params: ModelParams, bound: BoundState, x_max: int
                        ) -> tuple[WavefunctionField, float]:
    """Position wavefunction of a bound state.

    Returns (field, photon_density):

    * field  : closed-form f(x) for |x| <= x_max, phase odd in x;
    * photon_density : the x-independent photon number
               |Omega u y_<|^2 / (|z(K)|^2 |y_< - y_>|^2 (1 - |y_<|^2)).
    """
    if x_max < 0:
        raise ParameterError(f"x_max must be >= 0 (got {x_max})")
    n_x = 2 * x_max + 1  # x, x >= 0 and three complex arrays: 57 B a site at the peak
    check_memory(n_x * 57, f"the wavefunction on {n_x} sites", "reduce x_max")
    z = complex(z_of_K(params, bound.K))
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
    return field, float(density)


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


def flatness_report(params: ModelParams) -> FlatnessReport:
    """Quantify quartic flattening of the upper bound band around K = pi.

    c2 and c4 are the least-squares coefficients of
    E_{pi+u,+} - E_{pi,+} = c2 u^2 + c4 u^4 over FLATNESS_N_POINTS values of u
    in [-FLATNESS_HALF_WINDOW, FLATNESS_HALF_WINDOW], not the Taylor ones: higher orders
    leak into them, strongly at weak coupling where the band is not
    polynomial over the window.  The Taylor coefficient of u^2 vanishes when
    (E^2 - 4|z(pi)|^2)^{3/2} = 2 J Omega^2 at the K = pi energy E.
    """
    u = np.linspace(-FLATNESS_HALF_WINDOW, FLATNESS_HALF_WINDOW, FLATNESS_N_POINTS)
    K = math.pi + np.concatenate(([0.0], u))
    e = band_halfwidth(params, K) + _bound_offsets(params, K, +1)
    basis = np.column_stack([u**2, u**4])
    coef, *_ = np.linalg.lstsq(basis, e[1:] - e[0], rcond=None)
    return FlatnessReport(c2=float(coef[0]), c4=float(coef[1]),
                          half_window=FLATNESS_HALF_WINDOW, n_points=FLATNESS_N_POINTS)


def band_scan(params: ModelParams, n_K: int) -> BandScan:
    """Both bound-state branches over an n_K-point K grid in (-pi, pi]."""
    if n_K < 8:
        raise ParameterError(f"n_K must be >= 8 (got {n_K})")
    K = momentum_grid(n_K)
    b = band_halfwidth(params, K)
    e_minus = -(b + _bound_offsets(params, K, -1))
    e_plus = b + _bound_offsets(params, K, +1)
    return BandScan(K=K, e_minus=e_minus, e_plus=e_plus,
                    band_min=-b, band_max=b, flatness=flatness_report(params))
