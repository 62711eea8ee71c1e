"""Time evolution in the single-excitation sector.

Total momentum is conserved, so the dynamics splits into independent
(L+1) x (L+1) blocks, one per total momentum K: the excited emitter |K> at
energy E_{K,Delta} coupled with strength Omega/sqrt(L) to the L hybrid
photon+recoil modes |p>_K at energies omega_tilde(K, p).  Each block is an
arrowhead matrix, evolved exactly from its eigenpairs: the eigenvalues are
the roots of the finite-L secular equation, one per interval between the
sorted poles (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15, 1266 (1994)),
whose sum over the even ring has a closed form, the finite-ring lattice
Green's function (Economou, Green's Functions in Quantum Physics).  So the
eigenvalues cost O(L) per block, and only phi's product with the O(L^2)
matrix 1 / (E_n - pole), which is formed a column panel at a time in one
reused buffer of fixed size.  Every block starts from the excited emitter
with the field empty.  Each phase w_n exp(-iE_n t) is evaluated once, in
psi_e's rows, and phi reads those rows at its snapshots: a row is turned by
the rounding of the product E t, which Veltkamp's split and Dekker's
TwoProduct give exactly in doubles, or stepped by exp(-iE dt) from the row
before over a recurring exact dt.

An emitter localized at site x0 is the uniform superposition
c_K = e^{i K x0} / sqrt(L) of the blocks' excited states; position-space
observables are assembled from the per-block trajectories with discrete
Fourier transforms on the (L-even, hence closed) momentum grid.  Block -K
is block K with p -> -p, so such a run solves L/2 + 1 blocks (one at J' = 0):
their roots together, about 4096 at a time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NotEmbedded,
    NumericalFailure,
    ParameterError,
    check_memory,
)
from .model import (
    ModelParams,
    band_halfwidth,
    gap_energy,
    grid_add_index,
    momentum_grid,
    omega_tilde,
    self_energy,
    wrap,
    z_of_K,
)


def resolve_threads(requested: int | None = None) -> int:
    """The --threads request, else the CPU count; the CLI echoes it, but K blocks
    evolve in one loop."""
    return max(1, requested or os.cpu_count() or 1)


def block_hamiltonian(params: ModelParams, K: float) -> np.ndarray:
    """Dense real-symmetric block at total momentum K.

    Index 0 is the excited emitter |K>; indices 1..L are the photon modes
    |p_n>_K in momentum_grid order.
    """
    L = params.L
    h = np.zeros((L + 1, L + 1))
    h[0, 0] = gap_energy(params, K)
    np.fill_diagonal(h[1:, 1:], omega_tilde(params, K, momentum_grid(L)))
    h[0, 1:] = h[1:, 0] = params.Omega / math.sqrt(L)
    return h


def _time_index(times: np.ndarray, t: float, what: str = "sampled times") -> int:
    """Index of the sampled time t in a trajectory's `times`."""
    i = int(np.argmin(np.abs(times - t))) if times.size else 0
    if not (times.size and abs(times[i] - t) <= 1e-12 * max(1.0, abs(times[i]))):
        raise ParameterError(f"t = {float(t)!r} is not one of the {what}")  # also NaN, inf
    return i


def _check_block_budget(L: int, n_blocks: int, n_times: int, n_snapshots: int):
    # A chunk's ~900 doubles a root (~64 arrays, 8 step factors, 64 rows of phases) and its
    # phase rows at the snapshots (16 bytes a root and snapshot), the panel buffer (which
    # position_observables' panels later fit in), ~400 doubles a row BLAS packs, one block's
    # phi and temporaries (32 bytes a row and snapshot by tracemalloc, 48 charged), all output.
    roots = min(n_blocks, max(1, _CHUNK_ROOTS // (L + 1))) * (L + 1)
    check_memory(8 * roots * (900 + 2 * n_snapshots) + _PANEL_BYTES
                 + 8 * (L + 1) * (400 + 6 * n_snapshots)
                 + 16 * n_blocks * (n_times + n_snapshots * L),
                 "K-block work", "reduce L, the sample count or the snapshots")


@dataclass(frozen=True)
class KBlockTrajectory:
    """Exact block evolution sampled at `times` (psi_e: (nt,), phi: (nt, L))."""

    times: np.ndarray
    psi_e: np.ndarray
    phi: np.ndarray

    def norms(self) -> np.ndarray:
        return np.abs(self.psi_e) ** 2 + _sum_abs2(self.phi)


def _sum_abs2(a: np.ndarray) -> np.ndarray:
    """sum |a|^2 over the last axis, from two real dot products per row: no |a|^2 array."""
    return (np.einsum("...j,...j->...", a.real, a.real)
            + np.einsum("...j,...j->...", a.imag, a.imag))


_EPS = np.finfo(float).eps
_CHUNK_ROOTS = 4096  # roots per batched secular solve: whole blocks, at least one
_PANEL_BYTES = 1 << 21  # the reused buffer of a column panel of 1 / (E_n - pole)


@dataclass(frozen=True)
class _BlockModes:
    """Eigenpairs of one K block.

    Photon poles that coincide (to within rounding) form one group.  Within a
    group only the uniform combination couples to the emitter; the rest are
    dark states at the group's pole.  When the coupling rounds to nothing
    every group is dark.  The bright groups and the emitter span the
    eigenstates n, with emitter amplitude sqrt(w_n) and photon amplitude
    g sqrt(w_n) / (E_n - pole) on every member of a bright group.  Over
    (state n, bright group j), E_n - pole_j is (D_o[n] - D[j]) + tau[n],
    except at the entries `near` (rows, columns, values; in column order),
    which exact angles resolve.  Dark states have no emitter amplitude, so
    the excited emitter never populates them.
    """

    coupling: float
    group: np.ndarray
    pole: np.ndarray
    bright: np.ndarray
    energy: np.ndarray
    weight: np.ndarray
    D_o: np.ndarray
    D: np.ndarray
    tau: np.ndarray
    near: tuple


class _Ring(NamedTuple):
    b: float
    ell: float
    ell_c: float
    group: np.ndarray
    X: np.ndarray | None = None
    w: np.ndarray | None = None
    gap: np.ndarray | None = None
    rank: np.ndarray | None = None


def _ring(params: ModelParams, K: float, tol: float) -> _Ring:
    """The poles of the K block in X = L alpha / 2, where E = -2b cos alpha.

    omega_tilde(K, p) = -2b cos(p + phi) with b = |z(K)| and phi = arg z(K),
    so the even grid puts the poles on two families X = pi j + ell/2 and
    pi j - ell/2, with ell = L phi mod 2 pi folded into [0, pi].  Families
    within `tol` in energy merge into ell = 0 (J' = 0, K = 0, K = pi) or
    ell = pi (J' = J at grid K); a band within it is one pole.  `group` is
    each grid momentum's pole, in energy order; per pole, X, the offset w in
    [-pi/2, pi/2] that puts the other family at x = -w mod pi about it, the
    gap to the pole below (to the band edge for the first), and its rank r
    among the L grid poles: X = ell/2 + (r // 2) ell + ((r + 1) // 2) ell_c.
    """
    L = params.L
    z = complex(z_of_K(params, K))
    b = abs(z)
    if 4 * b <= tol:
        return _Ring(b, 0.0, math.pi, np.zeros(L, dtype=np.intp))
    v = L * math.atan2(z.imag, z.real) / (2 * math.pi)
    d = v - round(v)  # p + phi = 2 pi (i + d) / L with i integer; |d| is exact
    ell, ell_c = 2 * math.pi * abs(d), math.pi * (1 - 2 * abs(d))
    if 4 * b * min(ell, ell_c) <= tol * L:
        ell, ell_c = (0.0, math.pi) if ell < ell_c else (math.pi, 0.0)
    i = ((1 if d >= 0 else -1) * (np.arange(L) + round(v))) % L - L // 2  # X = pi |i + |d||
    k = np.where(i >= 0, 2 * i, -2 * i - 1)  # each grid momentum's rank in energy
    group = (k + 1) // 2 if ell == 0 else k // 2 if ell_c == 0 else k
    rank = np.flatnonzero(np.diff(np.sort(group), prepend=-1))  # each pole's lowest rank
    X = 0.5 * ell + rank // 2 * ell + (rank + 1) // 2 * ell_c
    even = rank % 2 == 0
    w = np.where(even, 1.0, -1.0) * (ell if ell <= 0.5 * math.pi else -ell_c)
    gap = np.where(even, ell, ell_c)
    gap[0] = X[0]
    return _Ring(b, ell, ell_c, group, X, w, gap, rank)


def _ring_sum_in_band(b, L: int, X, w, x):
    """The secular sum S = (1/L) sum_p 1/(E - omega_tilde(K, p)) in the band,
    S = [cot x + cot(x + w)] / (4b sin alpha) at L alpha / 2 = X + x, with x
    from a pole X of one family and x + w from the other.  Returns S, -dS/dx,
    its part from the poles at x = 0, the rounding scale of S (each cotangent
    with its argument's rounding) and sin alpha."""
    xw = x + w
    s1, s2 = np.sin(x), np.sin(xw)
    cot1, cot2 = np.cos(x) / s1, np.cos(xw) / s2
    csc1, csc2 = 1 / (s1 * s1), 1 / (s2 * s2)
    alpha = (2 / L) * (X + x)
    sa = np.sin(alpha)
    den = 4 * b * sa
    S = (cot1 + cot2) / den
    slope = (csc1 + csc2 + (cot1 + cot2) * np.cos(alpha) * (2 / L) / sa) / den
    near = np.where(w == 0, csc1 + csc2, csc1) / den
    scale = (np.abs(cot1) + np.abs(cot2) + np.abs(x) * csc1 + np.abs(xw) * csc2) / den
    return S, slope, near, scale, sa


def _ring_sum_below(b, L: int, sin2, kappa):
    """The secular sum S, dS/dkappa and s at E = -2b cosh kappa below the band,
    S = (1 - q^2) / (s [(1 - q)^2 + 4 q sin2]), q = e^{-L kappa}, sin2 = sin^2(ell/2):
    the infinite ring's 1/s, s = -sqrt(E^2 - 4b^2), times the finite ring's."""
    q, e1, e2 = np.exp(-L * kappa), np.expm1(-L * kappa), np.expm1(-2 * L * kappa)
    den = e1 * e1 + 4 * q * sin2
    s = -2 * b * np.sinh(kappa)
    S = -e2 / (den * s)
    dF = 2 * L * q * (q * den + e2 * (1 - q - 2 * sin2)) / (den * den)
    return S, (dF + S * 2 * b * np.cosh(kappa)) / s, s


def _chunk_modes(params: ModelParams, Ks):
    """The _BlockModes of each K block in turn, without forming the matrix, their
    secular roots solved in one batch."""
    L, g = params.L, params.Omega / math.sqrt(params.L)
    tol = 32 * _EPS * (params.J + params.Jp)  # exact degeneracies round apart by ~10 eps
    blocks = []
    for K in Ks:
        ring = _ring(params, K, tol)
        size = np.bincount(ring.group)
        pole = np.bincount(ring.group, weights=omega_tilde(params, K, momentum_grid(L))) / size
        bright = np.full(size.size, g * math.sqrt(size.max()) > tol)
        blocks.append((pole, bright, (ring, pole[bright], size[bright].astype(float),
                                      float(gap_energy(params, K)))))
    solved = _secular_roots([h for _, _, h in blocks if h[1].size >= 2], L, g * g)
    no_near = (np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)
    for pole, bright, (ring, P, M, a) in blocks:
        if P.size >= 2:
            roots = next(solved)
        elif P.size == 0:  # no bright pole
            roots = np.array([a]), np.ones(1), np.zeros(1), np.empty(0), np.zeros(1), no_near
        else:  # a band narrower than rounding: one pole, E - P = tau
            d, s2 = P[0] - a, g * g * M[0]
            t1 = -0.5 * (d + math.copysign(math.hypot(d, 2 * math.sqrt(s2)), d))
            tau = np.sort([t1, -s2 / t1])
            c = np.maximum(np.abs(tau), math.sqrt(s2))  # tau * tau overflows past 1e154
            roots = (P[0] + tau, (tau / c) ** 2 / ((tau / c) ** 2 + s2 / c / c), np.zeros(2),
                     np.zeros(1), tau, no_near)
        yield _BlockModes(g, ring.group, pole, bright, *roots)


def _secular_roots(blocks, L: int, g2: float):
    """Eigenvalues E_n, emitter weights w_n and the terms D_o, D, tau, near of
    E_n - P (see _BlockModes) of the arrowhead matrices (ring, P, M, a) with
    emitter level a and nb >= 2 poles P of multiplicity M, block by block.

    The n-th root of h(E) = g2 sum_j M_j / (E - P_j) - (E - a) lies in the
    n-th interval of the sorted poles, the first below and the last above
    them; the sum costs O(1) (_ring_sum_in_band, _ring_sum_below).  A root in
    the upper half is solved in the mirror (E, a, P) -> (-E, -a, -P), which
    has the same poles.  The interval's midpoint picks the root's origin pole;
    the root is held as x = L (alpha - alpha_o) / 2 about it (below the band
    as -kappa), so that E - P_j = (P_o - P_j) + tau with
    tau = 4b sin(alpha_o + delta/2) sin(delta/2) keeps its relative accuracy.
    Weights are 1 / (-dh/dE), for the outer two from their rows of 1 / (E_n - P).  All
    roots converge together, each a row with its block's b, sin2, edge, a, c_ref.
    """
    Om2, nb = g2 * L, np.array([P.size for _, P, _, _ in blocks])
    first = np.cumsum(nb) - nb  # each block's first pole
    start = first + np.arange(nb.size)  # and first row
    X, w, gap, rank, P = (np.concatenate(v) for v in zip(*[
        (ring.X, ring.w, ring.gap, ring.rank, P) for ring, P, _, _ in blocks]))
    b, ell, ell_c, sin2, edge, a = np.array([  # edge: pole 0 above the edge
        (ring.b, ring.ell, ring.ell_c, math.sin(0.5 * ring.ell) ** 2,
         4 * ring.b * math.sin(ring.ell / (2 * L)) ** 2, a) for ring, _, _, a in blocks]).T
    # The closed form's poles, shifted onto the given pole nearest a: offsets
    # D from it by exact angles, so that the roots share one matrix.
    ref = first + [np.argmin(np.abs(p - a)) for _, p, _, a in blocks]
    dX = ((rank // 2 - np.repeat(rank[ref] // 2, nb)) * np.repeat(ell, nb)
          + ((rank + 1) // 2 - np.repeat((rank[ref] + 1) // 2, nb)) * np.repeat(ell_c, nb))
    D = 4 * np.repeat(b, nb) * np.sin((X + np.repeat(X[ref], nb)) / L) * np.sin(dX / L)
    c_ref, P = P[ref] - a, np.repeat(P[ref], nb) + D
    # One row per root, with its block's scalars, first pole `off` and size.
    b, sin2, edge, a, c_ref, off, nbr = (
        np.repeat(v, nb + 1) for v in (b, sin2, edge, a, c_ref, first, nb))
    n = np.arange(off.size) - np.repeat(start, nb + 1)
    mirror = np.concatenate([np.concatenate(([False], ring.X[:-1] + ring.X[1:] > 0.5 * math.pi * L,
                                             [True])) for ring, _, _, _ in blocks])
    m, nf = np.where(mirror, -1.0, 1.0), np.where(mirror, nbr - n, n)  # nf: interval in frame
    inner = nf > 0
    # An outer root is in the band iff h > 0 at the edge; below it, it is held
    # as t = -kappa, E = -2b cosh kappa, down to min(a, -2b) - 2 Omega, past
    # the Weyl bound min(a, P) - Omega.
    with np.errstate(divide="ignore"):  # sin2 = 0: the edge is a pole
        band = inner | (2 * b + m * a - Om2 * L / (4 * b * sin2) > 0)
    kappa = np.arccosh((np.maximum(-m * a, 2 * b) + 2 * math.sqrt(Om2)) / (2 * b))
    k = nf - inner  # the origin pole in the frame: the lower one first
    t = np.where(band, np.where(inner, 0.5, -0.5) * gap[off + nf], -0.5 * kappa)

    def origin(k):  # the origin's index, X, w and m (P - a) per root
        o = np.where(mirror, nbr - 1 - k, k)
        return o, X[off + k], w[off + k], m * (c_ref + D[off + o])

    def evaluate(rows, t):  # h, its rounding bound, -dh/dt at the origin and in all, w
        ib = band[rows]
        out = np.empty((5, rows.size))
        r, x = rows[ib], t[ib]
        Xr, cb, br = X_o[r], c_o[r], b[r]
        S, slope, near, scale, sa = _ring_sum_in_band(br, L, Xr, w_o[r], x)
        tau = 4 * br * np.sin((2 * Xr + x) / L) * np.sin(x / L)
        slope = Om2 * slope + 4 * br * sa / L
        out[:, ib] = (Om2 * S - cb - tau, Om2 * scale + np.abs(cb) + np.abs(tau),
                      Om2 * near, slope, 4 * br * sa / (L * slope))
        if not ib.all():
            x, r = -t[~ib], rows[~ib]
            S, dS, s = _ring_sum_below(b[r], L, sin2[r], x)
            tau = -4 * b[r] * np.sinh(0.5 * x) ** 2 - edge[r]
            out[:, ~ib] = (Om2 * S - c_o[r] - tau, Om2 * np.abs(S) + np.abs(c_o[r]) + np.abs(tau),
                           Om2 / (2 * b[r] * x * x), Om2 * dS - s, -s / (Om2 * dS - s))
        out[1] *= 8 * _EPS
        return out

    o, X_o, w_o, c_o = origin(k)
    first_eval = evaluate(np.arange(t.size), t)
    h = first_eval[0]
    lo = np.where(h > 0, t, np.where(band, np.where(inner, 0.0, -gap[off]), -kappa))
    hi = np.where(inner | (h < 0), t, 0.0)
    # A root above its midpoint is held about the upper pole, whose rounding
    # may flip the sign of h there; so its bracket reopens to the lower pole.
    up = inner & (h > 0)
    k[up] += 1
    t[up] -= gap[(off + nf)[up]]
    lo[up], hi[up] = -gap[(off + nf)[up]], 0.0
    o, X_o, w_o, c_o = origin(k)
    t, weight = _iterate(evaluate, t, lo, hi, np.sign(t), first_eval)
    tau = m * np.where(band, 4 * b * np.sin((2 * X_o + t) / L) * np.sin(t / L),
                       -4 * b * np.sinh(0.5 * t) ** 2 - edge)
    energy, D_o = P[off + o] + tau, D[off + o]
    # The origin's neighbours from angles, as their rounded D may not resolve them:
    # E_n - P at (root, pole of the chunk), in pole order and so block by block.
    near = []
    for j in (-1, 1):
        r = np.flatnonzero((k + j >= 0) & (k + j < nbr))
        dx = t[r] + (gap[off[r] + k[r]] if j < 0 else -gap[off[r] + k[r] + 1])  # from the neighbour
        near.append((r, off[r] + o[r] + m[r].astype(int) * j, m[r] * np.where(
            band[r], 4 * b[r] * np.sin((2 * (X_o[r] + t[r]) - dx) / L) * np.sin(dx / L),
            -4 * b[r] * (np.sinh(0.5 * t[r]) ** 2 + np.sin(X[off[r] + k[r] + j] / L) ** 2))))
    row, col, val = (np.concatenate(v) for v in zip(*near))
    order = np.argsort(col, kind="stable")
    row, col, val = row[order], col[order], val[order]
    edge = np.isin(row, np.concatenate((start, start + nb)))  # a block's first or last row
    cut = np.searchsorted(col, np.append(first, nb.sum()))
    for (_, _, M, _), p, r0, r1, c0, c1 in zip(blocks, first, start, start + nb + 1, cut, cut[1:]):
        rows, ends, D_b = slice(r0, r1), [r0, r1 - 1], D[p:p + M.size]
        r, c, v, e = row[c0:c1] - r0, col[c0:c1] - p, val[c0:c1], edge[c0:c1]
        # The outer two rows of 1 / (E_n - P) (rows 0 and M.size) for their weights.
        outer = _invert(np.empty((2, M.size)), D_o[ends], D_b, tau[ends],
                        (r[e] // M.size, c[e], v[e]))
        weight[ends] = 1 / (1 + g2 * (outer * outer @ M))
        yield energy[rows], weight[rows], D_o[rows], D_b, tau[rows], (r, c, v)


def _invert(out: np.ndarray, D_o, D, tau, near) -> np.ndarray:
    """out = 1 / ((D_o - D) + tau) over (D_o, D), but 1 / value at the entries of
    near = (rows, columns, values)."""
    np.subtract.outer(D_o, D, out=out)
    out += tau[:, None]
    out[near[0], near[1]] = near[2]
    return np.reciprocal(out, out=out)


def _iterate(evaluate, t, lo, hi, side, first):
    """Roots t in (lo, hi) of functions h that fall through their brackets,
    with a pole at t = 0 on the bracket's end or beyond it, and the weights
    of their last evaluation; the roots lie on the `side` (+-1) of 0, and
    `first` is evaluate(all rows, t).

    A step takes the root on that side of the model
    h(t') = c + s / t' - k (t' - t), s = near t^2, which matches h and h' at t:
    its pole term stands for the poles at 0 (slope `near`), its line for the
    rest (slope k >= 0).  Next to the pole it is that pole; far from every
    pole it is Newton's step.  A step out of the bracket bisects it instead,
    and a root stops once h is zero to its rounding or no longer moves.
    """
    weight = np.empty(t.size)
    rows = np.arange(t.size)
    h, bound, near, slope, w = first
    for _ in range(100):
        x = t[rows]
        with np.errstate(all="ignore"):
            near = np.minimum(near, slope)  # the model must keep h' at x
            k, s = slope - near, near * x * x
            q = side[rows] * (h - near * x + k * x)
            r = np.sqrt(q * q + 4 * k * s)
            step = side[rows] * np.where(q >= 0, 0.5 * (q + r) / k, 2 * s / (r - q))
        done = ((np.abs(h) <= bound) | (np.abs(step - x) <= 2 * _EPS * np.abs(x))
                | (hi[rows] - lo[rows] <= 2 * _EPS * np.abs(x)))
        weight[rows[done]] = w[done]
        rows, step = rows[~done], step[~done]
        if not rows.size:
            return t, weight
        lo_r, hi_r = lo[rows], hi[rows]
        t[rows] = x = np.where((step > lo_r) & (step < hi_r), step, 0.5 * (lo_r + hi_r))
        h, bound, near, slope, w = evaluate(rows, x)
        lo[rows] = np.where(h > 0, x, lo_r)
        hi[rows] = np.where(h < 0, x, hi_r)
    raise NumericalFailure(f"secular equation: {rows.size} root(s) did not converge")


def _inverse_panels(modes: _BlockModes, buffer: np.ndarray):
    """1 / (E_n - P_j) over (state n, bright group j) as column panels (j0, panel),
    as many columns at a time as `buffer` holds; the next panel overwrites it."""
    row, col, val = modes.near
    width = max(1, buffer.size // modes.tau.size)
    for j0 in range(0, modes.D.size, width):
        D = modes.D[j0:j0 + width]
        a, b = np.searchsorted(col, (j0, j0 + D.size))
        yield j0, _invert(buffer[:modes.tau.size * D.size].reshape(-1, D.size), modes.D_o, D,
                          modes.tau, (row[a:b], col[a:b] - j0, val[a:b]))


def _phi(modes: _BlockModes, phase: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """phi (n_snap, L) from the excited emitter, whose overlap with eigenstate n is sqrt(w_n):
    `phase` is psi_e's phase rows w_n exp(-i E_n t) over (n, snapshot); `buffer` the panels."""
    bright = np.empty((modes.D.size, phase.shape[1]), dtype=complex)
    for j0, panel in _inverse_panels(modes, buffer):
        # The real panel times the complex phases, as one real product.
        np.matmul(panel.T, phase.view(float), out=bright.view(float)[j0:j0 + panel.shape[1]])
    coupled = np.zeros((modes.pole.size, phase.shape[1]), dtype=complex)
    coupled[modes.bright] = bright
    coupled *= modes.coupling
    return coupled[modes.group].T


def _psi_e(times: np.ndarray, energies, weights, keep) -> tuple[np.ndarray, np.ndarray]:
    """sum_n w_n exp(-i E_n t) per block (energy and weight arrays) at every time, and its
    phase rows w_n exp(-i E_n t) over (all blocks' n, time indices `keep`), which phi reads.
    A time (not every 64th) an exact dt after the last steps by exp(-i E dt) if dt recurs
    among the 8 commonest; the rest take _phases, 64 at once."""
    energy, dt = np.concatenate(energies), np.diff(times, prepend=0.0)
    step = (np.arange(times.size) % 64 > 0) & (dt - times == -np.r_[0.0, times[:-1]])  # Fast2Sum
    d, count = np.unique(dt[step], return_counts=True)
    d = d[count > 1][np.argsort(count[count > 1], kind="stable")[-8:]]
    factors = dict(zip(d, _phases(d, energy)))
    fresh = np.flatnonzero(~(step & np.isin(dt, list(factors))))
    ends, starts = np.r_[fresh[1:], times.size], np.cumsum([0] + [e.size for e in energies[:-1]])
    psi = np.empty((times.size, len(energies)), dtype=complex)
    order = np.argsort(keep, kind="stable")  # time j's row is kept[:, order[at[j]:at[j + 1]]]
    at = np.searchsorted(np.sort(keep), np.arange(times.size + 1))
    kept = np.empty((energy.size, order.size), dtype=complex)
    for i in range(0, fresh.size, 64):
        rows = _phases(times[fresh[i:i + 64]], energy)
        rows *= np.concatenate(weights)
        psi[fresh[i:i + 64]] = np.add.reduceat(rows, starts, axis=1)
        for row, j0, j1 in zip(rows, fresh[i:i + 64], ends[i:i + 64]):
            kept[:, order[at[j0]:at[j0 + 1]]] = row[:, None]
            for j in range(j0 + 1, j1):  # the steps up to the next fresh time
                row *= factors[dt[j]]
                psi[j] = np.add.reduceat(row, starts)
                kept[:, order[at[j]:at[j + 1]]] = row[:, None]
    return psi, kept


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split x = hi + lo into 26-bit halves, taken at x 2^-28 so that no |x| up
    to 1.79e308 overflows (exact for |x| >= 2^-994, where x 2^-28 is normal)."""
    c = x * 2.0**-28 * 134217729.0  # (x 2^-28)(2^27 + 1)
    hi = (c - (c - x * 2.0**-28)) * 2.0**28
    return hi, x - hi


def _phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i a_j b_k) over (j, k) from fl(a b)'s cos and sin, turned by the rounding a b -
    fl(a b), exact in doubles (Dekker's TwoProduct, Numer. Math. 18, 224 (1971))."""
    arg = np.multiply.outer(a, b)
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    np.negative(out.imag, out=out.imag)
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    err = np.multiply.outer(a_hi, b_hi)
    err -= arg  # each step is exact: the partial products have at most 52 bits
    err += np.multiply.outer(a_hi, b_lo)
    err += np.multiply.outer(a_lo, b_hi)
    err += np.multiply.outer(a_lo, b_lo)
    out *= np.cos(err) - 1j * np.sin(err)  # exp(-i err), on the unit circle at any E t
    return out


def _checked_times(times) -> np.ndarray:
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1 or times.size == 0:
        raise ParameterError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(times)):
        t = float(times[~np.isfinite(times)][0])
        raise ParameterError(f"t = {t!r} is not a finite time")
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ParameterError("times must be sorted and nonnegative")
    return times


def evolve_fixed_K(params: ModelParams, K: float, times) -> KBlockTrajectory:
    """Evolve one K block exactly from the excited emitter |K> with no photon."""
    times = _checked_times(times)
    _check_block_budget(params.L, 1, times.size, times.size)
    modes = next(_chunk_modes(params, [K]))
    psi_e, phase = _psi_e(times, [modes.energy], [modes.weight], np.arange(times.size))
    phi = _phi(modes, phase, np.empty(_PANEL_BYTES // 8))
    return KBlockTrajectory(times=times, psi_e=psi_e[:, 0], phi=phi)


def photon_spectrum_and_directionality(traj: KBlockTrajectory, t: float
                                       ) -> tuple[np.ndarray, float | None]:
    """Photon occupation N_p = |phi_K(p, t)|^2 and the emission imbalance.

    D = (sum_{p>0} N_p - sum_{p<0} N_p) / (total emitted photon number);
    the parity-even grid points p = 0 and p = -pi (its own mirror mod 2*pi)
    are left out of the directional sums.  Returns D = None when nothing has
    been emitted.
    """
    i = _time_index(traj.times, t)
    n_p = np.abs(traj.phi[i]) ** 2
    total = float(n_p.sum())
    if total == 0.0:
        return n_p, None
    p = momentum_grid(n_p.size)
    pos = p > 1e-12
    neg = (p < -1e-12) & (p > -math.pi + 1e-12)
    return n_p, float((n_p[pos].sum() - n_p[neg].sum()) / total)


def spectrum_peaks(p: np.ndarray, n_p: np.ndarray) -> list[float]:
    """Momenta of the two tallest circular local maxima of N_p."""
    up = n_p > np.roll(n_p, 1)
    down = n_p >= np.roll(n_p, -1)
    idx = np.flatnonzero(up & down)
    idx = idx[np.argsort(n_p[idx])[::-1]]
    return [float(p[i]) for i in idx[:2]]


def asymptotic_momenta(params: ModelParams, K: float) -> tuple[float, float] | None:
    """Long-time emitted photon momenta (p_+, p_-) at fixed K, or None out of band.

    The on-shell condition E_{K,Delta} = -2|z(K)| cos(p + arg z) has the two
    roots p_+ = -alpha - arg z and p_- = alpha - arg z with
    alpha = arccos(-E/2|z|) in [0, pi]; the labels are continuous (mod 2 pi)
    in (Delta, J', K) wherever the emitter level is embedded.
    """
    e = float(gap_energy(params, K))
    z = complex(z_of_K(params, K))
    b = 2.0 * abs(z)
    if abs(e) > b:
        return None
    alpha = math.acos(max(-1.0, min(1.0, -e / b)))
    phi = np.angle(z)
    return wrap(-alpha - phi), wrap(alpha - phi)


def markov_rate(params: ModelParams, K: float) -> float:
    """Weak-coupling decay rate of |psi_eK|^2, the golden-rule rate

        Gamma_K = -2 Im Sigma_K(E_{K,Delta}) = 2 Omega^2 / sqrt(4|z(K)|^2 - E_{K,Delta}^2).
    """
    e = float(gap_energy(params, K))
    b = float(band_halfwidth(params, K))
    if abs(e) > b:
        raise NotEmbedded(
            f"E_(K,Delta) = {e!r} lies outside the band (half-width {b!r}); "
            "the emitter does not decay"
        )
    return -2.0 * self_energy(params, K, e).imag


def fit_exponential_rate(times: np.ndarray, values: np.ndarray,
                         t_lo: float, t_hi: float) -> float:
    """Decay rate from a linear fit of log(values) on [t_lo, t_hi]."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    m = (times >= t_lo) & (times <= t_hi) & (values > 0)
    if np.count_nonzero(m) < 2:
        raise ParameterError("fit window contains fewer than two usable samples")
    slope, _ = np.polyfit(times[m], np.log(values[m]), 1)
    return float(-slope)


# ---------------------------------------------------------------------------
# K-selective emission windows


@dataclass(frozen=True)
class EmissionWindows:
    """Embedded-momentum classification for one (Delta, J') pair.

    windows are the connected components of {K in [-pi, pi] :
    |E_{K,Delta}| <= 2|z(K)|}, whose ends are the closed-form roots of a
    quadratic in cos K: none, one centered at K = 0, or a mirrored pair (a
    component around pi is reported split at +-pi).  w_plus is the
    positive-K extent of a window centered at K = 0; w_minus the width of a
    window detached from K = 0.  jc_minus / jc_plus are the exact critical
    emitter hoppings at which a window first opens as J' grows (endpoint
    collision of the embedding condition), and the *_approx fields the
    small-J' closed forms sqrt(-J (Delta + 2J)) and Delta/4 - J/2.
    """

    regime: str
    windows: tuple[tuple[float, float], ...]
    w_plus: float | None
    w_minus: float | None
    jc_plus: float
    jc_minus: float
    jc_plus_approx: float
    jc_minus_approx: float
    embedded_fraction: float


def classify_regime_and_windows(params: ModelParams) -> EmissionWindows:
    """Embedded set of momenta, window widths, and critical couplings.

    |E_{K,Delta}| <= 2|z(K)| is 4J'^2 c^2 - 4J'(Delta + 2J) c + Delta^2 - 4J^2
    - 4J'^2 <= 0 in c = cos K, whose roots in u = J' c are s/2 -+ sqrt(J s +
    J'^2), s = Delta + 2J: the larger in size directly, the other by Vieta,
    both from ratios and square roots of the inputs so that no scale under- or
    overflows.  Clipped to [-1, 1], their c give the ends on [0, pi] by acos,
    mirrored to negative K (the set is even in K); at J' = 0 all K or none.
    """
    J, Jp, delta = params.J, params.Jp, params.Delta
    s = delta + 2.0 * J
    q = math.sqrt(J) * math.sqrt(abs(s))
    c_lo = c_hi = math.inf  # the embedded range of cos K, empty unless set below
    if Jp == 0.0 and abs(delta) <= 2.0 * J:
        c_lo, c_hi = -1.0, 1.0
    elif Jp > 0.0 and (s >= 0.0 or Jp >= q):
        r = math.hypot(q, Jp) if s >= 0.0 else math.sqrt(Jp - q) * math.sqrt(Jp + q)
        far = 0.5 * s + math.copysign(r, s)  # u of larger size, never 0 as J' > 0
        near = ((delta - 2.0 * J) / 4.0 * (s / far) - Jp * (Jp / far)) / Jp
        c_lo, c_hi = sorted((far / Jp, near))

    windows: tuple[tuple[float, float], ...] = ()
    fraction, regime, w_plus, w_minus = 0.0, "none", None, None
    if c_lo <= 1.0 and c_hi >= -1.0:
        lo, hi = math.acos(min(c_hi, 1.0)), math.acos(max(c_lo, -1.0))
        fraction = (hi - lo) / math.pi
        regime = "all" if lo == 0.0 and hi == math.pi else "selective"
        if lo == 0.0:
            windows = ((-hi, hi),)
            w_plus = hi if hi < math.pi else None
        else:
            windows = ((-hi, -lo), (lo, hi))
            w_minus = hi - lo

    # As J' grows from 0, a window opens where the quadratic's maximum over c
    # first reaches 0: for Delta >= 2J at K = 0, J' = (Delta - 2J)/4; for
    # Delta <= -2J at J' = q, where the discriminant J s + J'^2 vanishes, while
    # the vertex c = s/(2q) lies in [-1, 1] (q <= 2J), else at K = pi.
    return EmissionWindows(
        regime=regime,
        windows=windows,
        w_plus=w_plus,
        w_minus=w_minus,
        jc_plus=(delta - 2.0 * J) / 4.0 if delta >= 2.0 * J else math.nan,
        jc_minus=math.nan if s > 0.0 else q if q <= 2.0 * J else (2.0 * J - delta) / 4.0,
        jc_plus_approx=delta / 4.0 - J / 2.0,
        jc_minus_approx=q if s <= 0.0 else math.nan,
        embedded_fraction=fraction,
    )


# ---------------------------------------------------------------------------
# Localized-emitter runs and position-space observables


@dataclass(frozen=True)
class LocalizedRun:
    """All K-block trajectories of an emitter initially excited at site x0.

    c[m] = e^{i K_m x0} / sqrt(L) are the momentum amplitudes; psi_e has
    shape (nt, L) over (time, K), and phi (n_snap, L, L) over (snapshot, K, p)
    holds the photon amplitudes at the sampled times `snapshots` only.
    """

    params: ModelParams
    x0: int
    times: np.ndarray
    c: np.ndarray
    psi_e: np.ndarray
    phi: np.ndarray
    snapshots: np.ndarray

    def pe_total(self) -> np.ndarray:
        """Total excited-state population at every sampled time."""
        return np.sum(np.abs(self.c[None, :]) ** 2 * np.abs(self.psi_e) ** 2, axis=1)

    def total_norm(self) -> np.ndarray:
        """Total norm at every snapshot time."""
        rows = [_time_index(self.times, t) for t in self.snapshots]
        pops = np.abs(self.psi_e[rows]) ** 2 + _sum_abs2(self.phi)
        return np.sum(np.abs(self.c[None, :]) ** 2 * pops, axis=1)


def evolve_localized(params: ModelParams, x0: int, times, snapshots=None) -> LocalizedRun:
    """Evolve every K block for an emitter initially excited at site x0.

    psi_e is kept at every time; phi only at `snapshots`, which must be
    sampled times (default: all of them).  Only blocks K = -pi .. 0 are
    solved; block -K is block K read at -p, and at J' = 0 one solve serves all.
    """
    if not (isinstance(x0, (int, np.integer)) or float(x0).is_integer()):
        raise ParameterError(f"x0 must be an integer site (got {x0!r})")
    x0 = int(x0)
    times = _checked_times(times)
    keep = np.arange(times.size) if snapshots is None else np.array(
        [_time_index(times, t) for t in np.atleast_1d(snapshots)], dtype=np.intp)
    L = params.L
    _check_block_budget(L, L, times.size, keep.size)
    kgrid = momentum_grid(L)
    n = np.arange(L)
    # e^{i K_n x0} = (-1)^x0 e^{2 pi i (n x0 mod L) / L}, exact for any integer x0.
    c = (-1) ** (x0 % 2) * np.exp(2j * math.pi / L * (n * (x0 % L) % L)) / math.sqrt(L)

    flip = (L - n) % L  # grid index of -p_n
    # Block -K is block K read at -p (K = -pi and 0 are their own mirrors and
    # keep their own order, written last); at J' = 0 every block is one matrix.
    serves = ({0: [(m, n) for m in n]} if params.Jp == 0 else
              {m: [(flip[m], flip), (m, n)] for m in range(L // 2 + 1)})
    psi_e = np.empty((times.size, L), dtype=complex)
    phi = np.empty((keep.size, L, L), dtype=complex)
    sources, buffer = list(serves), np.empty(_PANEL_BYTES // 8)
    per = max(1, _CHUNK_ROOTS // (L + 1))  # blocks per batched solve
    for chunk in (sources[i:i + per] for i in range(0, len(sources), per)):
        solved = list(_chunk_modes(params, kgrid[chunk]))
        psi, phase = _psi_e(times, [m.energy for m in solved], [m.weight for m in solved], keep)
        ends = np.cumsum([m.energy.size for m in solved])
        for source, modes, psi_k, end in zip(chunk, solved, psi.T, ends):
            ph = _phi(modes, phase[end - modes.energy.size:end], buffer)
            for m, order in serves[source]:
                psi_e[:, m] = psi_k
                phi[:, m, :] = ph[:, order]
    return LocalizedRun(params=params, x0=x0, times=times, c=c,
                        psi_e=psi_e, phi=phi, snapshots=times[keep])


@dataclass(frozen=True)
class PositionObservables:
    """Snapshot of position-space occupations on centered sites x."""

    x: np.ndarray
    n_photon: np.ndarray
    p_ground: np.ndarray
    p_excited: np.ndarray


def position_observables(run: LocalizedRun, t: float) -> PositionObservables:
    """Photon number N(x), ground P_g(x) and excited P_e(x) distributions.

    Built from the joint amplitude B(k_g, p) = c_{k_g+p} phi_{k_g+p}(p, t)
    over the ground-emitter momentum k_g and photon momentum p (grid-closed
    index arithmetic), via

        N(x)   = (1/L) sum_{k_g} |sum_p e^{-i p x} B(k_g, p)|^2,
        P_g(x) = (1/L) sum_p |sum_{k_g} e^{-i k_g x} B(k_g, p)|^2,
        P_e(x) = (1/L) |sum_K e^{-i K x} c_K psi_eK(t)|^2,

    the conjugate phases placing an emitter built from c_K = e^{i K x0} at
    +x0.  Satisfies sum_x N = sum_x P_g and sum_x (P_e + P_g) = 1.

    N gathers B a panel of rows k_g at a time.  P_g needs no gather: at fixed
    p, k_g -> K = k_g + p is a cyclic shift of the grid, which multiplies the
    sum over k_g by e^{i p x}, of modulus 1; so P_g(x) = (1/L) sum_p
    |sum_K e^{-i K x} c_K phi_K(p, t)|^2, a panel of columns p at a time.  A
    panel holds about _PANEL_BYTES / 128 entries, so no temporary grows like L^2.
    """
    it = _time_index(run.times, t)
    L, c = run.params.L, run.c
    phi = run.phi[_time_index(run.snapshots, t, "snapshot times")]
    width = max(1, _PANEL_BYTES // (128 * L))  # rows or columns per panel
    p = np.arange(L)
    n_photon, p_ground = np.zeros(L), np.zeros(L)
    # e^{-i p_n x} = e^{i pi x} e^{-2 pi i n x / L}: the prefactor drops in |.|^2.
    for i0 in range(0, L, width):
        K = grid_add_index(np.arange(i0, min(i0 + width, L))[:, None], p, L)  # k_g + p
        n_photon += np.sum(np.abs(np.fft.fft(c[K] * phi[K, p], axis=1)) ** 2, axis=0)
        columns = c[:, None] * phi[:, i0:i0 + width]
        p_ground += np.sum(np.abs(np.fft.fft(columns, axis=0)) ** 2, axis=1)
    p_excited = np.abs(np.fft.fft(c * run.psi_e[it])) ** 2

    half = L // 2
    x = np.arange(-half, half)
    return PositionObservables(
        x=x,
        n_photon=np.roll(n_photon / L, half),
        p_ground=np.roll(p_ground / L, half),
        p_excited=np.roll(p_excited / L, half),
    )
