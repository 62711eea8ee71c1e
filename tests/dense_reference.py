"""Dense-block references shared by the test modules: the block's eigenvalues, the
block in long double, long-double refined emitter weights and a hypothesis strategy
of (params, K) blocks."""

import math

import numpy as np
from hypothesis import strategies as st

from wqed_mobile import ModelParams, momentum_grid
from wqed_mobile.dynamics import block_hamiltonian


def dense_block_eigenvalues(params: ModelParams, K: float) -> np.ndarray:
    """The dense K block's eigenvalues (ascending), by numpy's eigvalsh."""
    return np.linalg.eigvalsh(block_hamiltonian(params, K))


def long_double_block(params: ModelParams, K: float) -> np.ndarray:
    """block_hamiltonian in long double, with long-double pi and cos: the exact block of
    the double K to about 1e-19, where the double block rounds every photon energy."""
    L, jp, pi = params.L, np.longdouble(params.Jp), 4 * np.arctan(np.longdouble(1))
    p, K = -pi + 2 * pi * np.arange(L, dtype=np.longdouble) / L, np.longdouble(K)
    h = np.zeros((L + 1, L + 1), dtype=np.longdouble)
    h[0, 0] = params.Delta - 2 * jp * np.cos(K)
    np.fill_diagonal(h[1:, 1:], -2 * np.longdouble(params.J) * np.cos(p) - 2 * jp * np.cos(K - p))
    h[0, 1:] = h[1:, 0] = params.Omega / np.sqrt(np.longdouble(L))
    return h


def refined_dense_weights(h, cluster):
    """Emitter weights |<K|v_n>|^2 of the block h (double or long double) from the dense
    eigh, refined by one step of Ogita & Aishima (Japan J. Ind. Appl. Math. 35, 1007
    (2018)) in long double.

    eigh alone errs by ~eps ||h|| / gap: 2e-10 for two states 8.9e-7 apart when
    a pole meets the emitter level at Omega = e^-13.  The step leaves pairs
    closer than `cluster` unmixed, so only sums over such clusters hold.
    """
    x = np.linalg.eigh(h.astype(float))[1].astype(np.longdouble)
    r = np.eye(h.shape[0], dtype=np.longdouble) - x.T @ x
    s = x.T @ h.astype(np.longdouble) @ x
    lam = np.diag(s) / (1 - np.diag(r))
    gap = lam[None, :] - lam[:, None]
    far = np.abs(gap) > cluster
    e = np.where(far, (s + lam[None, :] * r) / np.where(far, gap, 1), 0)
    np.fill_diagonal(e, np.diag(r) / 2)
    return ((x + x @ e)[0] ** 2).astype(float)


@st.composite
def blocks(draw):
    L = 2 * draw(st.integers(2, 32))
    jp = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    delta = draw(st.floats(-5.0, 5.0))
    omega = draw(st.one_of(st.just(0.0),
                           st.floats(math.log(1e-6), math.log(3.0)).map(math.exp)))
    K = draw(st.one_of(st.sampled_from((0.0, math.pi)),
                       st.integers(0, L - 1).map(lambda i: float(momentum_grid(L)[i]))))
    return ModelParams(J=1.0, Jp=jp, Delta=delta, Omega=omega, L=L), K
