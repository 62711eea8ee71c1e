"""Correctness gate: invariants and stored fingerprints of every job output.

Each check that fails is recorded as (layer, message), the layer being the
package module that produced the output.  The invariants are evaluated here
from the dispersion relations, independently of the package's closed forms.
A fingerprint is the sum and the largest magnitude of every output column;
it must match ``reference.json`` within FINGERPRINT_RTOL, which allows for
BLAS and reduction-order differences in the last digits but not for a
changed result.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import EMIT_SNAPSHOTS, J

FINGERPRINT_RTOL = 1e-6

#: The package layer whose output each job kind writes.
LAYER_OF = {
    "scatter": "scattering", "map-transmission": "scattering", "map-recoil": "scattering",
    "bound-energies": "boundstates", "bound-wavefunction": "boundstates",
    "emit-fixed-k": "dynamics", "emit-localized": "dynamics", "windows": "dynamics",
    "selfcheck": "cli",
}

#: Per-layer failure counters reported by the traced run.
LAYERS = ("import", "cli", "scattering", "boundstates", "dynamics", "oracle")

_SELFCHECK_LAYER = (("scattering", "scattering"), ("bound-state", "boundstates"),
                    ("norm", "dynamics"), ("Markov", "dynamics"), ("window", "dynamics"))


class Gate:
    """Collects the failed checks of one job."""

    def __init__(self):
        self.failures: list[tuple[str, str]] = []
        self.fingerprint: dict[str, list[float]] = {}

    def require(self, ok, layer: str, message: str) -> bool:
        if not ok:
            self.failures.append((layer, message))
        return bool(ok)

    def finite(self, layer: str, name: str, values) -> bool:
        return self.require(np.all(np.isfinite(values)), layer,
                            f"{name}: non-finite values")

    def record(self, name: str, values) -> None:
        a = np.abs(values) if np.iscomplexobj(values) else np.asarray(values, dtype=float)
        self.fingerprint[name] = [float(a.sum()), float(np.abs(a).max(initial=0.0))]

    def compare(self, layer_of, reference: dict | None) -> None:
        """Match the recorded fingerprint against its stored reference;
        layer_of maps an output name to the layer that produced it."""
        if not self.require(reference is not None, layer_of(""), "no stored reference"):
            return
        for name, (ref_sum, ref_max) in reference.items():
            layer = layer_of(name)
            got = self.fingerprint.get(name)
            if not self.require(got is not None, layer, f"{name}: output missing"):
                continue
            tol = FINGERPRINT_RTOL * (abs(ref_sum) + ref_max) + 1e-12
            self.require(abs(got[0] - ref_sum) <= tol and
                         abs(got[1] - ref_max) <= FINGERPRINT_RTOL * ref_max + 1e-12,
                         layer, f"{name}: fingerprint {got} differs from reference "
                                f"{[ref_sum, ref_max]}")


# ---------------------------------------------------------------------------
# Closed forms of the model, written out here so the gate does not lean on
# the layers it checks.

def band_halfwidth(jp: float, K):
    """2|z(K)| with z(K) = J + J' e^{-iK}."""
    return 2.0 * np.sqrt(J * J + jp * jp + 2.0 * J * jp * np.cos(K))


def pole_residual(E, K, jp: float, omega: float, delta: float):
    """|F(E)| = |E - E_{K,Delta} - Sigma_K(E)| for out-of-band energies E."""
    E = np.asarray(E, dtype=float)
    b = band_halfwidth(jp, K)
    d = np.abs(E) - b
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma = np.sign(E) * omega**2 / np.sqrt(d * (d + 2.0 * b))
    return np.abs(E - (delta - 2.0 * jp * np.cos(K)) - sigma)


def block_trace(jp: float, delta: float, K: float, L: int) -> float:
    """Trace of the (L+1)-square K block: E_{K,Delta} + sum_p omega_tilde(K, p)."""
    p = -math.pi + 2.0 * math.pi * np.arange(L) / L
    return float(delta - 2.0 * jp * math.cos(K)
                 + np.sum(-2.0 * J * np.cos(p) - 2.0 * jp * np.cos(K - p)))


# ---------------------------------------------------------------------------
# CLI jobs


def read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _number(value) -> float:
    """A sidecar number; the CLI writes non-finite floats as strings."""
    if isinstance(value, dict):
        return complex(_number(value["re"]), _number(value["im"]))
    return float(value)


def check_cli_job(job, workdir: str, out: str, returncode: int, stdout: str,
                  stderr: str, reference: dict | None, record_only: bool = False) -> Gate:
    """Every check on one `wqed` job's exit status and output files; with
    record_only the fingerprint is recorded but not compared."""
    g = Gate()
    layer = LAYER_OF[job.sub]
    if "ModuleNotFoundError" in stderr or "ImportError" in stderr:
        g.require(False, "import", "the package failed to import")
    g.require(returncode == 0, "cli", f"exit code {returncode}")
    g.require("Traceback" not in stderr, "cli", "traceback on stderr")
    if g.failures:
        return g
    if job.sub == "selfcheck":
        for line in stdout.splitlines():
            if line.startswith("FAIL"):
                lay = next((l for word, l in _SELFCHECK_LAYER if word in line), "cli")
                g.require(False, lay, f"selfcheck: {line.strip()}")
        g.require("selfcheck: all checks passed" in stdout, "cli", "selfcheck summary missing")
        return g
    try:
        _CHECKS[job.sub](g, job, lambda suffix: os.path.join(workdir, out + suffix))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        g.require(False, layer, f"unreadable output: {exc!r}")
        return g
    if not record_only:
        g.compare(lambda name: layer, reference)
    return g


def _csv(g: Gate, layer: str, path: str, name: str) -> dict[str, np.ndarray]:
    cols = read_csv(path)
    for col, values in cols.items():
        g.finite(layer, f"{name}:{col}", values)
        g.record(f"{name}:{col}", values)
    return cols


def _sidecar(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_scatter(g: Gate, job, path) -> None:
    res = _sidecar(path(".json"))["result"]
    t, r = _number(res["t"]), _number(res["r"])
    for name in ("p_f2", "k_f2"):
        g.record(f"json:{name}", _number(res[name]))
    for name, z in (("t", t), ("r", r)):
        g.record(f"json:{name}_re", z.real)
        g.record(f"json:{name}_im", z.imag)
    if g.finite("scattering", "scatter result", [t, r, _number(res["p_f2"])]):
        g.require(abs(abs(t) ** 2 + abs(r) ** 2 - 1.0) <= 1e-10, "scattering",
                  "|t|^2 + |r|^2 != 1")
        g.require(abs(1.0 + r - t) <= 1e-12, "scattering", "1 + r != t")


def _check_map(g: Gate, job, path) -> None:
    c = _csv(g, "scattering", path(".csv"), "csv")
    g.require(c["T"].size == 101 * 101, "scattering", "map row count")
    g.require(np.all(np.abs(c["T"] + c["R"] - 1.0) <= 1e-10), "scattering",
              "|t|^2 + |r|^2 != 1")
    g.require(np.all(np.hypot(1.0 + c["r_re"] - c["t_re"], c["r_im"] - c["t_im"]) <= 1e-10),
              "scattering", "1 + r != t")


def _check_bound_energies(g: Gate, job, path) -> None:
    c = _csv(g, "boundstates", path(".csv"), "csv")
    jp, om, de = job.value("Jp"), job.value("Omega"), job.value("Delta")
    g.require(c["K"].size == 201, "boundstates", "band row count")
    g.require(np.all(np.abs(c["band_max"] - band_halfwidth(jp, c["K"])) <= 1e-10),
              "boundstates", "band edge differs from 2|z(K)|")
    g.require(np.all(c["E_minus"] < c["band_min"]), "boundstates", "E_- not below the band")
    g.require(np.all(c["E_plus"] > c["band_max"]), "boundstates", "E_+ not above the band")
    for col in ("E_minus", "E_plus"):
        res = pole_residual(c[col], c["K"], jp, om, de)
        # Energies are printed to 12 digits, which costs digits of Sigma
        # close to the band edge.
        g.require(np.all(res <= 1e-6 * np.maximum(1.0, np.abs(c[col]))), "boundstates",
                  f"{col}: pole residual {np.nanmax(res):.2e}")


def _check_bound_wavefunction(g: Gate, job, path) -> None:
    c = _csv(g, "boundstates", path(".csv"), "csv")
    meta = _sidecar(path(".json"))
    energy = _number(meta["energy"])
    g.record("json:energy", energy)
    g.record("json:u", _number(meta["u"]))
    jp, K = job.value("Jp"), job.value("K")
    side = 1.0 if job.params["branch"] == "plus" else -1.0
    g.require(c["x"].size == 101, "boundstates", "wavefunction row count")
    g.require(side * energy > band_halfwidth(jp, K), "boundstates",
              "bound-state energy inside the band")
    res = float(pole_residual(energy, K, jp, job.value("Omega"), job.value("Delta")))
    g.require(res <= 1e-9 * max(1.0, abs(energy)), "boundstates", f"pole residual {res:.2e}")
    g.require(np.all(np.abs(np.hypot(c["f_re"], c["f_im"]) - c["abs_f"]) <= 1e-10),
              "boundstates", "abs_f != |f|")
    g.require(np.allclose(c["abs_f"], c["abs_f"][::-1], rtol=1e-10, atol=1e-300),
              "boundstates", "|f(x)| not even in x")


def _check_emit_fixed_k(g: Gate, job, path) -> None:
    pe = _csv(g, "dynamics", path("_pe.csv"), "pe")
    n_p = _csv(g, "dynamics", path("_np.csv"), "np")
    g.require(pe["t"].size == 201 and n_p["p"].size == 400, "dynamics", "row counts")
    g.require(np.all((pe["P_e_total"] >= 0.0) & (pe["P_e_total"] <= 1.0 + 1e-12)),
              "dynamics", "P_e outside [0, 1]")
    g.require(abs(pe["P_e_total"][0] - 1.0) <= 1e-12, "dynamics", "P_e(0) != 1")
    g.require(np.all(n_p["N_p"] >= 0.0), "dynamics", "negative N_p")
    g.require(abs(pe["P_e_total"][-1] + n_p["N_p"].sum() - 1.0) <= 1e-9, "dynamics",
              "norm not conserved at tmax")


def _check_emit_localized(g: Gate, job, path) -> None:
    pe = _csv(g, "dynamics", path("_pe.csv"), "pe")
    g.require(abs(pe["P_e_total"][0] - 1.0) <= 1e-12, "dynamics", "P_e(0) != 1")
    g.require(np.all((pe["P_e_total"] >= 0.0) & (pe["P_e_total"] <= 1.0 + 1e-12)),
              "dynamics", "P_e outside [0, 1]")
    for t in EMIT_SNAPSHOTS:
        snap = _csv(g, "dynamics", path(f"_x_t{t:g}.csv"), f"x_t{t:g}")
        g.require(snap["x"].size == 400, "dynamics", "snapshot row count")
        n, pg, pex = snap["N"].sum(), snap["P_g"].sum(), snap["P_e"].sum()
        g.require(abs(n - pg) <= 1e-9, "dynamics", f"t={t:g}: sum N != sum P_g")
        g.require(abs(pex + pg - 1.0) <= 1e-9, "dynamics", f"t={t:g}: sum(P_e + P_g) != 1")
        row = np.flatnonzero(np.abs(pe["t"] - t) <= 1e-9)
        g.require(row.size == 1 and abs(pe["P_e_total"][row[0]] + n - 1.0) <= 1e-9,
                  "dynamics", f"t={t:g}: norm not conserved")


def _check_windows(g: Gate, job, path) -> None:
    c = _csv(g, "dynamics", path(".csv"), "csv")
    frac = _number(_sidecar(path(".json"))["embedded_fraction"])
    g.record("json:embedded_fraction", frac)
    edge = math.pi * (1.0 + 1e-11)  # +-pi printed to 12 digits
    g.require(np.all((-edge <= c["K_lo"]) & (c["K_lo"] <= c["K_hi"]) & (c["K_hi"] <= edge)),
              "dynamics", "window outside [-pi, pi]")
    g.require(abs(float(np.sum(c["K_hi"] - c["K_lo"])) / (2.0 * math.pi) - frac) <= 1e-9,
              "dynamics", "window widths disagree with the embedded fraction")


_CHECKS = {
    "scatter": _check_scatter,
    "map-transmission": _check_map,
    "map-recoil": _check_map,
    "bound-energies": _check_bound_energies,
    "bound-wavefunction": _check_bound_wavefunction,
    "emit-fixed-k": _check_emit_fixed_k,
    "emit-localized": _check_emit_localized,
    "windows": _check_windows,
}


# ---------------------------------------------------------------------------
# bulk-library passes


def check_bulk(job, out: dict, reference: dict | None, record_only: bool = False) -> Gate:
    """Every check on one bulk-library pass (outputs of workloads.bulk_pass)."""
    g = Gate()
    jp, om, de, K = (job.value(k) for k in ("Jp", "Omega", "Delta", "K"))

    table = out["table"]
    for col, values in table.items():
        g.finite("scattering", f"sweep:{col}", values)
        g.record(f"sweep:{col}", values)
    t = table["t_re"] + 1j * table["t_im"]
    r = table["r_re"] + 1j * table["r_im"]
    g.require(np.all(np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0) <= 1e-10), "scattering",
              "|t|^2 + |r|^2 != 1")
    g.require(np.all(np.abs(1.0 + r - t) <= 1e-12), "scattering", "1 + r != t")

    scan = out["scan"]
    for name in ("e_minus", "e_plus"):
        values = getattr(scan, name)
        g.finite("boundstates", f"scan:{name}", values)
        g.record(f"scan:{name}", values)
        res = pole_residual(values, scan.K, jp, om, de)
        g.require(np.all(res <= 1e-9 * np.maximum(1.0, np.abs(values))), "boundstates",
                  f"{name}: pole residual {np.nanmax(res):.2e}")
    g.require(np.all(scan.e_minus < -band_halfwidth(jp, scan.K)), "boundstates",
              "E_- not below the band")
    g.require(np.all(scan.e_plus > band_halfwidth(jp, scan.K)), "boundstates",
              "E_+ not above the band")

    traj, n_p = out["traj"], out["n_p"]
    for name, values in (("psi_e", traj.psi_e), ("phi", traj.phi), ("n_p", n_p)):
        g.finite("dynamics", f"fixed_K:{name}", values)
        g.record(f"fixed_K:{name}", values)
    g.require(np.all(np.abs(traj.norms() - 1.0) <= 1e-9), "dynamics", "norm not conserved")
    g.require(abs(abs(traj.psi_e[-1]) ** 2 + n_p.sum() - 1.0) <= 1e-9, "dynamics",
              "photon spectrum + P_e != 1")

    spec = out["spec"]
    L = spec.eigenvalues.size - 1
    for name in ("eigenvalues", "weights"):
        g.finite("oracle", f"dense:{name}", getattr(spec, name))
        g.record(f"dense:{name}", getattr(spec, name))
    trace = block_trace(jp, de, K, L)
    g.require(abs(spec.eigenvalues.sum() - trace) <= 1e-9 * (L + 1), "oracle",
              "eigenvalue sum != block trace")
    g.require(abs(spec.weights.sum() - 1.0) <= 1e-10, "oracle", "weights do not sum to 1")

    packet = out["packet"]
    scalars = [packet.transmission, packet.reflection, packet.excited_residual,
               packet.p_transmitted, packet.p_reflected]
    g.finite("oracle", "packet", scalars + [packet.photon_occupation.sum()])
    for name in ("transmission", "reflection", "excited_residual", "photon_occupation"):
        g.record(f"packet:{name}", getattr(packet, name))
    g.record("packet:n_blocks", packet.n_blocks)
    g.require(abs(packet.transmission + packet.reflection + packet.excited_residual - 1.0)
              <= 1e-8, "oracle", "T + R + excited residual != 1")

    if not record_only:
        g.compare(lambda name: _BULK_LAYER.get(name.partition(":")[0], "cli"), reference)
    return g


_BULK_LAYER = {"sweep": "scattering", "scan": "boundstates", "fixed_K": "dynamics",
               "dense": "oracle", "packet": "oracle"}
