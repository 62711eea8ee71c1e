"""CLI tests: subcommands, file formats, determinism, exit codes."""

import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wqed_mobile
from wqed_mobile import ModelParams, NumericalFailure, scattering
from wqed_mobile.cli import COMMANDS, NORM_TOL, _check_emission, build_parser, main
from wqed_mobile.dynamics import LocalizedRun


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def test_scatter_writes_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["scatter", "--ki", str(math.pi / 3), "--pi", str(math.pi / 2),
               "--Jp", "0.1", "--Omega", "0.5", "--Delta", "0"])
    assert rc == 0
    meta = json.loads((tmp_path / "scatter.json").read_text())
    assert meta["result"]["T"] == pytest.approx(0.799, abs=1e-3)
    assert meta["params"]["Jp"] == 0.1
    assert meta["version"]
    assert "T = 0.799416" in capsys.readouterr().out


def test_map_transmission_csv_schema_and_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["map-transmission", "--Jp", "0.1", "--Omega", "0.5",
            "--nk", "11", "--np", "13"]
    assert main(args + ["--out", "a"]) == 0
    assert main(args + ["--out", "b"]) == 0
    blob_a = (tmp_path / "a.csv").read_bytes()
    blob_b = (tmp_path / "b.csv").read_bytes()
    assert blob_a == blob_b
    assert b"\r" not in blob_a
    header, rows = _read_csv(tmp_path / "a.csv")
    assert header == ["k_i", "p_i", "t_re", "t_im", "r_re", "r_im",
                      "T", "R", "p_f2", "k_f2", "dE_qb", "degenerate"]
    assert len(rows) == 11 * 13
    meta = json.loads((tmp_path / "a.json").read_text())
    assert meta["grid"] == {"nk": 11, "np": 13}


def test_map_recoil_alias(tmp_path, monkeypatch):
    # map-recoil is another name of map-transmission: the same bytes, written
    # under its own name, which the sidecar echoes.
    monkeypatch.chdir(tmp_path)
    flags = ["--Jp", "0.1", "--Omega", "0.5", "--nk", "5", "--np", "5"]
    assert main(["map-recoil"] + flags) == 0
    assert main(["map-transmission"] + flags) == 0
    header, rows = _read_csv(tmp_path / "map-recoil.csv")
    assert "dE_qb" in header
    assert len(rows) == 25
    assert ((tmp_path / "map-recoil.csv").read_bytes()
            == (tmp_path / "map-transmission.csv").read_bytes())
    assert json.loads((tmp_path / "map-recoil.json").read_text())["command"] == "map-recoil"
    assert [c.name for c in COMMANDS if "map-recoil" in c.aliases] == ["map-transmission"]


def test_bound_energies(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bound-energies", "--Jp", "0.5", "--Omega", "1",
                 "--Delta", "0", "--nK", "16"]) == 0
    header, rows = _read_csv(tmp_path / "bound-energies.csv")
    assert header == ["K", "E_minus", "E_plus", "band_min", "band_max"]
    assert len(rows) == 16
    for row in rows:
        e_minus, e_plus = float(row[1]), float(row[2])
        b_min, b_max = float(row[3]), float(row[4])
        assert e_minus < b_min < b_max < e_plus
    meta = json.loads((tmp_path / "bound-energies.json").read_text())
    assert "flatness" in meta


def test_bound_wavefunction(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bound-wavefunction", "--K", "1.0471975512", "--Jp", "0.5",
                 "--Omega", "1", "--branch", "minus", "--xmax", "20"]) == 0
    header, rows = _read_csv(tmp_path / "bound-wavefunction.csv")
    assert header == ["x", "f_re", "f_im", "abs_f", "phase"]
    assert len(rows) == 41
    meta = json.loads((tmp_path / "bound-wavefunction.json").read_text())
    assert meta["photon_density"] > 0
    assert meta["loc_length"] > 0


def test_emit_fixed_k(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["emit-fixed-k", "--K", "0", "--Jp", "0.5", "--Omega", "0.2",
                 "--Delta", "0", "--L", "128", "--tmax", "30", "--nt", "31"]) == 0
    h_pe, rows_pe = _read_csv(tmp_path / "emit-fixed-k_pe.csv")
    assert h_pe == ["t", "P_e_total"]
    assert len(rows_pe) == 31
    assert float(rows_pe[0][1]) == pytest.approx(1.0, abs=1e-12)
    h_np, rows_np = _read_csv(tmp_path / "emit-fixed-k_np.csv")
    assert h_np == ["p", "N_p"]
    assert len(rows_np) == 128
    meta = json.loads((tmp_path / "emit-fixed-k.json").read_text())
    assert meta["markov_rate"] == pytest.approx(0.08 / math.sqrt(8.0), rel=1e-9)
    assert meta["predicted_p_plus"] is not None


def test_emit_localized(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pe_calls = []
    pe_total = LocalizedRun.pe_total
    monkeypatch.setattr(LocalizedRun, "pe_total",
                        lambda run: pe_calls.append(run) or pe_total(run))
    assert main(["emit-localized", "--Jp", "0.5", "--Omega", "0.2",
                 "--Delta", "0", "--L", "64", "--tmax", "10", "--nt", "6",
                 "--snapshot", "5", "--snapshot", "10"]) == 0
    assert len(pe_calls) == 1  # one P_e(t) for the _pe table and the sidecar
    h_pe, rows_pe = _read_csv(tmp_path / "emit-localized_pe.csv")
    assert h_pe == ["t", "P_e_total"]
    meta = json.loads((tmp_path / "emit-localized.json").read_text())
    assert f"{meta['final_pe_total']:.12e}" == rows_pe[-1][1]
    for snap in ("5", "10"):
        header, rows = _read_csv(tmp_path / f"emit-localized_x_t{snap}.csv")
        assert header == ["x", "N", "P_g", "P_e"]
        assert len(rows) == 64
        n_sum = sum(float(r[1]) for r in rows)
        pg_sum = sum(float(r[2]) for r in rows)
        pe_sum = sum(float(r[3]) for r in rows)
        assert abs(n_sum - pg_sum) < 1e-9
        assert abs(pe_sum + pg_sum - 1.0) < 1e-9


def test_emit_localized_at_astronomical_times_and_sites(tmp_path, monkeypatch):
    # At t = 1e20, max|E| t u = 16 rad is far past the phase guard's 1e-9, so
    # it exits 3 and writes nothing; 10**400, beyond any float, is a site (that
    # of 0 on L = 8).
    monkeypatch.chdir(tmp_path)
    assert main(["emit-localized", "--L", "8", "--nt", "3", "--tmax", "1e20"]) == 3
    assert list(tmp_path.iterdir()) == []
    base = ["emit-localized", "--Jp", "0.5", "--Omega", "0.2", "--L", "8", "--nt", "3",
            "--tmax", "2"]
    assert main(base + ["--x0", str(10**400), "--out", "far"]) == 0
    assert main(base + ["--out", "near"]) == 0
    for suffix in ("_pe.csv", "_x_t2.csv"):
        assert (tmp_path / f"far{suffix}").read_bytes() == (tmp_path / f"near{suffix}").read_bytes()


@pytest.mark.parametrize("argv", [
    # The norm holds, but max|E| t u = 355 rad.
    ["emit-fixed-k", "--K", "0.5", "--Jp", "0.5", "--Omega", "0.2", "--L", "64",
     "--tmax", "1e18", "--nt", "5"],
    # The norm holds, but max|E| t u = 3.3e-4 rad.
    ["emit-localized", "--L", "8", "--nt", "3", "--tmax", "1e12"],
    # The norm holds, but the energies' half ulp leaves E t known to 3.3e-8 rad.
    ["emit-localized", "--L", "8", "--nt", "3", "--tmax", "1e8"],
])
def test_emission_with_unresolved_phases_exits_3(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert "(phase resolution)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_check_emission_rejects_a_norm_drift():
    # No run at hand loses its norm, so the guard is fed one: a drift at
    # NORM_TOL passes, 2e-9 and NaN do not, whatever the phases.
    params = ModelParams(J=1.0, Jp=0.5, Delta=0.0, Omega=0.2, L=8)
    _check_emission(np.array([1.0, 1.0 - NORM_TOL]), params, 10.0)
    for norms in ([1.0, 1.0 + 2e-9], [1.0, math.nan]):
        with pytest.raises(NumericalFailure, match=r"loses its norm: max\|norm - 1\| = "):
            _check_emission(np.array(norms), params, 10.0)


def test_emission_at_a_resolved_huge_time_exits_0(tmp_path, monkeypatch):
    # psi_e and phi share their phase rows, so at t = 1e6 (E t charged 3.3e-10
    # rad) the norm holds to the guard's 1e-9.
    monkeypatch.chdir(tmp_path)
    assert main(["emit-localized", "--L", "8", "--nt", "3", "--tmax", "1e6"]) == 0


def test_emit_localized_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = ["emit-localized", "--Jp", "0.3", "--Omega", "0.4", "--L", "64",
            "--tmax", "8", "--nt", "3"]
    assert main(base + ["--threads", "1", "--out", "one"]) == 0
    assert main(base + ["--threads", "2", "--out", "two"]) == 0
    assert (tmp_path / "one_pe.csv").read_bytes() == (tmp_path / "two_pe.csv").read_bytes()
    assert (tmp_path / "one_x_t8.csv").read_bytes() == (tmp_path / "two_x_t8.csv").read_bytes()


def test_windows_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["windows", "--Jp", "0.5", "--Delta", "3"]) == 0
    meta = json.loads((tmp_path / "windows.json").read_text())
    assert meta["regime"] == "selective"
    assert meta["w_plus"] == pytest.approx(math.acos(5.0 - math.sqrt(21.0)), rel=1e-15)
    assert meta["jc_plus"] == 0.25
    header, rows = _read_csv(tmp_path / "windows.csv")
    assert header == ["K_lo", "K_hi"]
    assert len(rows) == 1


def test_windows_at_a_huge_scale(tmp_path, monkeypatch):
    # J^2 would overflow at J = 1e200; the windows are those of J = J' = Delta = 1.
    monkeypatch.chdir(tmp_path)
    assert main(["windows", "--J", "1e200", "--Jp", "1e200", "--Delta", "1e200"]) == 0
    meta = json.loads((tmp_path / "windows.json").read_text())
    assert meta["w_plus"] == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)
    assert meta["jc_plus_approx"] == pytest.approx(-2.5e199, rel=1e-15)
    assert meta["jc_minus"] == meta["jc_minus_approx"] == "nan"


def test_map_at_a_tiny_scale(tmp_path, monkeypatch):
    # J, J', Delta and Omega times 4^-20 (passed as Python's repr, so they parse
    # exactly) write the J = 1 map's dimensionless columns byte for byte.  Absolute
    # tolerances flagged 97 of the 121 points degenerate here, with t = 0 and r = -1.
    monkeypatch.chdir(tmp_path)
    columns = {}
    for scale in (1.0, 4.0**-20):
        model = [f"--{name}={value * scale!r}" for name, value
                 in (("J", 1.0), ("Jp", 0.5), ("Delta", 0.3), ("Omega", 0.5))]
        assert main(["map-transmission", *model, "--nk", "11", "--np", "11",
                     "--out", f"s{scale!r}"]) == 0
        header, rows = _read_csv(tmp_path / f"s{scale!r}.csv")
        columns[scale] = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    for name in ("t_re", "t_im", "r_re", "r_im", "T", "R", "p_f2", "k_f2", "degenerate"):
        assert columns[4.0**-20][name] == columns[1.0][name], name
    assert columns[1.0]["degenerate"].count("1") == 1


def test_invalid_parameters_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    rc = main(["emit-fixed-k", "--K", "0", "--L", "63"])
    assert rc == 2
    assert "L must be an even integer" in capsys.readouterr().err
    rc = main(["scatter", "--ki", "0.5", "--pi", "0.5", "--Omega", "-1"])
    assert rc == 2


def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # Omega = 0 with the level inside the band: no bound state exists.
    rc = main(["bound-wavefunction", "--K", "0", "--Omega", "0",
               "--Delta", "0", "--Jp", "0.2"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    # Omega > 0 whose square underflows: the message names the underflow, not Omega = 0.
    assert main(["bound-wavefunction", "--K", "0", "--Omega", "1e-200"]) == 3
    err = capsys.readouterr().err
    assert "Omega = 1e-200 > 0, but Omega^2 underflows" in err and "Omega = 0 " not in err
    # Omega^2 > 0, but the band-edge offset (~Omega^4 / 16) lies below the bracket's floor.
    assert main(["bound-wavefunction", "--K", "0", "--Omega", "1e-70"]) == 3
    err = capsys.readouterr().err
    assert "could not bracket the bound-state root from below on branch +1 at K = 0.0" in err
    assert "Omega = 1e-70" in err and "1e-280 floor" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n, cpus", [(301, None), (721, 2)])
@pytest.mark.parametrize("model, message", [
    (("1e300", "5e299", "3e299", "5e299"), "overflow"),  # Omega^2 overflows
    (("1.7e308", "1.7e308", "1e308", "1e154"), "invalid value"),  # inf - inf in numpy
])
def test_overflowing_map_exits_3_without_a_warning(tmp_path, monkeypatch, capsys, n, cpus,
                                                   model, message):
    # J, J', Delta and Omega near the top of the double range fail every block of the
    # sweep.  301^2 runs in one loop; 721^2 takes two worker threads, whose numpy error
    # state is the CLI's, so no RuntimeWarning escapes them either.
    monkeypatch.chdir(tmp_path)
    if cpus:
        monkeypatch.setattr(scattering, "_cpus", lambda: cpus)
    flags = [f for pair in zip(("--J", "--Jp", "--Delta", "--Omega"), model) for f in pair]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["map-transmission", *flags, "--nk", str(n), "--np", str(n)])
    assert rc == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err
    assert [w.category for w in caught] == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("delta, null", [
    ("3", {"markov_rate", "predicted_p_plus", "predicted_p_minus"}),  # out of band
    ("2", {"markov_rate"}),  # on the band edge, where the rate diverges
])
def test_emit_fixed_k_with_the_level_off_the_band(tmp_path, monkeypatch, delta, null):
    # At K = 0 and J' = 0 the band is [-2, 2].  The run still exits 0, and the sidecar
    # writes null where the golden-rule rate or the on-shell momenta do not exist.
    monkeypatch.chdir(tmp_path)
    assert main(["emit-fixed-k", "--K", "0", "--Jp", "0", "--Delta", delta, "--Omega", "0.2",
                 "--L", "64", "--tmax", "10", "--nt", "11"]) == 0
    meta = json.loads((tmp_path / "emit-fixed-k.json").read_text())
    for key in ("markov_rate", "predicted_p_plus", "predicted_p_minus"):
        assert (meta[key] is None) == (key in null), key


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_threads_default_to_the_cpus_the_process_may_run_on(tmp_path):
    # --threads defaults to the CPUs of the process's affinity, the sweep's count, not
    # os.cpu_count(): pinned to one CPU, a run's sidecar reads 1.  A request wins.
    from wqed_mobile.dynamics import resolve_threads
    assert resolve_threads(3) == 3
    src = str(Path(wqed_mobile.__file__).resolve().parents[1])
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
            "from wqed_mobile.cli import main; sys.exit(main(sys.argv[1:]))")
    subprocess.run([sys.executable, "-c", code, "windows", "--Jp", "0.5", "--Delta", "3"],
                   env=dict(os.environ, PYTHONPATH=src), cwd=tmp_path, check=True,
                   capture_output=True)
    assert json.loads((tmp_path / "windows.json").read_text())["threads"] == 1


def test_selfcheck(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_weak_coupling_bound_states_exit_0(tmp_path, monkeypatch):
    # The roots round onto the band edge here; every output stays finite.
    monkeypatch.chdir(tmp_path)
    assert main(["bound-energies", "--Jp", "0.5", "--Omega", "1e-4", "--Delta", "0",
                 "--nK", "21"]) == 0
    assert main(["bound-wavefunction", "--K", "0.5", "--Jp", "0.5", "--Omega", "1e-6",
                 "--Delta", "0", "--xmax", "5"]) == 0
    # Here y_< and y_> round to the same value.
    assert main(["bound-wavefunction", "--K", "0.9424777960769379", "--Jp", "0.5",
                 "--Omega", "1e-8", "--xmax", "3", "--out", "y-equal"]) == 0
    _, rows = _read_csv(tmp_path / "y-equal.csv")
    assert len(rows) == 7 and all(math.isfinite(float(v)) for row in rows for v in row)
    for name in ("bound-energies", "bound-wavefunction"):
        _, rows = _read_csv(tmp_path / f"{name}.csv")
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row)
    meta = json.loads((tmp_path / "bound-wavefunction.json").read_text())
    assert math.isfinite(meta["loc_length"]) and meta["loc_length"] > 0
    assert math.isfinite(meta["photon_density"]) and meta["photon_density"] > 0


@pytest.mark.parametrize("argv, flag", [
    (["map-transmission", "--Omega", "nan", "--nk", "3", "--np", "3"], "Omega"),
    (["windows", "--Delta=-inf"], "Delta"),
    (["scatter", "--ki", "nan", "--pi", "1"], "ki"),
    (["emit-localized", "--L", "8", "--tmax", "nan"], "tmax"),
    (["emit-localized", "--L", "8", "--snapshot", "1", "--snapshot", "inf"], "snapshot"),
])
def test_non_finite_flags_exit_2(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["emit-fixed-k", "--K", "0", "--L", "8", "--nt", "-1"],
    ["emit-localized", "--L", "8", "--nt", "-1"],
])
def test_negative_nt_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "--nt must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["emit-localized", "--L", "8", "--tmax", "-5"], "--tmax must be >= 0"),
    (["emit-fixed-k", "--K", "0", "--L", "8", "--tmax", "-1"], "--tmax must be >= 0"),
    (["emit-fixed-k", "--K", "0", "--L", "8", "--nt", "1"], "--nt 1 does not sample"),
    (["emit-fixed-k", "--K", "0", "--L", "8", "--nt", "0"], "--nt 0 does not sample"),
])
def test_time_grid_errors_name_the_flag_exit_2(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, work", [
    (["emit-localized", "--L", "12000", "--nt", "51"], "K-block work needs"),
    (["bound-wavefunction", "--K", "0", "--xmax", "100000000000"],
     "the wavefunction on 200000000001 sites needs"),
    (["map-transmission", "--nk", "100000", "--np", "100000"],
     "the scattering sweep on 100000 x 100000 points needs"),
])
def test_over_memory_budget_exit_3(tmp_path, monkeypatch, capsys, argv, work):
    def grid(n):  # the sweep's grid, which must not be built
        raise AssertionError("grid built before the budget check")

    monkeypatch.setattr(scattering, "momentum_grid", grid)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert work in err and "(budget 2048 MiB)" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["map-transmission", "--Jp", "1e300", "--nk", "5", "--np", "5"], "non-finite"),
    (["scatter", "--ki", "0.5", "--pi", "1.0", "--Omega", "1e300"], "overflow"),

])
def test_overflowing_parameters_exit_3(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_negative_xmax_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["bound-wavefunction", "--K", "0", "--Jp", "0.5", "--xmax", "-3"]) == 2
    assert "x_max must be >= 0" in capsys.readouterr().err


def test_snapshots_sharing_a_file_name_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["emit-localized", "--L", "8", "--tmax", "1", "--nt", "3",
                 "--snapshot", "0.5", "--snapshot", "0.5000001"]) == 2
    err = capsys.readouterr().err
    assert "0.5" in err and "0.5000001" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("first, again, message", [
    ("5", "5", "--snapshot t = 5.0 and t = 5.0"),
    ("0", "-0", "--snapshot t = 0.0 and t = 0.0"),
])
def test_repeated_snapshot_exit_2(tmp_path, monkeypatch, capsys, first, again, message):
    monkeypatch.chdir(tmp_path)
    assert main(["emit-localized", "--L", "8", "--tmax", "10", "--nt", "3",
                 "--snapshot", first, "--snapshot", again]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_negative_snapshot_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["emit-localized", "--L", "8", "--tmax", "10", "--nt", "3",
                 "--snapshot", "-1"]) == 2
    assert "--snapshot must lie in [0, --tmax 10.0] (got -1.0)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_snapshot_past_tmax_exits_2(tmp_path, monkeypatch, capsys):
    # A snapshot after --tmax would add a _pe.csv row past the tmax the sidecar echoes.
    monkeypatch.chdir(tmp_path)
    assert main(["emit-localized", "--L", "8", "--tmax", "10", "--nt", "3",
                 "--snapshot", "20"]) == 2
    assert "--snapshot must lie in [0, --tmax 10.0] (got 20.0)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert main(["emit-localized", "--L", "8", "--tmax", "10", "--nt", "3",
                 "--snapshot", "10"]) == 0


def test_every_command_has_help(capsys):
    with pytest.raises(SystemExit) as top:
        main(["--help"])
    assert top.value.code == 0
    listing = capsys.readouterr().out
    for cmd in COMMANDS:
        for name in (cmd.name,) + cmd.aliases:
            assert name in listing
            with pytest.raises(SystemExit) as sub:
                main([name, "--help"])
            assert sub.value.code == 0
            assert f"usage: wqed {cmd.name}" in capsys.readouterr().out  # an alias's too


#: The model flags each subcommand reads; it takes no other.
_READS = {"scatter": "J Jp Delta Omega", "map-transmission": "J Jp Delta Omega",
          "bound-energies": "J Jp Delta Omega", "bound-wavefunction": "J Jp Delta Omega",
          "emit-fixed-k": "J Jp Delta Omega L", "emit-localized": "J Jp Delta Omega L",
          "windows": "J Jp Delta", "selfcheck": ""}


@pytest.mark.parametrize("argv", [
    ["windows", "--Omega", "1"],
    ["scatter", "--ki", "0", "--pi", "1", "--L", "8"],
    ["selfcheck", "--Jp", "1"],
])
def test_each_subcommand_takes_only_the_model_flags_it_reads(argv, tmp_path, monkeypatch,
                                                             capsys):
    # A flag that selects nothing is refused; every subcommand keeps --out and
    # --threads, and the map-recoil alias shares map-transmission's parser.
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted([*_READS, "map-recoil"])
    for name, parser in sub.choices.items():
        cmd = next(c for c in COMMANDS if name in (c.name,) + c.aliases)
        options = {o for action in parser._actions for o in action.option_strings}
        assert cmd.model == tuple(_READS[cmd.name].split())
        assert options - {"-h", "--help"} == ({f"--{m}" for m in cmd.model}
                                              | {flag for flag, _ in cmd.flags}
                                              | {"--out", "--threads"}), name
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


#: One small run of every subcommand name, aliases included.
_SMALL_RUNS = (
    ["scatter", "--ki", "1.0471975512", "--pi", "1.5707963268", "--Jp", "0.1", "--Omega", "0.5"],
    ["map-transmission", "--Jp", "0.1", "--Omega", "0.5", "--nk", "5", "--np", "5"],
    ["map-recoil", "--Jp", "0.1", "--Omega", "0.5", "--nk", "5", "--np", "5"],
    ["bound-energies", "--Jp", "0.5", "--Omega", "1", "--nK", "16"],
    ["bound-wavefunction", "--K", "1", "--Jp", "0.5", "--Omega", "1", "--xmax", "5"],
    ["emit-fixed-k", "--K", "0", "--Jp", "0.5", "--Omega", "0.2", "--L", "16", "--tmax", "5",
     "--nt", "6"],
    ["emit-localized", "--Jp", "0.5", "--Omega", "0.2", "--L", "16", "--tmax", "5", "--nt", "6"],
    ["windows", "--Jp", "0.5", "--Delta", "3"],
    ["selfcheck"],
)

#: Without scipy (a finder refuses it, as if it were not installed), every
#: subcommand and the wavepacket oracle run, and the dense oracle raises ImportError.
_NO_SCIPY = f"""
import math, sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"No module named {{name!r}}")
sys.meta_path.insert(0, NoScipy())
from wqed_mobile import ModelParams, dense_block_diagonalize, wavepacket_scattering_oracle
from wqed_mobile.cli import main
rcs = {{main(argv + ["--out", argv[0]]) for argv in {_SMALL_RUNS!r}}}
res = wavepacket_scattering_oracle(ModelParams(J=1.0, Jp=0.1, Omega=0.5, L=200),
                                   0.5, math.pi / 2, 0.03, 20.0)
assert abs(res.transmission + res.reflection + res.excited_residual - 1.0) < 1e-8
try:
    dense_block_diagonalize(ModelParams(J=1.0, Jp=0.5, Omega=0.2, L=40), 0.3)
except ImportError:
    print(*rcs, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_leaves_scipy_unloaded(tmp_path):
    # Importing the package and running subcommands load no scipy; only the
    # dense oracle imports it, when called, and without scipy it alone fails.
    assert sorted(argv[0] for argv in _SMALL_RUNS) == sorted(
        name for cmd in COMMANDS for name in (cmd.name,) + cmd.aliases)
    src = str(Path(wqed_mobile.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from wqed_mobile.cli import main; "
            "rc = main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    runs = [(code, argv) for argv in
            ([], ["bound-energies"], ["bound-wavefunction", "--K", "1"], ["selfcheck"])]
    for script, argv in runs + [(_NO_SCIPY, [])]:
        out = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             capture_output=True, text=True, check=True, cwd=tmp_path).stdout
        assert out.splitlines()[-1] == "0 []", (script, argv)


def test_package_root_exports_these_names():
    # The root re-exports what README, CI, the benchmark and the tests import from it;
    # result types stay in their modules.  A new name has to be added here on purpose.
    names = {name for name, value in vars(wqed_mobile).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == {
        "BandEdgeSingularity", "NoBoundState", "NotEmbedded", "NumericalFailure",
        "OracleInvalid", "ParameterError", "SizeError",
        "ModelParams", "band_halfwidth", "gap_energy", "momentum_grid", "omega_photon",
        "omega_tilde", "self_energy", "v_emitter", "v_photon", "wrap", "xi_emitter", "z_of_K",
        "scatter", "sweep_scattering",
        "band_scan", "bound_wavefunctions", "flatness_report", "solve_bound_state",
        "asymptotic_momenta", "classify_regime_and_windows", "evolve_fixed_K",
        "evolve_localized", "fit_exponential_rate", "markov_rate",
        "photon_spectrum_and_directionality", "position_observables", "spectrum_peaks",
        "dense_block_diagonalize", "wavepacket_scattering_oracle"}


def test_readme_quick_start_runs_as_written(capsys):
    # README's "Library quick start" block, run as written with warnings as errors:
    # each print whose comment gives a value ("# 0.7994...") prints that value.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    values = {i: m.group(1) for i, line in enumerate(prints)
              if (m := re.search(r"#\s*(-?[0-9.]+)\.\.\.", line))}
    assert sorted(values.values()) == ["0.028284", "0.7994"]
    for i, value in values.items():
        assert printed[i].split()[0].startswith(value), (printed[i], value)


def test_public_optional_parameters_are_these_two():
    # Each defaulted parameter of a public function is an option that tests
    # and benchmarks must cover, so a new one has to be added here on purpose.
    options = {}
    for name in ("model", "scattering", "boundstates", "dynamics", "oracle", "cli", "errors"):
        module = importlib.import_module(f"wqed_mobile.{name}")
        for fname, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not fname.startswith("_")):
                defaulted = [p.name for p in inspect.signature(fn).parameters.values()
                             if p.default is not p.empty]
                if defaulted:
                    options[fname] = defaulted
    assert options == {"resolve_threads": ["requested"], "main": ["argv"]}


_FUZZ_VALID = st.floats(-5.0, 5.0).map(repr)
_FUZZ_FLOAT = st.one_of(
    *[_FUZZ_VALID] * 5,
    st.sampled_from(["0", "-0", "1e-8", "1e-300", "1e300", "-1e300"]),
    st.sampled_from(["nan", "inf", "-inf", "1e999"]),
    st.sampled_from(["abc", "", "0x10", "2,5"]))
_FUZZ_INT = st.one_of(
    *[st.integers(-3, 16).map(str)] * 4, st.sampled_from(["abc", "1.5", "", "1e3", "0x10"]))
#: Every flag of every subcommand, with tiny sizes: L <= 16, grids <= 9.
_FUZZ_FLAGS = {
    "--J": _FUZZ_FLOAT, "--Jp": _FUZZ_FLOAT, "--Delta": _FUZZ_FLOAT,
    "--Omega": _FUZZ_FLOAT, "--L": _FUZZ_INT, "--threads": _FUZZ_INT,
    "--K": _FUZZ_FLOAT, "--ki": _FUZZ_FLOAT, "--pi": _FUZZ_FLOAT,
    "--nk": st.integers(-1, 9).map(str), "--np": st.integers(-1, 9).map(str),
    "--nK": st.integers(-1, 9).map(str), "--nt": st.integers(-1, 9).map(str),
    "--xmax": st.integers(-1, 9).map(str), "--x0": _FUZZ_INT,
    "--tmax": _FUZZ_FLOAT, "--snapshot": _FUZZ_FLOAT,
    "--branch": st.sampled_from(["plus", "minus", "up"]),
}


#: Required flags, and flags that keep each subcommand tiny; the drawn flags
#: come later and win.
_FUZZ_SMALL = {"scatter": ["--ki", "0.5", "--pi", "1.0"], "bound-energies": ["--nK", "8"],
               "bound-wavefunction": ["--K", "0.3"],
               "emit-fixed-k": ["--K", "0.3", "--nt", "5", "--L", "16"],
               "emit-localized": ["--nt", "5", "--L", "16"]}


@st.composite
def _fuzz_argv(draw):
    cmd = draw(st.sampled_from(COMMANDS))
    flags = [flag for flag, _ in cmd.flags] + [f"--{m}" for m in cmd.model] + ["--threads"]
    argv = [cmd.name] + _FUZZ_SMALL.get(cmd.name, [])
    for flag in draw(st.lists(st.sampled_from(flags), max_size=6)):
        argv += [flag, draw(_FUZZ_FLAGS[flag])]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(argv=_fuzz_argv())
@example(argv=["scatter", "--ki", "0.5", "--pi", "1.0", "--pi", "0.0"])  # warns: degenerate
def test_cli_fuzz_exit_codes_and_finite_output(argv):
    # Any argv exits 0, 2 or 3 without a traceback, and an exit-0 run writes
    # only finite numbers.  A UserWarning of main's is recorded, whichever
    # examples are drawn; any other warning still fails the test.
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings(record=True):
        warnings.simplefilter("always", UserWarning)
        os.chdir(tmp)
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code
        finally:
            os.chdir(cwd)
        assert rc in (0, 2, 3), argv
        if rc == 0:
            _assert_finite_outputs(Path(tmp), argv)


def _assert_finite_outputs(directory, argv):
    for path in directory.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            json.loads(text, parse_constant=_reject_constant)
            continue
        values = np.array([float(v) for line in text.splitlines()[1:]
                           for v in line.split(",")])
        assert np.all(np.isfinite(values)), (argv, path.name)


@pytest.mark.parametrize("argv", [
    # A level far from the band: F's terms are 1e4-1e5 while |E| is about 2.
    ["bound-wavefunction", "--K", "0.5", "--Delta", "1e5", "--Omega", "0.02",
     "--branch", "minus"],
    ["bound-energies", "--Delta=-1e4", "--Omega", "0.02"],
    # A coupling so weak that the root sits 1.8e-222 above the band edge.
    ["bound-wavefunction", "--Jp", "0.5", "--K", "1", "--Omega", "1e-55"],
])
def test_extreme_bound_states_exit_0(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    _assert_finite_outputs(tmp_path, argv)
