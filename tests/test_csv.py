"""CSV bytes: each float is Python's '%.12e' of its float64 value.

`_reference_csv` is the per-value row loop that `cli.write_csv` replaced;
the column formatter must reproduce it byte for byte, for float64 and for
long-double columns (which it formats by their float64 value).  It scales
the significands in doubles, and every value within their error bound of a
rounding tie takes the exact '%.12e' fallback.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqed_mobile import cli
from wqed_mobile.cli import main, write_csv


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12e}"


def _reference_csv(header, columns) -> bytes:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


_RNG = np.random.default_rng(13)
_BITS = _RNG.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
_POW10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
_VALUES = np.concatenate([
    _BITS[np.isfinite(_BITS)],
    # the doubles nearest to 14-digit decimals that end in 5: about an ulp
    # from a rounding tie of the 13th digit
    [float(f"{d}5e{k}") for d, k in zip(_RNG.integers(10**12, 10**13, 2000),
                                        _RNG.integers(-310, 295, 2000))],
    [0.0, 5e-324, np.finfo(np.float64).max],
    np.ldexp(1.0, np.arange(-1074, 1024)),  # 2^-20 and others are exact decimal ties
    _POW10, np.nextafter(_POW10, 0.0), np.nextafter(_POW10, np.inf),
    # just below 10^(k+1): ...96 rounds up into the next exponent, ...95 sits
    # about an ulp from that tie, the others round down
    [float(f"9.99999999999{d}e{k}") for k in range(-310, 308)
     for d in ("96", "95", "9499", "4")],
])
_VALUES = np.concatenate([_VALUES, -_VALUES])


#: Column dtypes: a long double column holds the doubles exactly and must print alike.
_DTYPES = pytest.mark.parametrize("dtype", [np.longdouble, np.float64],
                                  ids=["longdouble", "float64"])


def _formatted(values, dtype) -> list[str]:
    cells = cli._cells(np.asarray(values, dtype=np.float64).astype(dtype))
    return [bytes(row[row != 0]).decode() for row in cells[:, :-1]]


@_DTYPES
def test_formatter_matches_percent_e_on_chosen_values(dtype):
    assert _formatted(_VALUES, dtype) == ["%.12e" % v for v in _VALUES.tolist()]


@_DTYPES
@settings(derandomize=True, max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=50))
def test_formatter_matches_percent_e_property(dtype, values):
    assert _formatted(values, dtype) == ["%.12e" % v for v in values]


@pytest.mark.parametrize("rows", [0, 1, 5000])  # 5000 rows span three chunks
def test_write_csv_bytes_equal_the_row_loop(rows, tmp_path):
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-150, 150, rows)
    x[:1] = -0.0
    columns = [x, rng.integers(-10**6, 10**6, rows), rng.random(rows) < 0.5,
               np.arange(rows, dtype=float)]
    header = ["x", "n", "flag", "t"]
    write_csv(str(tmp_path / "t.csv"), header, columns)
    assert (tmp_path / "t.csv").read_bytes() == _reference_csv(header, columns)


@pytest.mark.parametrize("argv", [
    ["map-transmission", "--Jp", "0", "--Omega", "0.5", "--nk", "31", "--np", "31"],
    ["bound-wavefunction", "--K", "1", "--Jp", "0.5", "--xmax", "20"],
    ["emit-localized", "--Jp", "0.5", "--Omega", "0.2", "--L", "40",
     "--tmax", "10", "--nt", "6", "--snapshot", "5"],
    ["windows", "--Jp", "0.5", "--Delta", "3"],  # one row
    ["windows", "--Jp", "0.2", "--Delta", "5"],  # regime none: no rows
])
def test_cli_tables_equal_the_row_loop(argv, tmp_path, monkeypatch):
    checked = []

    def write_and_check(path, header, columns):
        write_csv(path, header, columns)
        assert Path(path).read_bytes() == _reference_csv(header, columns), path
        checked.append(path)

    monkeypatch.setattr(cli, "write_csv", write_and_check)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert checked
