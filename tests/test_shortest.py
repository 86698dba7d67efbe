"""`_shortest.CsvText` against `repr`, and its tables against Python ints."""

import os
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from parstab import _shortest
from parstab._shortest import CsvText

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALLEST_NORMAL = 2.2250738585072014e-308
EXPLICIT = (
    [0.0, -0.0, 5e-324, float(np.nextafter(SMALLEST_NORMAL, 0)), SMALLEST_NORMAL, 1.7976931348623157e308]
    + [float("inf"), float("-inf"), float("nan")]
    + [1e-4, 9.999999999999999e-05, 1e-5]
    + [1e16, 9999999999999998.0, 2.0**53 - 1, 2.0**53, 2.0**53 + 2]
    + [v for e in range(-323, 309) for v in (float(f"1e{e}"), *np.nextafter(float(f"1e{e}"), [0, np.inf]))]
    + [2.0**e for e in range(-1074, 1024)]
    + [1.2345e-123, -6.02214076e123, 9.87654321e-300, 4.9e307, 1e100, 1e-100]
)


def formatted(values, cols: int = 1, rows: int = 512) -> list:
    """The cells `CsvText` writes for `values`, laid out `cols` to a row,
    `rows` rows at a time."""
    table = np.array(values, dtype=float).reshape(-1, cols)
    text = CsvText(rows, cols)
    pieces = [bytes(p) for s in range(0, len(table), rows) for p in text.lines(table[s : s + rows])]
    return b"".join(pieces).decode().replace("\n", ",").split(",")[:-1]


def reprs(values) -> list:
    return [repr(float(v)) for v in values]


def test_explicit_values_and_their_negatives_match_repr():
    values = EXPLICIT + [-v for v in EXPLICIT]
    assert formatted(values) == reprs(values)


def test_drawn_bit_patterns_match_repr():
    bits = np.random.default_rng(2020).integers(0, 2**64, 99_990, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    assert formatted(values, cols=11) == reprs(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1)), min_size=1, max_size=40))
def test_hypothesis_bit_patterns_match_repr(fields):
    bits = np.array([(sign << 63) | (exponent << 52) | fraction for sign, exponent, fraction in fields], dtype=np.uint64)
    values = bits.view(np.float64)
    assert formatted(values) == reprs(values)


def _floor_log2_pow10(e: int) -> int:
    """floor(log2(10^e)) from the bit length of 10^|e|."""
    if e >= 0:
        return (10**e).bit_length() - 1
    return -(10**-e).bit_length()


def test_g_table_is_floor_of_the_scaled_power_plus_one_for_every_k():
    T = _shortest._tables()
    limbs = (T.g1_hi, T.g1_lo, T.g0_hi, T.g0_lo)
    g = [(a << 95) | (b << 63) | (c << 32) | d for a, b, c, d in zip(*(col.tolist() for col in limbs))]
    ks = range(_shortest.K_MIN, _shortest.K_MAX + 1)
    assert len(g) == len(ks)
    for k, entry in zip(ks, g):
        r = _floor_log2_pow10(-k) - 125
        # floor(10^-k 2^-r) + 1 as an integer quotient
        num, den = 10 ** max(-k, 0) << max(-r, 0), 10 ** max(k, 0) << max(r, 0)
        assert entry == num // den + 1, k
        assert 1 << 125 <= entry < 1 << 126, k


def test_import_builds_no_table():
    # `write_csv` imports the formatter; importing it builds no table either
    code = (
        "import sys, parstab; print('parstab._shortest' in sys.modules); "
        "import parstab._shortest as s; print(s._tables.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "0"]
