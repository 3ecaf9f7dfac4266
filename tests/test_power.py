"""The library's two vector powers keep the bits of Python's `**`.

`ortho._squares` and the p-th root of `blockspace._weighted_lp_rows` use
np.float_power, which runs libm's pow, the function Python's float `**`
calls.  np.power and `**` on arrays run NumPy's own kernels (x * x for a
square, a SIMD pow on AVX-512), which differ from it in the last bit on
some values.  The old Python-float loops are kept in `oracles` as the
reference."""

import math

import numpy as np
import pytest

from bjlab.blockspace import _dot_rows, _weighted_lp_rows
from bjlab.ortho import _squares
from conftest import rng_for
from oracles import reference_squares, reference_weighted_lp_rows

TINY, HUGE = 5e-324, 1.7976931348623157e308
# 0, -0, +-1, +-inf, NaN, subnormals, the smallest normal, the largest
# double, and the edges of the square's overflow
EDGES = np.array([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan,
                  TINY, -TINY, 1e-320, 2.5e-310, 2.2250738585072014e-308, HUGE, -HUGE,
                  1.3407807929942596e154, -1.3407807929942596e154,
                  1.3407807929942597e154, -1.3407807929942597e154])
COUNT = 100_000
ROOT_PS = (1.5, 2.5, 3.0, 4.0)


def _magnitudes(name: str) -> np.ndarray:
    """COUNT values log-uniform from 1e-320 to 1e300."""
    return 10.0 ** rng_for(name).uniform(-320.0, 300.0, COUNT)


def _signed_values() -> np.ndarray:
    values = _magnitudes("signed") * rng_for("signs").choice((-1.0, 1.0), COUNT)
    return np.concatenate((EDGES, values))


def _rows() -> tuple[np.ndarray, np.ndarray]:
    """(COUNT + edge rows, 2) nonnegative rows and masses for which the root's
    argument s = mu_0 + mu_1 (b_1 / b_0)^p spans 1e-320 to 1e300 where
    b_0 is the row max; then each finite edge magnitude beside 0.5, and a
    zero row."""
    b = _magnitudes("rows-0")
    ratios = 10.0 ** rng_for("rows-1").uniform(-200.0, 0.0, COUNT)
    rows = np.stack((b, b * ratios), axis=1)
    edges = np.abs(EDGES[np.isfinite(EDGES)])
    edge_rows = np.stack((edges, np.full(len(edges), 0.5)), axis=1)
    zero = np.zeros((1, 2))
    return np.concatenate((rows, edge_rows, edge_rows[:, ::-1], zero)), np.array([1e-320, 1e300])


def _same_bits(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lane by lane: the same float64 bits, or both NaN."""
    return (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))


def test_squares_match_python_floats_bit_for_bit():
    v = _signed_values()
    squares, overflowed = _squares(v)
    expected, expected_overflowed = reference_squares(v)
    assert _same_bits(squares, expected).all()
    assert overflowed is not None and np.array_equal(overflowed, expected_overflowed)
    assert expected_overflowed.sum() > COUNT // 10  # the set reaches past 1.34e154
    finite = v[np.isfinite(v) & (np.abs(v) < 1e150)]
    assert _squares(finite)[1] is None  # None when no lane overflowed


@pytest.mark.parametrize("p", ROOT_PS)
def test_weighted_lp_root_matches_python_floats_bit_for_bit(p):
    b, mu = _rows()
    with np.errstate(over="ignore"):  # the oracle's Python floats overflow silently
        expected = reference_weighted_lp_rows(b, mu, p)
    assert _same_bits(_weighted_lp_rows(b, mu, p), expected).all()
    assert np.isinf(expected).any() and (expected == 0.0).any()


def test_numpy_power_differs_from_python_floats_on_these_sets():
    """The sets above have teeth: NumPy's power would fail them, so a swap
    back from np.float_power is caught."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    if not __cpu_features__.get("X86_V4"):
        pytest.skip("NumPy runs no X86_V4 (AVX-512) kernels here, and only that "
                    "path's power differs from libm's pow on the roots")
    v = _signed_values()
    with np.errstate(over="ignore"):
        assert not _same_bits(np.power(v, 2.0), reference_squares(v)[0]).all()
        b, mu = _rows()
        m = b.max(axis=1)
        for p in ROOT_PS:
            s = _dot_rows((b / np.where(m > 0.0, m, 1.0)[:, None]) ** p, mu)
            assert not _same_bits(m * np.power(s, 1.0 / p),
                                  reference_weighted_lp_rows(b, mu, p)).all()
