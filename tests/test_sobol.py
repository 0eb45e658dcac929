import numpy as np
import pytest
from scipy.stats import qmc

from avstress.sobol import MAX_DIM, sobol_point, sobol_points


def test_first_points_2d():
    assert sobol_point(1) == (0.5, 0.5)
    assert sobol_point(2) == (0.75, 0.25)
    assert sobol_point(3) == (0.25, 0.75)


def test_matches_reference_implementation():
    # scipy's unscrambled Sobol uses the same Joe-Kuo direction numbers;
    # its point 0 is the origin, so our index i is its row i
    for dim in range(1, MAX_DIM + 1):
        ref = qmc.Sobol(d=dim, scramble=False).random(256)
        mine = sobol_points(255, dim=dim, start=1)
        np.testing.assert_array_equal(ref[1:], mine)


def test_stratification_16x16():
    # the first 256-point block of the sequence (the implicit origin plus
    # indices 1..255) is a (0,8,2)-net: every dyadic 16x16 stratum of the
    # unit square holds exactly one point
    block = np.vstack([[0.0, 0.0], sobol_points(255, dim=2, start=1)])
    counts = np.zeros((16, 16), dtype=int)
    for u1, u2 in block:
        counts[int(u1 * 16), int(u2 * 16)] += 1
    assert np.all(counts == 1)


def test_index_validation():
    with pytest.raises(ValueError):
        sobol_point(0)
    with pytest.raises(ValueError):
        sobol_point(1, dim=MAX_DIM + 1)


def test_all_points_in_unit_cube():
    pts = sobol_points(1000, dim=4)
    assert np.all(pts >= 0.0) and np.all(pts < 1.0)
