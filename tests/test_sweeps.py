"""Grid sweeps that certify a curve never steps down beyond tolerance."""

import numpy as np
import pytest

from dimlift.functionals import monotonicity_sweep


def test_increasing_curve_is_clean():
    rep = monotonicity_sweep(lambda s: s**2, np.linspace(1.0, 2.0, 11))
    assert rep.violations == 0
    assert rep.monotone
    assert rep.min_slope > 0.0
    assert rep.values.shape == (11,)
    assert rep.fd_derivatives.shape == (10,)


def test_every_step_down_is_counted():
    rep = monotonicity_sweep(lambda s: -s, np.linspace(0.0, 1.0, 9))
    assert rep.violations == 8
    assert not rep.monotone
    assert isinstance(rep.violations, int)


def test_flat_curve_has_no_violations():
    rep = monotonicity_sweep(lambda s: 3.0, np.linspace(0.0, 1.0, 8))
    assert rep.violations == 0
    assert rep.min_slope == 0.0


def test_tolerance_scales_with_the_value():
    # a dip of 1e-6 on values near 1000 sits inside tol * scale = 1e-5
    big = lambda s: 1000.0 - 1e-6 * (s > 0.5)
    assert monotonicity_sweep(big, np.linspace(0.0, 1.0, 9)).violations == 0
    # the same absolute dip on values near 1 does not
    small = lambda s: 1.0 - 1e-6 * (s > 0.5)
    assert monotonicity_sweep(small, np.linspace(0.0, 1.0, 9)).violations == 1


def test_grid_validation():
    with pytest.raises(ValueError):
        monotonicity_sweep(lambda s: s, np.linspace(0.0, 1.0, 7))
    with pytest.raises(ValueError):
        monotonicity_sweep(lambda s: s, np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    with pytest.raises(ValueError):
        monotonicity_sweep(lambda s: s, np.zeros((4, 2)))
