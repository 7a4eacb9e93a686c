import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_probe import trajectories as tj


ANALYTIC_SPECS = [
    tj.Stationary((0.1, -0.2, 0.5)),
    tj.Inertial(0.6),
    tj.Rindler(1.0),
    tj.ObliqueRindler(1.0, -0.5, math.pi / 4),
    tj.Circular(1.5, 2.0),
    tj.HelicoidConstant(1.3, 2.0, 0.4),
    tj.HelicoidAccelerated(0.5, 1.0, 3.0),
]


def test_rindler_at_origin():
    ev = tj.evaluate(tj.Rindler(2.0), 0.0)
    assert (ev.t, ev.x, ev.y, ev.z) == (0.0, 0.0, 0.0, 2.0)


def test_oblique_rindler_closest_approach():
    spec = tj.ObliqueRindler(xi=1.2, xi0=-0.3, alpha=0.5)
    ev = tj.evaluate(spec, 0.0)
    assert ev.x == pytest.approx(1.2 * math.sin(0.5))
    assert ev.y == 0.0
    assert ev.z == pytest.approx(-0.3 + 1.2 * math.cos(0.5))


def test_circular_periodicity():
    spec = tj.Circular(gamma=1.5, p=2.0)
    e0 = tj.evaluate(spec, 0.0)
    e1 = tj.evaluate(spec, 2 * math.pi / 2.0)
    assert np.allclose(e0.position, e1.position, atol=1e-12)


@pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=lambda s: s.kind)
def test_proper_time_defect_analytic(spec):
    assert tj.proper_time_defect(spec, np.linspace(-3, 3, 41)) <= 1e-8


def test_proper_time_defect_quadratic_probe():
    # numerically integrated lab time still satisfies the clock constraint
    assert tj.proper_time_defect(tj.TestQuadratic(0.5), np.linspace(-3, 3, 41)) <= 1e-6


def test_interval_function_rindler_closed_form():
    spec = tj.Rindler(1.0)
    expected = -4.0 * math.sinh(0.5) ** 2
    for tau in (-5.0, -1.3, 0.0, 2.7, 5.0):
        assert tj.interval_function(spec, tau, 1.0) == pytest.approx(expected, rel=1e-10)


def test_interval_function_zero_lag():
    for spec in ANALYTIC_SPECS:
        assert tj.interval_function(spec, 0.7, 0.0) == 0.0


def test_interval_function_circular_closed_form():
    gamma, p = 1.5, 2.0
    spec = tj.Circular(gamma, p)
    taup = 0.9
    expected = 4.0 * (gamma**2 - 1.0) / p**2 * math.sin(p * taup / 2.0) ** 2 - gamma**2 * taup**2
    assert tj.interval_function(spec, 1.3, taup) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=lambda s: s.kind)
def test_interval_function_matches_events(spec):
    # at |c0 tau / xi| <= 2, |dx|^2 - dt^2 formed from the events loses at most
    # two digits, so it checks the light-cone split against the world-line
    tau = np.linspace(-1.0, 1.0, 9)[:, None]
    taup = np.linspace(0.2, 1.5, 6)[None, :]
    t_p, x_p = tj.trajectory_points(spec, (tau + taup / 2.0).ravel())
    t_m, x_m = tj.trajectory_points(spec, (tau - taup / 2.0).ravel())
    events = np.sum((x_p - x_m) ** 2, axis=1) - (t_p - t_m) ** 2
    d = tj.interval_function(spec, tau, taup)
    np.testing.assert_allclose(d, events.reshape(d.shape), rtol=1e-12, atol=0)


def _hyperbolic_interval_60_digits(spec, tau, taup):
    # |dx|^2 - dt^2 at 60 significant digits (c0 = 1); only the bounded helix
    # chord of HelicoidAccelerated is taken in double precision
    amp = math.sqrt(spec.A**2 + 1.0) if isinstance(spec, tj.HelicoidAccelerated) else 1.0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        xi = Decimal(spec.xi)
        e_p = (Decimal(tau + taup / 2.0) / xi).exp()
        e_m = (Decimal(tau - taup / 2.0) / xi).exp()
        dt = Decimal(amp) * xi * ((e_p - 1 / e_p) - (e_m - 1 / e_m)) / 2
        dr = Decimal(amp) * xi * ((e_p + 1 / e_p) - (e_m + 1 / e_m)) / 2
        _, x_p = tj.trajectory_points(spec, [tau + taup / 2.0])
        _, x_m = tj.trajectory_points(spec, [tau - taup / 2.0])
        chord = float(np.sum((x_p[0, :2] - x_m[0, :2]) ** 2)) if amp != 1.0 else 0.0
        return float(dr * dr - dt * dt + Decimal(chord))


@pytest.mark.parametrize(
    "spec",
    [tj.Rindler(0.1), tj.ObliqueRindler(0.1, 0.3, 0.4), tj.HelicoidAccelerated(0.5, 0.1, 3.0)],
    ids=lambda s: s.kind,
)
def test_interval_function_at_large_eta(spec):
    # c0 tau / xi up to 20, where |dx|^2 - dt^2 in double precision would
    # cancel terms about 1e17 times the interval
    for tau in (-2.0, -0.7, 0.0, 1.3, 2.0):
        for taup in (0.05, 0.3):
            expected = _hyperbolic_interval_60_digits(spec, tau, taup)
            assert tj.interval_function(spec, tau, taup) == pytest.approx(expected, rel=1e-12)


def test_stationarity_defects():
    tau_grid = np.linspace(-3, 3, 25)
    taup_grid = np.linspace(0.1, 3, 12)
    for spec in ANALYTIC_SPECS:
        assert tj.stationarity_defect(spec, tau_grid, taup_grid) <= 1e-10
    assert tj.stationarity_defect(tj.TestQuadratic(0.5), tau_grid, taup_grid) >= 1e-3


def test_stationary_defect_at_rounding_floor():
    # D depends only on tau' analytically; fl(tau +- tau'/2) rounding leaves
    # a sub-1e-15 floor
    defect = tj.stationarity_defect(tj.Stationary(), np.linspace(-2, 2, 9), np.linspace(0.1, 1, 5))
    assert defect <= 1e-14


def test_acceleration_invariant_rindler():
    for xi in (0.7, 1.0, 2.5):
        spec = tj.Rindler(xi)
        for tau in (-1.0, 0.0, 0.8):
            assert tj.acceleration_invariant(spec, tau) == pytest.approx(1.0 / xi**2, rel=1e-5)


def test_acceleration_invariant_circular_constant():
    spec = tj.Circular(1.5, 2.0)
    vals = [tj.acceleration_invariant(spec, tau) for tau in np.linspace(-2, 2, 9)]
    assert np.ptp(vals) <= 1e-5 * abs(np.mean(vals))


def test_acceleration_invariant_quadratic_not_constant():
    spec = tj.TestQuadratic(0.5)
    vals = [tj.acceleration_invariant(spec, tau) for tau in np.linspace(-2, 2, 9)]
    assert np.ptp(vals) > 0.1 * abs(np.mean(vals))


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        tj.Rindler(-1.0)
    with pytest.raises(ValueError):
        tj.ObliqueRindler(1.0, -1.5, 0.0)
    with pytest.raises(ValueError):
        tj.Circular(0.9, 1.0)
    with pytest.raises(ValueError):
        tj.HelicoidConstant(1.5, 1.0, 1.5)
    with pytest.raises(ValueError):
        tj.trajectory_points(tj.Inertial(2.0), [0.0], c0=1.0)


@pytest.mark.parametrize("spec", ANALYTIC_SPECS + [tj.TestQuadratic(0.5)], ids=lambda s: s.kind)
def test_json_round_trip(spec):
    doc = tj.trajectory_to_dict(spec)
    back = tj.trajectory_from_dict(doc)
    assert back == spec


def test_json_rejects_unknown():
    with pytest.raises(ValueError):
        tj.trajectory_from_dict({"kind": "warp", "factor": 9})
    with pytest.raises(ValueError):
        tj.trajectory_from_dict({"kind": "rindler", "xi": 1.0, "extra": 2})
    with pytest.raises(ValueError):
        tj.trajectory_from_dict({"xi": 1.0})


@settings(max_examples=40, deadline=None)
@given(xi=st.floats(0.2, 5.0), tau=st.floats(-2.0, 2.0))
def test_rindler_interval_tau_free(xi, tau):
    spec = tj.Rindler(xi)
    d0 = tj.interval_function(spec, 0.0, 1.0)
    assert tj.interval_function(spec, tau, 1.0) == pytest.approx(d0, rel=1e-9)
