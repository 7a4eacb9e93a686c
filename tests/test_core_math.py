import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rindler_probe.core_math import (
    PsiParams,
    QuadratureConfig,
    green_hom,
    hk_residual,
    hk_surface_quadrature,
    psi_closed,
    psi_quadrature,
    psi_quadrature_full,
    sinc,
)
from rindler_probe.validate import psi_parameter_strata


def test_sinc_examples():
    assert sinc(0.0) == 1.0
    assert abs(sinc(math.pi)) < 1e-15
    assert sinc(1.0) == pytest.approx(math.sin(1.0), rel=1e-15)
    x = np.linspace(-30, 30, 1001)
    assert np.all(np.abs(sinc(x)) <= 1.0)
    assert np.allclose(sinc(x), sinc(-x))


def test_psi_params_invariants():
    PsiParams(0.3, -1.0, -2.0)
    with pytest.raises(ValueError):
        PsiParams(1.0, -1.0, -3.0)
    with pytest.raises(ValueError):
        PsiParams(0.3, -1.0, -0.5)
    with pytest.raises(ValueError):
        PsiParams(0.3, 2.0, -2.0)  # a + c + |b| = 0.3 > 0
    with pytest.raises(ValueError):
        PsiParams(0.0, 1.0, -1.0)  # boundary a + c + |b| = 0


def test_psi_closed_matches_quadrature_case1():
    p = PsiParams(0.25, -1.0, -2.0)
    val = psi_closed(1.0, p).value
    oracle = psi_quadrature(1.0, p)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_psi_closed_matches_quadrature_case3():
    p = PsiParams(0.3, 0.0, -1.7)
    val = psi_closed(2.0, p).value
    assert val == pytest.approx(psi_quadrature(2.0, p), rel=1e-8)


def test_psi_closed_matches_quadrature_case1_positive_b():
    p = PsiParams(0.5, 0.4, -2.0)
    val = psi_closed(3.0, p).value
    assert val == pytest.approx(psi_quadrature(3.0, p), rel=1e-7)


def test_psi_delta_case():
    res = psi_closed(1.5, PsiParams(0.0, 0.0, -2.0))
    assert res.value == 0.0
    assert res.is_delta
    assert not psi_closed(1.0, PsiParams(0.0, -1.0, -2.0)).is_delta
    with pytest.raises(ValueError):
        psi_closed(0.0, PsiParams(0.0, 0.0, -2.0))


def test_psi_zero_frequency_limit():
    # quadrature of 1/(-cosh s - 2) against the analytic v -> 0 limit
    p = PsiParams(0.0, -1.0, -2.0)
    limit = psi_closed(0.0, p).value
    assert limit == pytest.approx(-2.0 * math.acosh(2.0) / math.sqrt(3.0), rel=1e-12)
    assert psi_quadrature(0.0, p) == pytest.approx(limit, rel=1e-9)
    # series switch is continuous
    assert psi_closed(1e-7, p).value == pytest.approx(limit, rel=1e-10)


def test_psi_parity_bitwise():
    p = PsiParams(0.4, 0.7, -3.2)
    for v in (0.3, 1.7, 4.1):
        assert psi_closed(v, p).value == psi_closed(-v, p).value


def test_psi_case_continuity_thresholds():
    # no jumps beyond what analytic continuity allows: the b = 1e-8 point
    # carries a genuine O(b) drift, and the dispatch threshold itself (1e-10)
    # must be seamless
    for v in (0.5, 2.0):
        a, c = 0.4, -2.5
        at = psi_closed(v, PsiParams(a, 0.0, c)).value
        near = psi_closed(v, PsiParams(a, 1e-8, c)).value
        assert abs(near - at) <= 1e-6 * abs(at) + 4e-8
        edge = psi_closed(v, PsiParams(a, 2e-10, c)).value
        assert abs(edge - at) <= 1e-6 * abs(at) + 1e-8
        b = -1.0
        at = psi_closed(v, PsiParams(0.0, b, c)).value
        near = psi_closed(v, PsiParams(1e-8, b, c)).value
        assert abs(near - at) <= 1e-6 * abs(at) + 4e-8
        edge = psi_closed(v, PsiParams(2e-10, b, c)).value
        assert abs(edge - at) <= 1e-6 * abs(at) + 1e-8


@settings(max_examples=60, deadline=None)
@given(
    v=st.floats(0.05, 6.0),
    a=st.floats(0.0, 0.95),
    b=st.floats(-1.5, 1.5),
    margin=st.floats(0.05, 3.0),
)
def test_psi_even_and_finite(v, a, b, margin):
    c = -1.0 - margin - a - abs(b)
    p = PsiParams(a, b, c)
    res = psi_closed(v, p)
    assert math.isfinite(res.value)
    assert psi_closed(-v, p).value == res.value


# a = 0, b < 0: no real poles, so the integrand is smooth.  The psi-oracle
# suite's two such tuples at v = 6 (|Psi| 4e-9 and 3e-8), two at lower v,
# and two v = 6 tuples near a zero of the sine (|Psi| 2e-10 and 4e-10)
ARBITER_TUPLES = [t for t in psi_parameter_strata() if t[1] == 0.0 and t[2] < 0.0 and t[0] in (0.7, 6.0)]
ARBITER_TUPLES += [(6.0, 0.0, -0.5, -3.44), (6.0, 0.0, -1.0, -4.11)]


@pytest.mark.parametrize("v, a, b, c", ARBITER_TUPLES)
def test_psi_closed_matches_mpmath(v, a, b, c):
    mpmath = pytest.importorskip("mpmath", reason="the high-precision arbiter needs mpmath")
    with mpmath.workdps(40):
        # the even integrand on [0, 60]; the tail beyond is below 1e-25
        half = mpmath.quad(lambda s: mpmath.cos(v * s) / (b * mpmath.cosh(s) + c), mpmath.linspace(0, 60, 61))
        ref = float(2 * half)
    assert psi_closed(v, PsiParams(a, b, c)).value == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_quadrature_imaginary_self_check():
    q = QuadratureConfig()
    z = psi_quadrature_full(1.3, PsiParams(0.35, -0.8, -2.2), q)
    assert abs(z.imag) <= q.atol * 100


def test_quadrature_truncation_guard():
    with pytest.raises(ValueError):
        psi_quadrature(1.0, PsiParams(0.3, -1.0, -2.0), QuadratureConfig(half_width=3.0))


def test_green_hom_examples():
    g = green_hom(0.0, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    assert g == pytest.approx(1.0 / (4 * math.pi))
    # imaginary part is (omega/4 pi c0) sinc(omega r / c0)
    omega, c0 = 1.7, 1.3
    x, y = np.array([0.1, 0.2, 0.3]), np.array([-0.4, 0.0, 1.0])
    r = np.linalg.norm(x - y)
    g = green_hom(omega, x, y, c0)
    assert g.imag == pytest.approx(omega / (4 * math.pi * c0) * sinc(omega * r / c0), rel=1e-14)
    # |x-y| = 2, omega/c0 = pi: real part cos(2 pi)/(8 pi)
    g = green_hom(math.pi, [0, 0, 0], [0, 0, 2.0], 1.0)
    assert g.real == pytest.approx(1.0 / (8 * math.pi), rel=1e-14)
    with pytest.raises(ValueError):
        green_hom(1.0, [0, 0, 0], [0, 0, 0])


def test_hk_coincident_points():
    # both sides equal omega/(4 pi c0) up to quadrature error
    res = hk_residual(2.0, [0, 0, 0.2], [0, 0, 0.2], 150.0, 40_000, seed=3)
    assert res < 0.05


def test_hk_residual_at_200():
    x1 = np.array([0.2, -0.1, 0.3])
    x2 = x1 + np.array([1.0, 0.0, 0.0])
    assert hk_residual(2.0, x1, x2, 200.0, 100_000, seed=101) <= 0.02


def test_hk_lattice_quadrature_deterministic_decay():
    x1 = np.array([0.0, 0.0, 0.1])
    x2 = np.array([0.8, 0.0, 0.1])
    omega = 2.0
    lhs = omega / (4 * math.pi) * sinc(omega * 0.8)
    res = []
    for L in (50.0, 100.0, 200.0):
        q = hk_surface_quadrature(omega, x1, x2, L, 200_000, lattice=True)
        res.append(abs(lhs - omega * q) / abs(lhs))
    assert res[0] > res[1] > res[2]
    slope = np.polyfit(np.log([50, 100, 200]), np.log(res), 1)[0]
    assert -2.5 < slope < -1.5
