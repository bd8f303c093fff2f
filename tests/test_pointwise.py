"""Closed-form integrand maps: values, derivatives, and inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from plapreg.pointwise import (
    EPS_MAX,
    PLapParams,
    L_eps,
    alpha_s,
    beta_theta,
    coercivity_constant,
    flux_weight,
    grad_L_eps,
    hess_L_eps,
    integrand_lower_bound_check,
    l_eps,
    monotonicity_gap,
    sq_norm,
)

finite = st.floats(-10.0, 10.0, allow_nan=False)


def vec(*xs):
    return np.array(xs, dtype=float)


# ---------------------------------------------------------------------------
# l_eps and L_eps


def test_l_eps_values():
    assert l_eps(vec(0.0), 1.0) == 1.0
    assert l_eps(vec(3.0, 4.0), 0.0) == 5.0
    assert l_eps(vec(3.0, 4.0), 0.3) == pytest.approx(math.sqrt(25.09), rel=1e-15)
    assert L_eps(vec(3.0, 4.0), 0.0, 3.0) == pytest.approx(125.0 / 3.0, rel=1e-15)


@given(st.tuples(finite, finite), st.floats(0.0, 5.0))
def test_l_eps_sandwich(w, eps):
    w = vec(*w)
    l = l_eps(w, eps)
    n = np.linalg.norm(w)
    assert max(eps, n) <= l + 1e-12
    assert l <= eps + n + 1e-12


@given(st.tuples(finite, finite), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_l_eps_monotone_in_eps(w, e1, e2):
    w = vec(*w)
    lo, hi = sorted([e1, e2])
    assert l_eps(w, lo) <= l_eps(w, hi) + 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_sq_norm_and_l_eps_match_axis_sum_bitwise(n):
    """|w|^2 summed component by component is bit for bit the axis sum
    np.sum(np.square(w), axis=-1), also at 0, the smallest subnormal and 1e150."""
    rng = np.random.default_rng(16)
    special = rng.choice([0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150], (200, n))
    scaled = rng.standard_normal((200, n)) * 10.0 ** rng.integers(-170, 150, (200, 1))
    w = np.concatenate([special, scaled]).reshape(20, 20, n)
    ref = np.sum(np.square(w), axis=-1)
    assert sq_norm(w).tobytes() == ref.tobytes()
    assert sq_norm(w[3, 4]) == ref[3, 4]
    for eps in (0.0, 5e-324, 1e-3, 1e150):
        assert l_eps(w, eps).tobytes() == np.sqrt(np.square(eps) + ref).tobytes()


def test_l_eps_vectorized_shape():
    w = np.zeros((4, 7, 2))
    assert l_eps(w, 0.5).shape == (4, 7)
    assert grad_L_eps(w, 0.5, 3.0).shape == (4, 7, 2)
    assert hess_L_eps(w, 0.5, 3.0).shape == (4, 7, 2, 2)


# ---------------------------------------------------------------------------
# derivatives of L_eps


def test_grad_L_eps_matches_difference_quotient():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = rng.integers(1, 3)
        w = rng.uniform(-3, 3, n)
        eps = rng.uniform(0.01, 1.0)
        p = rng.uniform(2.0, 6.0)
        g = grad_L_eps(w, eps, p)
        step = 1e-5 * (1.0 + np.linalg.norm(w))
        for k in range(n):
            e = np.zeros(n)
            e[k] = step
            fd = (L_eps(w + e, eps, p) - L_eps(w - e, eps, p)) / (2 * step)
            assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_hess_L_eps_matches_difference_quotient():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        w = rng.uniform(-3, 3, n)
        eps = rng.uniform(0.01, 1.0)
        p = rng.uniform(2.0, 6.0)
        H = hess_L_eps(w, eps, p)
        step = 1e-5 * (1.0 + np.linalg.norm(w))
        for k in range(n):
            e = np.zeros(n)
            e[k] = step
            fd = (grad_L_eps(w + e, eps, p) - grad_L_eps(w - e, eps, p)) / (2 * step)
            np.testing.assert_allclose(H[:, k], fd, rtol=1e-5, atol=1e-7)


def test_hess_at_zero_gradient():
    H = hess_L_eps(vec(0.0, 0.0), 0.5, 3.0)
    np.testing.assert_allclose(H, 0.5 * np.eye(2), rtol=1e-15)


def test_hess_singular_point_rejected():
    with pytest.raises(ValueError, match="singular"):
        hess_L_eps(vec(0.0, 0.0), 0.0, 3.0)
    # p >= 4 is fine: the rank-one weight vanishes with w
    np.testing.assert_allclose(hess_L_eps(vec(0.0), 0.0, 4.0), np.zeros((1, 1)))


def test_hess_rayleigh_sandwich():
    """Eigenvalues of the Hessian lie in [l^(p-2), (p-1) l^(p-2)]."""
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        n = int(rng.integers(1, 3))
        w = rng.uniform(-4, 4, n)
        xi = rng.uniform(-1, 1, n)
        if np.linalg.norm(xi) < 1e-12:
            continue
        eps = rng.uniform(1e-4, 2.0)
        p = rng.uniform(2.0, 6.0)
        H = hess_L_eps(w, eps, p)
        rayleigh = float(xi @ H @ xi) / float(xi @ xi)
        lp2 = l_eps(w, eps) ** (p - 2.0)
        assert lp2 * (1.0 - 1e-10) <= rayleigh <= (p - 1.0) * lp2 * (1.0 + 1e-10)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 7.3, 40.0])
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.7])
def test_kernels_given_l_and_flux_weight_are_bitwise_their_own(p, eps):
    """L_eps, grad_L_eps and hess_L_eps handed l = l_eps(w) and lp2 =
    flux_weight(w) return bitwise what they compute alone, and
    flux_weight is the l^(p-2) of the gradient and the Hessian's diagonal."""
    rng = np.random.default_rng(int(10 * p) + int(1e3 * eps))
    w = rng.standard_normal((64, 2)) * 10.0 ** rng.uniform(-4, 1, (64, 1))
    l = l_eps(w, eps)
    lp2 = flux_weight(w, eps, p, l=l)
    assert lp2.tobytes() == flux_weight(w, eps, p).tobytes()
    assert lp2.tobytes() == (l ** (p - 2.0)).tobytes()
    assert L_eps(w, eps, p, l=l).tobytes() == L_eps(w, eps, p).tobytes()
    assert grad_L_eps(w, eps, p, lp2=lp2).tobytes() == grad_L_eps(w, eps, p).tobytes()
    assert (hess_L_eps(w, eps, p, l=l, lp2=lp2).tobytes()
            == hess_L_eps(w, eps, p).tobytes())


# ---------------------------------------------------------------------------
# alpha and beta transforms


def test_alpha_s_values():
    np.testing.assert_allclose(alpha_s(vec(3.0, 4.0), 0.0, 1.0), vec(3.0, 4.0))
    np.testing.assert_allclose(alpha_s(vec(3.0, 4.0), 0.0, 2.0), 5.0 * vec(3.0, 4.0))
    np.testing.assert_allclose(alpha_s(vec(0.0, 0.0), 0.0, 0.5), vec(0.0, 0.0))


@given(st.tuples(finite, finite), st.floats(0.1, 4.0), st.floats(0.1, 3.0))
def test_alpha_s_homogeneous(w, c, s):
    w = vec(*w)
    lhs = alpha_s(c * w, 0.0, s)
    rhs = c**s * alpha_s(w, 0.0, s)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_beta_theta_values():
    np.testing.assert_allclose(beta_theta(vec(2.0), 1.0), vec(2.0))
    np.testing.assert_allclose(beta_theta(vec(0.0, 0.0), 0.5), vec(0.0, 0.0))
    np.testing.assert_allclose(beta_theta(vec(4.0), 0.5), vec(2.0))
    assert np.linalg.norm(beta_theta(vec(3.0, 4.0), 0.5)) == pytest.approx(
        math.sqrt(5.0)
    )


def test_beta_inverts_alpha():
    rng = np.random.default_rng(4)
    for _ in range(200):
        w = rng.uniform(-5, 5, 2)
        theta = rng.uniform(0.3, 1.0)
        back = beta_theta(alpha_s(w, 0.0, 1.0 / theta), theta)
        np.testing.assert_allclose(back, w, rtol=1e-10, atol=1e-10)


def test_beta_theta_hoelder_constant_two():
    rng = np.random.default_rng(5)
    w = rng.uniform(-8, 8, (100_000, 2))
    v = rng.uniform(-8, 8, (100_000, 2))
    theta = 0.5
    lhs = np.linalg.norm(beta_theta(w, theta) - beta_theta(v, theta), axis=-1)
    rhs = 2.0 * np.linalg.norm(w - v, axis=-1) ** theta
    assert np.all(lhs <= rhs + 1e-10)


def test_alpha_s_inverse_inequality():
    # |alpha(w) - alpha(v)| >= 2^(1-s) |w - v|^s, sharp at w = -v
    rng = np.random.default_rng(6)
    for s in (1.0, 1.5, 2.0, 2.5):
        w = rng.uniform(-5, 5, (100_000, 2))
        v = rng.uniform(-5, 5, (100_000, 2))
        lhs = np.linalg.norm(alpha_s(w, 0.0, s) - alpha_s(v, 0.0, s), axis=-1)
        rhs = 2.0 ** (1.0 - s) * np.linalg.norm(w - v, axis=-1) ** s
        assert np.all(lhs >= rhs * (1.0 - 1e-10) - 1e-12)


# ---------------------------------------------------------------------------
# monotonicity gap


def test_monotonicity_gap_trivial_points():
    w = vec(1.0, 2.0)
    assert monotonicity_gap(w, w, 2.0) == pytest.approx(0.0, abs=1e-14)
    # v = 0: gap = |w|^(s+1) - (1/2)|w|^(s-1)|w|^2 = (1/2)|w|^(s+1)
    s = 2.0
    expected = 0.5 * np.linalg.norm(w) ** (s + 1.0)
    assert monotonicity_gap(w, vec(0.0, 0.0), s) == pytest.approx(expected, rel=1e-13)


def test_monotonicity_gap_nonnegative_bulk():
    rng = np.random.default_rng(7)
    w = rng.uniform(-6, 6, (100_000, 2))
    v = rng.uniform(-6, 6, (100_000, 2))
    s = rng.uniform(1.0, 3.0, 100_000)
    gap = monotonicity_gap(w, v, s)
    scale = 1.0 + np.linalg.norm(w, axis=-1) ** (s + 1) + np.linalg.norm(v, axis=-1) ** (s + 1)
    assert np.all(gap >= -1e-12 * scale)


@given(
    st.tuples(finite, finite),
    st.tuples(finite, finite),
    st.floats(1.0, 3.0),
)
def test_monotonicity_gap_nonnegative_property(w, v, s):
    w, v = vec(*w), vec(*v)
    scale = 1.0 + np.linalg.norm(w) ** (s + 1) + np.linalg.norm(v) ** (s + 1)
    assert monotonicity_gap(w, v, s) >= -1e-12 * scale


# ---------------------------------------------------------------------------
# coercivity and the second-derivative integrand bound


def test_coercivity_constant_values():
    assert coercivity_constant(3.0, 2.0) == 1.0
    assert coercivity_constant(3.0, 2.5) == 1.0
    assert coercivity_constant(3.0, 2.9) == pytest.approx(0.2, rel=1e-12)
    assert coercivity_constant(2.0, 2.5) == pytest.approx(0.5, rel=1e-12)
    for p in (1.5, math.nan):
        with pytest.raises(ValueError, match="p must be >= 2"):
            coercivity_constant(p, 2.5)
    with pytest.raises(ValueError):
        coercivity_constant(3.0, 3.0)


def test_coercivity_constant_identity():
    # min(1, (p-1)(3-q)) == min(1, 1 + (p-q) - (p-2)(q-2)) on a parameter grid
    for p in np.linspace(2.0, 6.0, 100):
        for q in np.linspace(2.0, 3.0, 100, endpoint=False):
            other = 1.0 + (p - q) - (p - 2.0) * (q - 2.0)
            assert coercivity_constant(p, q) == pytest.approx(
                min(1.0, other), abs=1e-12
            )


def test_integrand_lower_bound_trivial():
    H = np.eye(2)
    lhs, rhs = integrand_lower_bound_check(H, vec(0.0, 0.0), 1.0, 3.0, 2.0)
    assert lhs == pytest.approx(2.0, rel=1e-14)
    assert rhs == pytest.approx(2.0, rel=1e-14)


def test_integrand_lower_bound_bulk():
    rng = np.random.default_rng(8)
    A = rng.uniform(-3, 3, (100_000, 2, 2))
    H = A + np.swapaxes(A, -1, -2)
    w = rng.uniform(-4, 4, (100_000, 2))
    p = rng.uniform(2.0, 6.0, 100_000)
    q = rng.uniform(2.0, 3.0 - 1e-9, 100_000)
    eps = rng.uniform(1e-3, 1.0, 100_000)
    lhs, rhs = integrand_lower_bound_check(H, w, eps, p, q)
    scale = 1.0 + np.abs(lhs) + np.abs(rhs)
    assert np.all(lhs >= rhs - 1e-10 * scale)


def test_integrand_lower_bound_validation():
    H = np.eye(2)
    w = vec(1.0, 0.0)
    with pytest.raises(ValueError, match="eps"):
        integrand_lower_bound_check(H, w, 0.0, 3.0, 2.0)
    with pytest.raises(ValueError, match="symmetric"):
        integrand_lower_bound_check(np.array([[0.0, 1.0], [0.0, 0.0]]), w, 1.0, 3.0, 2.0)
    with pytest.raises(ValueError, match="eps"):
        integrand_lower_bound_check(H, w, np.nan, 3.0, 2.0)
    for p, q in ((3.0, 3.0), (np.nan, 2.5), (3.0, np.nan)):
        with pytest.raises(ValueError, match="need p >= 2"):
            integrand_lower_bound_check(H, w, 0.1, p, q)


# ---------------------------------------------------------------------------
# parameter bundle


@pytest.mark.parametrize(
    "p,s,mode",
    [
        (4.0, 2.0, "thm2"),
        (3.0, 1.5, "thm2"),
        (3.0, 1.0, "outside"),  # s = (p-1)/2 is excluded
        (2.5, 1.2, "thm3"),
        (2.5, 1.25, "thm3"),
        (2.5, 0.9, "outside"),
        (4.0, 1.0, "outside"),
    ],
)
def test_params_mode_classification(p, s, mode):
    assert PLapParams(p=p, s=s).mode == mode


def test_params_require_mode():
    PLapParams(p=4.0, s=2.0).require_mode("thm2")
    PLapParams(p=2.5, s=1.0).require_mode("thm3")
    PLapParams(p=2.5, s=1.0).require_mode("auto")
    with pytest.raises(ValueError, match="p >= 3"):
        PLapParams(p=2.5, s=1.0).require_mode("thm2")
    with pytest.raises(ValueError, match="s ="):
        PLapParams(p=4.0, s=1.0).require_mode("thm2")
    with pytest.raises(ValueError, match="2 <= p < 3"):
        PLapParams(p=4.0, s=2.0).require_mode("thm3")
    with pytest.raises(ValueError, match="unknown mode"):
        PLapParams(p=4.0, s=2.0).require_mode("bogus")


@pytest.mark.parametrize("mode", ["thm2", "thm3"])
def test_require_mode_accepts_exactly_the_classified_regime(mode):
    for p in (2.0, 2.5, 2.99, 3.0, 4.0, 7.0):
        for s in (0.5, 1.0, 1.25, 1.5, 1.75, 2.0, 3.5, 4.0):
            params = PLapParams(p=p, s=s)
            if params.mode == mode:
                params.require_mode(mode)
            else:
                with pytest.raises(ValueError, match=f"^{mode} mode requires .* got [ps] ="):
                    params.require_mode(mode)


def test_params_validation():
    with pytest.raises(ValueError):
        PLapParams(p=1.5)
    with pytest.raises(ValueError):
        PLapParams(p=3.0, eps=-0.1)


def test_params_reject_an_eps_whose_square_overflows():
    """l_eps squares eps, so the largest eps is the one whose square is finite."""
    assert EPS_MAX * EPS_MAX < math.inf and PLapParams(p=3.0, eps=EPS_MAX).eps == EPS_MAX
    too_big = math.nextafter(EPS_MAX, math.inf)
    assert too_big * too_big == math.inf
    with pytest.raises(ValueError, match="^eps must be at most 1.341e[+]154, where eps"):
        PLapParams(p=3.0, eps=too_big)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["p", "eps", "s"])
def test_params_reject_non_finite(name, value):
    # NaN slips past every range comparison, and p = inf would make the
    # solver's continuation path halve p forever
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
        PLapParams(**{"p": 3.0, "eps": 1e-2, "s": 1.5, name: value})
