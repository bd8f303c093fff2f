"""Difference-quotient seminorms, exponent fits, and the composition bound."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from frozen import dyadic_and_dense, line_fit, w12_error, within
from plapreg.fields import Grid, ScalarField, VectorField, gradient, interior_box
from plapreg.pointwise import beta_theta
from plapreg.smoothness import (
    COMPOSITION_C,
    HOLDER_M,
    composition_bound_check,
    dyadic_shifts,
    fit_smoothness_exponent,
    nikolskii_seminorm,
    shift_difference_norm,
    sobolev_w12_norm,
    sobolev_w12_seminorm,
    sobolev_w1p_norm,
    write_seminorm_report,
)
from plapreg.smoothness import _offset_length
from plapreg.experiments import SharpnessOracle, oracle_fields


def line(nodes=1025):
    return Grid.line(-1.0, 1.0, nodes)


def measure(g, delta):
    """Riemann measure of the delta-interior: node count times cell volume."""
    return np.prod([b.stop - b.start for b in interior_box(g, delta)]) * g.cell_volume


# ---------------------------------------------------------------------------
# shift families


def test_dyadic_shifts_1d():
    g = Grid.line(0.0, 1.0, 65)  # h = 1/64
    assert dyadic_shifts(g, 0.25) == ((1,), (2,), (4,), (8,), (16,))
    with pytest.raises(ValueError):
        dyadic_shifts(g, 0.5 / 64.0)  # below one spacing
    with pytest.raises(ValueError):
        dyadic_shifts(g, -0.1)


def _two_loop_shifts(grid, delta):
    """The enumerator dyadic_shifts replaced, with one loop per dimension."""
    slack = 1.0 + 1e-12
    out = []
    if grid.dim == 1:
        (h,) = grid.h
        k = 1
        while k * h <= delta * slack:
            out.append((k,))
            k *= 2
    else:
        hx, hy = grid.h
        k = 1
        while True:
            added = False
            if k * hx <= delta * slack:
                out.append((k, 0))
                added = True
            if k * hy <= delta * slack:
                out.append((0, k))
                added = True
            if math.hypot(k * hx, k * hy) <= delta * slack:
                out.append((k, k))
                out.append((k, -k))
                added = True
            if not added:
                break
            k *= 2
    if not out:
        raise ValueError("no lattice shift fits below delta; refine the grid")
    return tuple(sorted(out, key=lambda o: _offset_length(grid, o)))


@pytest.mark.parametrize("grid", [Grid.line(-0.7, 2.3, 97),
                                  Grid.box((0.3, -1.7), (2.3, -0.2), (65, 33)),
                                  Grid.box((-0.2, 0.1), (0.55, 2.1), (13, 129)),
                                  Grid.box((0.25, -0.5), (1.25, 0.5), (65, 65))],
                         ids=["1d", "wide", "tall", "square"])
def test_dyadic_shifts_match_two_loop_enumerator(grid):
    """One loop over the step directions gives the old family exactly, for
    deltas at a shift's length k h or k h sqrt(2), at that length divided by
    the comparison's slack, and one ulp around each; and below every shift."""
    diag = math.hypot(*grid.h)
    lengths = [k * length for k in (1, 2, 4, 8, 16, 32)
               for length in (*grid.h, *(h * math.sqrt(2.0) for h in grid.h), diag)]
    deltas = lengths + [d / (1.0 + 1e-12) for d in lengths]
    deltas += [np.nextafter(d, lim) for d in deltas for lim in (0.0, np.inf)]
    deltas += [0.5 * min(grid.h)]
    for delta in deltas:
        try:
            expected = _two_loop_shifts(grid, delta)
        except ValueError:
            with pytest.raises(ValueError, match="no lattice shift"):
                dyadic_shifts(grid, delta)
            continue
        assert dyadic_shifts(grid, delta) == expected, delta


@pytest.mark.parametrize("grid", [Grid.line(-1.0, 1.0, 65),
                                  Grid.box((0.0, 0.0), (1.0, 1.0), (101, 101)),
                                  Grid.box((0.0, 0.0), (100.0, 1.0), (65, 5))],
                         ids=["1d", "square", "flat"])
def test_dyadic_shifts_stop_for_a_huge_delta(grid):
    """delta = 1e308 doubled k until k * |v| overflowed.  k now stops at
    twice the box diameter in shortest spacings, which no delta below the
    diameter reaches, so there the family is the enumerator's (the square's
    (128, 0) at delta 1.35 included)."""
    diam = math.dist(grid.lower, grid.upper)
    for delta in (0.5 * diam, 0.95 * diam, np.nextafter(diam, 0.0)):
        assert dyadic_shifts(grid, delta) == _two_loop_shifts(grid, delta), delta
    shifts = dyadic_shifts(grid, 1e308)
    assert max(abs(c) for o in shifts for c in o) <= 2.0 * diam / min(grid.h)


def test_dyadic_shifts_2d():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (65, 65))
    sh = dyadic_shifts(g, 0.25)
    assert (1, 0) in sh and (0, 1) in sh
    assert (1, 1) in sh and (1, -1) in sh
    # diagonal length k h sqrt(2) must also clear delta
    assert (16, 0) in sh and (16, 16) not in sh
    mags = [math.hypot(a / 64.0, b / 64.0) for a, b in sh]
    assert mags == sorted(mags)
    assert all(len(o) == 2 for o in sh)


# ---------------------------------------------------------------------------
# difference norms


def test_shift_norm_constant_field_is_zero():
    g = line(129)
    u = ScalarField.constant(g, 3.7)
    assert shift_difference_norm(u, (4,), 2.0) == 0.0
    assert shift_difference_norm(u, (4,), np.inf) == 0.0


def test_shift_norm_affine_exact():
    # |u(x+v) - u(x)| = a v everywhere, so the norm is a v measure^(1/q)
    g = Grid.line(0.0, 1.0, 101)
    a = 0.7
    u = ScalarField(g, a * g.axis(0) - 0.2)
    off, q = (8,), 3.0
    v = 8 * g.h[0]
    expected = a * v * measure(g, v) ** (1.0 / q)
    assert shift_difference_norm(u, off, q) == pytest.approx(expected, rel=1e-12)
    assert shift_difference_norm(u, off, np.inf) == pytest.approx(a * v, rel=1e-12)


def test_shift_norm_against_bruteforce():
    """Independent reimplementation with explicit loops."""
    rng = np.random.default_rng(20)
    g = Grid.box((0.0, 0.0), (1.0, 1.5), (9, 11))
    vals = rng.standard_normal((9, 11, 2))
    V = VectorField(g, vals)
    hx, hy = g.h
    for off, q in (((1, 0), 2.0), ((0, 2), 3.0), ((1, 1), 2.0), ((1, -1), 5.0)):
        vlen = math.hypot(off[0] * hx, off[1] * hy)
        acc = 0.0
        for i in range(9):
            for j in range(11):
                x = g.axis(0)[i]
                y = g.axis(1)[j]
                if not (
                    x - vlen >= 0.0 - 1e-12
                    and x + vlen <= 1.0 + 1e-12
                    and y - vlen >= 0.0 - 1e-12
                    and y + vlen <= 1.5 + 1e-12
                ):
                    continue
                d = vals[i + off[0], j + off[1]] - vals[i, j]
                acc += (d[0] ** 2 + d[1] ** 2) ** (q / 2.0) * hx * hy
        expected = acc ** (1.0 / q)
        got = shift_difference_norm(V, off, q)
        assert got == pytest.approx(expected, rel=1e-12), (off, q)


def test_shift_norm_validation():
    g = line(65)
    u = ScalarField.constant(g, 0.0)
    # NaN fails every comparison, so each range check must reject it by name
    for q in (0.5, math.nan):
        with pytest.raises(ValueError, match="at least 1"):
            shift_difference_norm(u, (1,), q)
    with pytest.raises(ValueError, match="zero shift"):
        shift_difference_norm(u, (0,), 2.0)
    with pytest.raises(ValueError, match="empty"):
        shift_difference_norm(u, (64,), 2.0)  # shift spans the whole box
    with pytest.raises(ValueError, match="dimension"):
        shift_difference_norm(u, (1, 1), 2.0)


def test_shift_norm_that_underflows_raises_naming_q():
    """Differences of about 1e-50 at a few nodes and exactly 0 at the rest:
    at q = 8 every power underflows, and a norm of 0 would call a field that
    moves flat.  (A vector difference below about 1e-154 squares to 0 in its
    magnitude, so it could not reach the power.)"""
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (33, 33))
    vals = np.zeros(g.shape + (2,))
    vals[10:13, 20, 0] = 1e-50
    vals[5, 5, 1] = -3e-50
    V = VectorField(g, vals)
    assert shift_difference_norm(V, (1, 0), 2.0) > 0.0
    assert shift_difference_norm(V, (1, 0), np.inf) == pytest.approx(3e-50)
    with pytest.raises(ValueError, match=r"q = 8 takes \|u\(\. \+ v\) - u\|\^q out of"):
        shift_difference_norm(V, (1, 0), 8.0)


def test_shift_norm_translation_invariant():
    rng = np.random.default_rng(21)
    g = line(257)
    vals = rng.standard_normal(g.shape)
    u = ScalarField(g, vals)
    shifted = ScalarField(g, vals + 42.0)
    for off in ((1,), (8,)):
        assert shift_difference_norm(u, off, 2.0) == pytest.approx(
            shift_difference_norm(shifted, off, 2.0), rel=1e-13
        )


def test_shift_norm_triangle_inequality():
    rng = np.random.default_rng(22)
    g = line(129)
    for _ in range(20):
        a = ScalarField(g, rng.standard_normal(g.shape))
        b = ScalarField(g, rng.standard_normal(g.shape))
        s = ScalarField(g, a.values + b.values)
        for q in (1.0, 2.0, 4.0):
            assert shift_difference_norm(s, (4,), q) <= (
                shift_difference_norm(a, (4,), q)
                + shift_difference_norm(b, (4,), q)
                + 1e-12
            )


@pytest.mark.parametrize("shape", [(65, 33), (257, 129)])
def test_interior_norms_match_masked_reference_bitwise(shape):
    """Each sum over an interior box adds the same terms in the same order as
    a sum over the nodes a boolean mask selects (C order).  On 257 x 129 the
    boxes exceed numpy's 8192-element reduction buffer, where a sum over a
    strided box would group its terms differently; u is stored in Fortran
    order, where a sum in memory order would too.  The fields constant along
    x2 have (0, k) differences that are exactly 0, which give exactly 0.0
    (a RuntimeWarning fails the test); q = 1 and 2 take the fast paths of
    numpy's ``**``."""
    rng = np.random.default_rng(24)
    g = Grid.box((0.0, 0.0), (1.0, 1.0), shape)
    u = ScalarField(g, np.asfortranarray(rng.standard_normal(g.shape)))
    assert u.values.flags.f_contiguous
    V = VectorField(g, rng.standard_normal(g.shape + (2,)))
    x1only = np.broadcast_to(rng.standard_normal((shape[0], 1, 2)), g.shape + (2,))
    u1, V1 = ScalarField(g, x1only[..., 0]), VectorField(g, x1only)
    x, y = g.coords()[..., 0], g.coords()[..., 1]
    hx, hy = g.h
    DELTAS = (0.05, 0.1, 0.15, 0.2, 0.25)

    def mask(delta):
        return np.nonzero(
            (x - delta >= -1e-12) & (x + delta <= 1.0 + 1e-12)
            & (y - delta >= -1e-12) & (y + delta <= 1.0 + 1e-12)
        )

    def mag(field, vals):
        if isinstance(field, VectorField):
            return np.sqrt(np.sum(vals * vals, axis=-1))
        return np.abs(vals)

    def lq(mags, q):
        if np.isinf(q):
            return float(np.max(mags))
        return float((np.sum(mags**q) * g.cell_volume) ** (1.0 / q))

    for field, flat_x2 in ((u, False), (V, False), (u1, True), (V1, True)):
        for q in (1.0, 2.0, 2.7, np.inf):
            for off in dyadic_shifts(g, 0.25):
                idx = mask(math.hypot(off[0] * hx, off[1] * hy))
                shifted = tuple(i + o for i, o in zip(idx, off))
                diff = field.values[shifted] - field.values[idx]
                ref = lq(mag(field, diff), q)
                assert shift_difference_norm(field, off, q) == ref, (off, q)
                assert (ref == 0.0) == (flat_x2 and off[0] == 0), (off, q)

    jac2 = np.zeros(g.shape)
    for j in range(2):
        jac2 += np.sum(gradient(ScalarField(g, V.values[..., j])).values ** 2, axis=-1)
    mag2 = np.sum(V.values**2, axis=-1)
    for delta in DELTAS:
        idx = mask(delta)
        semi = float(np.sqrt(np.sum(jac2[idx]) * g.cell_volume))
        full = float(np.sqrt(np.sum(mag2[idx] + jac2[idx]) * g.cell_volume))
        assert sobolev_w12_seminorm(V, delta) == semi
        assert sobolev_w12_norm(V, delta) == full


@pytest.mark.parametrize("grid", [Grid.line(-1.0, 2.0, 129),
                                  Grid.box((0.0, -1.0), (2.0, 0.5), (65, 33))],
                         ids=["1d", "2d"])
def test_vector_shift_norm_matches_component_axis_sum_bitwise(grid):
    """The nodewise magnitude, summed component by component, is bit for bit
    np.sqrt(np.sum(d * d, axis=-1)), and the norm sums it in C order.  In 2D
    a field constant along x2 gives exactly 0.0 on its (0, k) shifts, where
    the magnitude is 0 and no power is taken."""
    rng = np.random.default_rng(15)
    V = VectorField(grid, rng.standard_normal(grid.shape + (grid.dim,)))
    fields = [V]
    if grid.dim == 2:
        fields.append(VectorField(grid, np.broadcast_to(
            rng.standard_normal((grid.nodes[0], 1, 2)), grid.shape + (2,))))
    for W, off in itertools.product(fields, dyadic_shifts(grid, 0.25)):
        box = interior_box(grid, math.hypot(*(o * h for o, h in zip(off, grid.h))))
        shifted = tuple(slice(b.start + o, b.stop + o) for b, o in zip(box, off))
        d = W.values[shifted] - W.values[box]
        mag = np.sqrt(np.sum(d * d, axis=-1)).ravel()
        for q in (1.0, 2.0, 3.7, np.inf):
            ref = (float(np.max(mag)) if np.isinf(q)
                   else float(np.sum(mag**q) * grid.cell_volume) ** (1.0 / q))
            assert shift_difference_norm(W, off, q) == ref, (off, q)
            assert (ref == 0.0) == (W is not V and off[0] == 0), (off, q)


# ---------------------------------------------------------------------------
# seminorm and exponent fit


def test_nikolskii_seminorm_basics():
    g = line(257)
    u = ScalarField.constant(g, 1.0)
    sh = dyadic_shifts(g, 0.25)
    assert nikolskii_seminorm(u, 2.0, 0.5, sh) == 0.0
    w = ScalarField(g, g.axis(0))
    # theta = 0 is the plain max of the difference norms
    norms = [shift_difference_norm(w, o, 2.0) for o in sh]
    assert nikolskii_seminorm(w, 2.0, 0.0, sh) == pytest.approx(max(norms))
    with pytest.raises(ValueError):
        nikolskii_seminorm(w, 2.0, 1.5, sh)
    with pytest.raises(ValueError):
        nikolskii_seminorm(w, 2.0, 0.5, ())
    with pytest.raises(ValueError, match="at least 1"):
        nikolskii_seminorm(u, math.nan, 0.5, sh)  # not a vacuous 0.0


def test_nikolskii_quotient_monotone_in_theta():
    # all dyadic shifts here have |v| <= 1, so v^-theta grows with theta
    g = line(513)
    u = ScalarField(g, np.abs(g.axis(0)) ** 0.75)
    sh = dyadic_shifts(g, 0.25)
    vals = [nikolskii_seminorm(u, 2.0, th, sh) for th in (0.0, 0.25, 0.5, 0.75)]
    assert vals == sorted(vals)


def test_nikolskii_dyadic_family_is_dense_enough():
    """The dyadic max quotient should essentially match an every-k family."""
    dyadic, full = dyadic_and_dense()
    assert dyadic <= full + 1e-12
    assert within("dyadic_to_dense", dyadic / full)


def test_fit_affine_gradient_slope_one():
    rep = line_fit("affine")
    # the shrinking interior pulls the slope a hair under 1
    assert within("fit_affine", rep.fitted_theta)
    assert rep.flag == "ok"
    assert rep.fit_r2 >= 0.9999


def test_fit_recovers_degenerate_growth_rate():
    g = line()
    orc = SharpnessOracle(p=4.0)
    _, G, _ = oracle_fields(orc, g)
    rep = fit_smoothness_exponent(G, 3.0, dyadic_shifts(g, 0.125))
    assert rep.fitted_theta == pytest.approx(2.0 / 3.0, abs=0.05)  # 1/(p-1) + 1/q
    assert rep.fit_r2 >= 0.98
    assert rep.flag == "ok"
    assert rep.n_fit >= 3


def test_fit_w1q_branch_saturates():
    # q below the critical index: the gradient is W^{1,q} and the rate -> 1
    g = line()
    orc = SharpnessOracle(p=4.0)
    _, G, _ = oracle_fields(orc, g)
    rep = fit_smoothness_exponent(G, 1.2, dyadic_shifts(g, 0.125))
    assert rep.fitted_theta >= 0.95
    assert rep.fit_r2 >= 0.98


def test_fit_constant_field_flagged():
    g = line(257)
    rep = fit_smoothness_exponent(
        ScalarField.constant(g, 5.0), 2.0, dyadic_shifts(g, 0.25)
    )
    assert rep.flag == "constant-like"
    assert rep.fitted_theta == 1.0
    assert rep.fitted_A == 0.0
    assert rep.n_fit == 0


def test_fit_noise_clips_at_zero():
    # iid noise has flat difference norms; the sampled slope is slightly
    # negative and must clip to 0
    rep = line_fit("noise")
    assert within("noise_slope", rep.raw_slope) and rep.flag == "clipped"
    assert rep.fitted_theta == 0.0  # with the flag: raw_slope < 0


def test_fit_window_defaults_and_fallback():
    g = Grid.line(0.0, 1.0, 1025)
    u = ScalarField(g, g.axis(0))
    sh = dyadic_shifts(g, 0.25)
    rep = fit_smoothness_exponent(u, 2.0, sh)
    lo, hi = rep.fit_window
    assert lo == pytest.approx(4.0 * g.h[0])
    assert hi == pytest.approx(0.25 / 2.0, rel=1e-6)
    assert rep.fallback is False
    # a family entirely below the window falls back to all nonzero shifts
    small = ((1,), (2,), (3,))
    rep2 = fit_smoothness_exponent(u, 2.0, small)
    assert rep2.n_fit == 3
    assert rep2.fallback is True
    assert rep2.fit_window == (g.h[0], 3 * g.h[0])


def test_fit_window_reports_fallback_span(tmp_path):
    # 65 nodes, delta 0.125: shifts h, 2h, 4h all lie below the default
    # window [4h, 2h], so the fit falls back to all three and must say so
    g = line(65)
    _, grad, _ = oracle_fields(SharpnessOracle(p=3.0), g)
    rep = fit_smoothness_exponent(grad, 2.5, dyadic_shifts(g, 0.125))
    assert rep.n_fit == 3
    assert rep.fit_window == (rep.v_mags[0], rep.v_mags[-1]) == (0.03125, 0.125)
    assert rep.fallback is True
    write_seminorm_report(rep, tmp_path)
    assert json.loads((tmp_path / "seminorm.json").read_text())["fallback"] is True


def test_fit_validation():
    g = line(65)
    u = ScalarField(g, g.axis(0))
    with pytest.raises(ValueError, match="3 distinct"):
        fit_smoothness_exponent(u, 2.0, ((1,), (2,)))
    for q in (0.5, math.nan):
        with pytest.raises(ValueError, match="at least 1"):
            fit_smoothness_exponent(u, q, ((1,), (2,), (4,)))
    # parity field: only odd shifts differ, so a single shift carries signal
    par = ScalarField(g, np.where(np.arange(65) % 2 == 0, 1.0, -1.0))
    with pytest.raises(ValueError, match="carry signal"):
        fit_smoothness_exponent(par, 2.0, ((1,), (2,), (4,)))


# ---------------------------------------------------------------------------
# Sobolev-scale norms


def test_sobolev_seminorm_pinned_affine_value():
    # V = (x1, 0): Jacobian is e11, so seminorm^2 = measure of the interior
    for g in (line(513), Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65))):
        v = g.coords()
        v[..., 1:] = 0.0
        V = VectorField(g, v)
        sm = sobolev_w12_seminorm(V, 0.25)
        assert sm**2 == pytest.approx(measure(g, 0.25), rel=1e-12)
        full = sobolev_w12_seminorm(V)
        assert full**2 == pytest.approx(g.num_nodes * g.cell_volume, rel=1e-12)


def test_sobolev_seminorm_constant_is_zero():
    g = line(129)
    V = VectorField(g, np.full(g.shape + (1,), 2.0))
    assert sobolev_w12_seminorm(V) == 0.0
    # norm keeps the field magnitude
    expected = 2.0 * math.sqrt(g.num_nodes * g.cell_volume)
    assert sobolev_w12_norm(V) == pytest.approx(expected, rel=1e-12)


def test_sobolev_seminorm_matches_dense_quadrature():
    errs = {n: w12_error(n) for n in (33, 65)}
    assert within("w12_h", *(err / h for err, h in errs.values()))
    assert within("w12_ratio", errs[65][0] / errs[33][0])


def test_sobolev_w1p_norm_constant():
    g = Grid.line(0.0, 1.0, 101)
    u = ScalarField.constant(g, 3.0)
    assert sobolev_w1p_norm(u, 4.0) == pytest.approx(
        (3.0**4 * g.num_nodes * g.cell_volume) ** 0.25, rel=1e-12
    )
    for p in (0.5, math.nan):
        with pytest.raises(ValueError, match="at least 1"):
            sobolev_w1p_norm(u, p)


def test_sobolev_mask_validation():
    g = line(65)
    V = VectorField(g, g.coords())
    with pytest.raises(ValueError, match="empty"):
        sobolev_w12_seminorm(V, 5.0)


# ---------------------------------------------------------------------------
# composition bound


def test_composition_bound_constant_field():
    g = line(257)
    V = VectorField(g, np.full(g.shape + (1,), 1.5))
    lhs, rhs = composition_bound_check(V, 0.5)
    assert lhs == 0.0 and rhs == 0.0


def test_composition_bound_affine_field():
    g = line(513)
    V = VectorField(g, 0.8 * g.coords())
    for theta in (0.4, 0.6, 0.9):
        lhs, rhs = composition_bound_check(V, theta)
        assert lhs <= rhs
        assert rhs == pytest.approx(
            COMPOSITION_C[1] * HOLDER_M * sobolev_w12_seminorm(V) ** theta
        )


def test_composition_bound_on_oracle_transforms():
    """V = alpha(grad u) with s = 1/theta, the shape the verification
    suite feeds through beta; lhs <= rhs across the admissible thetas."""
    for p in (3.0, 4.0):
        orc = SharpnessOracle(p=p)
        g = line()
        _, G, _ = oracle_fields(orc, g)
        for theta in (2.0 / p, 0.5 * (2.0 / p + 2.0 / (p - 1.0))):
            from plapreg.pointwise import alpha_s

            V = VectorField(g, alpha_s(G.values, 0.0, 1.0 / theta))
            lhs, rhs = composition_bound_check(V, theta)
            assert lhs <= rhs, (p, theta, lhs, rhs)
            assert lhs > 0.0


def test_composition_bound_validation():
    g = line(65)
    V = VectorField(g, g.coords())
    with pytest.raises(ValueError, match="theta"):
        composition_bound_check(V, 0.0)
    with pytest.raises(ValueError, match="theta"):
        composition_bound_check(V, 1.0)


@given(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
    st.floats(0.2, 0.95),
)
def test_beta_step_pointwise_hoelder(wv, vv, theta):
    # the pointwise inequality behind the composition bound
    w = np.array(wv)
    v = np.array(vv)
    dl = np.linalg.norm(beta_theta(w, theta) - beta_theta(v, theta))
    dr = HOLDER_M * np.linalg.norm(w - v) ** theta
    assert dl <= dr + 1e-10


# ---------------------------------------------------------------------------
# report output


def test_write_seminorm_report(tmp_path):
    g = line(513)
    u = ScalarField(g, np.abs(g.axis(0)))
    rep = fit_smoothness_exponent(u, 2.0, dyadic_shifts(g, 0.125))
    write_seminorm_report(rep, tmp_path)
    data = json.loads((tmp_path / "seminorm.json").read_text())
    assert data["q"] == 2.0
    assert data["flag"] == rep.flag
    assert len(data["per_shift_norm"]) == len(rep.offsets)
    lines = (tmp_path / "seminorm.csv").read_text().splitlines()
    assert lines[0] == "v_mag,vx,norm"
    assert len(lines) == 1 + len(rep.offsets)


def test_report_q_inf_serializes(tmp_path):
    g = line(257)
    u = ScalarField(g, np.abs(g.axis(0)))
    rep = fit_smoothness_exponent(u, np.inf, dyadic_shifts(g, 0.25))
    write_seminorm_report(rep, tmp_path)
    data = json.loads((tmp_path / "seminorm.json").read_text())
    assert data["q"] == "inf"
