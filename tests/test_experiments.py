"""Oracle identities, exponent-table verification, eps sweeps, scaling."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from plapreg.defaults import SolverError
from plapreg.fields import Grid, ProblemSpec, ScalarField
from plapreg.pointwise import PLapParams
from plapreg.experiments import (
    SharpnessOracle,
    oracle_fields,
    oracle_problem,
    run_eps_sweep,
    run_scaling_check,
    run_theorem1_check,
    table_exponent,
    write_scaling_report,
    write_sweep_result,
    write_theorem1_report,
)
from plapreg.experiments import _cell_verdict


# ---------------------------------------------------------------------------
# the closed-form oracle


def test_oracle_validates_parameters():
    with pytest.raises(ValueError, match="p >= 3"):
        SharpnessOracle(p=2.5)
    with pytest.raises(ValueError, match="finite"):
        SharpnessOracle(p=math.inf)


def test_oracle_profile_values():
    orc = SharpnessOracle(p=3.0)
    assert orc.p_prime == pytest.approx(1.5)
    assert orc.u(np.array(1.0)) == pytest.approx(2.0 / 3.0)
    assert orc.u(np.array(0.0)) == 0.0
    assert orc.u(np.array(-1.0)) == pytest.approx(2.0 / 3.0)  # even profile
    g = orc.grad1(np.array([-0.25, 0.0, 0.25]))
    assert g[0] == -g[2] and g[1] == 0.0


def test_oracle_flux_identity_exact():
    for p in (3.0, 4.0, 5.0):
        orc = SharpnessOracle(p=p)
        x = np.linspace(-1.0, 1.0, 1001)
        g = orc.grad1(x)
        flux = np.abs(g) ** (p - 2.0) * g
        np.testing.assert_allclose(flux, x, rtol=1e-12, atol=1e-13)


def test_oracle_fields_solve_the_pde_exactly():
    # the flux of the *analytic* gradient is the affine field x1, whose
    # second-order difference divergence is exactly the source f = 1 at
    # every node
    def _flux_divergence(p, grad):
        mag = np.linalg.norm(grad.values, axis=-1)
        flux = mag[..., None] ** (p - 2.0) * grad.values
        h = grad.grid.h
        return sum(np.gradient(flux[..., k], h[k], axis=k, edge_order=2)
                   for k in range(len(h)))

    orc = SharpnessOracle(p=4.0)
    g1 = Grid.line(-1.0, 1.0, 513)
    u, grad, f = oracle_fields(orc, g1)
    np.testing.assert_allclose(f.values, 1.0)
    np.testing.assert_allclose(_flux_divergence(orc.p, grad), 1.0, atol=1e-11)

    orc2 = SharpnessOracle(p=3.0)
    g2 = Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 33))
    u2, grad2, _ = oracle_fields(orc2, g2)
    assert np.all(grad2.values[..., 1] == 0.0)
    np.testing.assert_allclose(_flux_divergence(orc2.p, grad2), 1.0, atol=1e-11)


def test_oracle_problem_wiring():
    orc = SharpnessOracle(p=4.0)
    g = Grid.line(-1.0, 1.0, 129)
    spec = oracle_problem(orc, g, eps=1e-3)
    assert spec.params.p == 4.0
    assert spec.params.eps == 1e-3
    assert spec.params.s == 2.0  # defaults to p / 2
    assert spec.params.theta == pytest.approx(0.5)
    np.testing.assert_allclose(spec.g.values, orc.u(g.axis(0)))
    assert replace(spec.params, s=1.7).s == 1.7


# ---------------------------------------------------------------------------
# exponent table


@pytest.mark.parametrize(
    "p,q,expected",
    [
        (3.0, 2.5, 0.5 + 0.4),
        (3.0, 1.5, 1.0),
        (3.0, math.inf, 0.5),
        (4.0, 3.0, 2.0 / 3.0),
        (4.0, 6.0, 0.5),
        (4.0, 1.2, 1.0),
        (5.0, 4.0, 0.25 + 0.25),
    ],
)
def test_table_exponent_values(p, q, expected):
    assert table_exponent(p, q) == pytest.approx(expected)


def test_table_exponent_requires_p_above_two():
    for p in (2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="p > 2"):
            table_exponent(p, 2.5)


def test_table_exponent_requires_q_at_least_one():
    """q < 1 and NaN are rejected, where NaN used to fall through to the
    saturated rate 1 and a NaN table cell of the theorem-1 check passed."""
    for q in (0.5, math.nan):
        with pytest.raises(ValueError, match="q must be at least 1"):
            table_exponent(4.0, q)
    with pytest.raises(ValueError, match="q must be at least 1"):
        run_theorem1_check(4.0, qs=[math.nan])


# ---------------------------------------------------------------------------
# theorem-1 style verification


def test_theorem1_check_p4():
    rep = run_theorem1_check(4.0, nodes=1025, include_qinf=True)
    assert rep.passed
    kinds = [c.kind for c in rep.cells]
    assert kinds == [
        "table",
        "theta-target",
        "theta-target",
        "w1q",
        "holder",
        "negative-control",
    ]
    for c in rep.cells:
        assert c.verdict == "pass", (c.kind, c.q, c.theta_hat)
        assert c.r2 >= 0.98
    table = rep.cells[0]
    assert table.q == 3.0
    assert table.theta_hat == pytest.approx(2.0 / 3.0, abs=0.05)
    holder = rep.cells[4]
    assert math.isinf(holder.q)
    assert holder.theta_hat == pytest.approx(1.0 / 3.0, abs=0.05)


def test_theorem1_check_endpoint_not_adjudicated():
    # q = (p-1)/(p-2) = 2 at p = 3 sits on the table edge
    rep = run_theorem1_check(3.0, qs=[2.0], nodes=513)
    assert rep.cells[0].verdict == "endpoint"
    assert rep.passed  # endpoint cells do not fail a report


def test_cell_verdict_branches():
    assert _cell_verdict("table", 4.0, 3.0, 2 / 3, 2 / 3, 0.5) == "inconclusive"
    assert _cell_verdict("table", 4.0, 3.0, 2 / 3, 0.9, 0.999) == "fail"
    assert _cell_verdict("w1q", 4.0, 1.2, 1.0, 0.96, 0.999) == "pass"
    assert _cell_verdict("w1q", 4.0, 1.2, 1.0, 0.90, 0.999) == "fail"
    assert _cell_verdict("negative-control", 4.0, 6.0, 0.5, 0.4, 0.999) == "pass"
    assert _cell_verdict("negative-control", 4.0, 6.0, 0.5, 0.6, 0.999) == "fail"
    assert _cell_verdict("table", 3.0, 2.0, 0.9, 0.5, 0.999) == "endpoint"


def test_theorem1_report_roundtrip(tmp_path):
    rep = run_theorem1_check(4.0, nodes=513)
    write_theorem1_report(rep, tmp_path)
    data = json.loads((tmp_path / "theorem1.json").read_text())
    assert data["passed"] == rep.passed
    assert len(data["cells"]) == len(rep.cells)
    lines = (tmp_path / "theorem1.csv").read_text().splitlines()
    assert lines[0] == "p,q,kind,theta_target,theta_hat,r2,verdict"
    assert len(lines) == 1 + len(rep.cells)


# ---------------------------------------------------------------------------
# eps sweep


def small_oracle_template(p=3.0, nodes=257, eps=0.1, s=None):
    spec = oracle_problem(SharpnessOracle(p=p), Grid.line(-1.0, 1.0, nodes), eps=eps)
    return spec if s is None else replace(spec, params=replace(spec.params, s=s))


def test_eps_sweep_uniform_in_regime():
    template = small_oracle_template()
    res = run_eps_sweep(template, eps_values=(1e-1, 1e-2, 1e-3))
    assert res.mode == "thm2"
    assert res.verdict == "pass"
    assert res.eps_values == (1e-1, 1e-2, 1e-3)
    assert res.uniformity_factor < 2.0
    assert res.trend_factor < 2.0
    for c in res.cells:
        assert c.iterations > 0
        assert c.w1p_norm > 0.0


def test_eps_sweep_outside_regime_is_labelled():
    template = small_oracle_template(s=0.9)
    res = run_eps_sweep(template, eps_values=(1e-1, 1e-2))
    assert res.s == 0.9
    assert res.mode == "outside"
    assert res.verdict == "outside-theorem"


def test_eps_sweep_single_tail_value_is_inconclusive():
    # one eps, or two eps more than a factor 100 apart, leave a one-cell
    # tail: there is nothing to compare, so no pass and no fail
    template = small_oracle_template(nodes=129)
    for eps_values in ((1e-3,), (1e-1, 1e-4)):
        res = run_eps_sweep(template, eps_values=eps_values)
        assert res.mode == "thm2"
        assert res.verdict == "inconclusive"


def test_eps_sweep_aborts_on_unconverged(monkeypatch):
    import plapreg.solver

    def fake_solve(spec):
        from plapreg.solver import SolveResult

        return SolveResult(
            u=spec.g, energy=0.0, el_residual=1.0, iterations=200,
            stop_reason="stalled", trace=[],
        )

    monkeypatch.setattr(plapreg.solver, "solve", fake_solve)
    template = small_oracle_template(nodes=65)
    with pytest.raises(SolverError, match="failed to converge: stalled after 200 iterations"):
        run_eps_sweep(template, eps_values=(1e-1,))


def test_eps_sweep_validation():
    template = small_oracle_template(nodes=65)
    with pytest.raises(ValueError, match="positive"):
        run_eps_sweep(template, eps_values=(0.0, 0.1))
    with pytest.raises(ValueError, match="interior"):
        run_eps_sweep(template, eps_values=(0.1,), delta=3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_eps_sweep_rejects_a_non_finite_eps_before_any_solve(monkeypatch, bad):
    import plapreg.solver

    def no_solve(spec):
        raise AssertionError(f"solved eps = {spec.params.eps:g}")

    monkeypatch.setattr(plapreg.solver, "solve", no_solve)
    template = small_oracle_template(nodes=65)
    for eps_values in ((0.1, bad), (bad, 0.1)):
        with pytest.raises(ValueError, match="eps values must be positive and finite"):
            run_eps_sweep(template, eps_values=eps_values)


def test_sweep_result_roundtrip(tmp_path):
    template = small_oracle_template(nodes=129)
    res = run_eps_sweep(template, eps_values=(1e-1, 1e-2))
    write_sweep_result(res, tmp_path)
    data = json.loads((tmp_path / "sweep.json").read_text())
    assert data["verdict"] == res.verdict
    assert [c["eps"] for c in data["cells"]] == [c.eps for c in res.cells]
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "eps,w1p_norm,alpha_w12,el_residual,iterations"
    assert len(lines) == 1 + len(res.cells)


# ---------------------------------------------------------------------------
# scaling


def torsion(nodes=257, p=3.0, eps=1e-2):
    g = Grid.line(-1.0, 1.0, nodes)
    return ProblemSpec(
        g,
        PLapParams(p=p, eps=eps, s=p / 2.0),
        ScalarField.constant(g, 1.0),
        ScalarField.constant(g, 0.0),
    )


def test_scaling_identity_lambda_one():
    rep = run_scaling_check(torsion(nodes=129), lam=1.0)
    assert rep.passed
    assert rep.u_gap == 0.0  # identical deterministic solves
    assert rep.alpha_rel_gap == 0.0


@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_scaling_law_holds(lam):
    rep = run_scaling_check(torsion(), lam=lam)
    assert rep.passed
    assert rep.u_gap <= rep.u_tol
    assert rep.alpha_rel_gap <= 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lam", [1e-15, 1e15])
def test_scaling_law_holds_at_extreme_lambda_in_2d(lam):
    """At p = 5 the scaled problem's Hessians carry lam^(p-2) = 1e-45 or
    1e+45, outside float32's range; the 2D factor, taken in float32 after
    scaling K to unit diagonal, still solves both problems to the law."""
    g = Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33))
    rep = run_scaling_check(oracle_problem(SharpnessOracle(p=5.0), g, eps=1e-3), lam=lam)
    assert rep.passed


def test_scaling_scales_the_source():
    # lam^{p-1} on f is what makes the minimizer scale linearly; feeding
    # the wrong power must break the match by far more than the tolerance
    spec = torsion(nodes=129, p=3.0)
    from plapreg.solver import solve

    base = solve(spec)
    lam = 2.0
    wrong = ProblemSpec(
        spec.grid,
        PLapParams(p=3.0, eps=lam * spec.params.eps, s=1.5),
        ScalarField(spec.grid, lam * spec.f.values),  # should be lam^2
        spec.g,
    )
    gap = float(np.max(np.abs(solve(wrong).u.values - lam * base.u.values)))
    assert gap > 100.0 * rep_tol(wrong)


def rep_tol(spec):
    from plapreg.solver import residual_tolerance

    return 10.0 * residual_tolerance(spec)


def test_scaling_validation_and_roundtrip(tmp_path):
    with pytest.raises(ValueError, match="positive"):
        run_scaling_check(torsion(nodes=65), lam=0.0)
    rep = run_scaling_check(torsion(nodes=129), lam=0.5)
    write_scaling_report(rep, tmp_path)
    data = json.loads((tmp_path / "scaling.json").read_text())
    assert data["passed"] == rep.passed
    assert data["lam"] == 0.5
