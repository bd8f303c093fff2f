"""Discrete energy, its exact gradient, and the Newton continuation solve."""

import csv
import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

from plapreg.fields import Grid, ScalarField
from plapreg.pointwise import PLapParams
from plapreg.solver import (
    ProblemSpec,
    energy,
    energy_and_gradient,
    energy_upper_bound,
    el_residual,
    grad_tolerance,
    residual_tolerance,
    solve,
    write_solve_result,
    _eps_path,
    _path,
)
from plapreg.experiments import SharpnessOracle, oracle_problem


def torsion_spec(grid, p, eps):
    """f = 1, g = 0."""
    return ProblemSpec(
        grid,
        PLapParams(p=p, eps=eps),
        ScalarField.constant(grid, 1.0),
        ScalarField.constant(grid, 0.0),
    )


# ---------------------------------------------------------------------------
# energy and gradient


def test_energy_of_constant_field():
    # cells see a zero gradient: E = |domain| * eps^p / p + integral of c * f
    g = Grid.line(-1.0, 1.0, 65)
    spec = ProblemSpec(
        g,
        PLapParams(p=3.0, eps=1.0),
        ScalarField.constant(g, 0.0),
        ScalarField.constant(g, 2.0),
    )
    assert energy(spec, ScalarField.constant(g, 2.0)) == pytest.approx(
        2.0 / 3.0, rel=1e-14
    )


def test_energy_rejects_boundary_mismatch():
    g = Grid.line(0.0, 1.0, 9)
    spec = torsion_spec(g, 3.0, 0.1)
    with pytest.raises(ValueError, match="boundary"):
        energy(spec, ScalarField.constant(g, 1.0))


def test_problem_spec_rejects_foreign_fields():
    g = Grid.line(0.0, 1.0, 9)
    other = Grid.line(0.0, 1.0, 11)
    with pytest.raises(ValueError):
        ProblemSpec(
            g,
            PLapParams(p=3.0, eps=0.1),
            ScalarField.constant(other, 1.0),
            ScalarField.constant(g, 0.0),
        )


@pytest.mark.parametrize("dim", [1, 2])
def test_energy_gradient_matches_difference_quotient(dim):
    rng = np.random.default_rng(10 + dim)
    if dim == 1:
        g = Grid.line(0.0, 1.0, 17)
    else:
        g = Grid.box((0.0, 0.0), (1.0, 1.0), (7, 6))
    f = ScalarField(g, rng.standard_normal(g.shape))
    gb = ScalarField(g, rng.standard_normal(g.shape))
    spec = ProblemSpec(g, PLapParams(p=3.5, eps=0.2), f, gb)
    vals = gb.values.copy()
    bump = rng.standard_normal(g.shape) * 0.3
    bump[g.boundary_flags()] = 0.0
    vals += bump
    u = ScalarField(g, vals)
    e0, grad = energy_and_gradient(spec, u)

    flat = vals.ravel()
    step = 1e-5  # balances truncation against energy-difference roundoff
    for idx in rng.choice(g.num_nodes, size=12, replace=False):
        lo, hi = flat.copy(), flat.copy()
        lo[idx] -= step
        hi[idx] += step
        # raw energies: nudged boundary nodes are no longer admissible
        from plapreg.solver import _energy_raw

        fd = (
            _energy_raw(spec, hi.reshape(g.shape))
            - _energy_raw(spec, lo.reshape(g.shape))
        ) / (2 * step)
        assert grad.values.ravel()[idx] == pytest.approx(fd, rel=1e-6, abs=1e-5)


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_gradient_is_exact_at_cell_centers(dim):
    # the forward difference (1D) and the corner-averaged differences (2D)
    # reproduce the gradient at the cell center of u = x^2 + x and of the
    # bilinear u = 1 + 2x - 3y + 5xy exactly
    from plapreg.solver import _cell_gradients

    if dim == 1:
        g = Grid.line(0.0, 1.0, 17)
        u = ScalarField.from_function(g, lambda x: x**2 + x)
        grad = lambda x: (2 * x + 1,)
    else:
        g = Grid.box((0.0, 0.0), (1.0, 1.0), (7, 6))
        u = ScalarField.from_function(g, lambda x, y: 1 + 2 * x - 3 * y + 5 * x * y)
        grad = lambda x, y: (2 + 5 * y, -3 + 5 * x)
    centers = np.meshgrid(*[(a[1:] + a[:-1]) / 2 for a in g.axes()], indexing="ij")
    expected = np.stack(grad(*centers), axis=-1).reshape(-1, dim)
    np.testing.assert_allclose(_cell_gradients(g, u.values), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_interior_hessian_matches_gradient_difference_quotient(dim):
    from plapreg.solver import _gradient_operator, _gradient_raw, _interior_hessian

    rng = np.random.default_rng(20 + dim)
    if dim == 1:
        g = Grid.line(0.0, 1.0, 17)
    else:
        g = Grid.box((0.0, 0.0), (1.0, 1.0), (7, 6))
    f = ScalarField(g, rng.standard_normal(g.shape))
    gb = ScalarField(g, rng.standard_normal(g.shape))
    spec = ProblemSpec(g, PLapParams(p=3.5, eps=0.2), f, gb)
    vals = gb.values + rng.standard_normal(g.shape) * 0.3
    # K_II's rows and columns follow the interior elimination order
    order = _gradient_operator(g)[3]
    K = _interior_hessian(spec, vals, 0.2).toarray()
    assert K.shape == (len(order),) * 2
    np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-12 * np.abs(K).max())

    step = 1e-6
    for col, idx in enumerate(order):
        lo, hi = vals.copy(), vals.copy()
        lo.ravel()[idx] -= step
        hi.ravel()[idx] += step
        fd = (_gradient_raw(spec, hi) - _gradient_raw(spec, lo)).ravel()[order] / (2 * step)
        np.testing.assert_allclose(K[:, col], fd, rtol=1e-6, atol=1e-6 * np.abs(K).max())


@pytest.mark.parametrize("shape", [(17,), (3, 3), (4, 9), (7, 6), (33, 33)])
def test_elimination_order_is_a_permutation_of_the_interior(shape):
    from plapreg.solver import _gradient_operator

    if len(shape) == 1:
        g = Grid.line(0.0, 1.0, shape[0])
    else:
        g = Grid.box((0.0, 0.0), (1.0, 1.0), shape)
    order = _gradient_operator(g)[3]
    interior = np.flatnonzero(~g.boundary_flags().ravel())
    np.testing.assert_array_equal(np.sort(order), interior)


def test_ordered_newton_step_matches_c_order_spsolve():
    """The step solved in elimination order equals spsolve of the Hessian
    assembled with interior unknowns in C order."""
    from plapreg.pointwise import hess_L_eps
    from plapreg.solver import (
        _LinearSolves, _cell_gradients, _gradient_operator, _gradient_raw, _interior_hessian,
    )

    rng = np.random.default_rng(33)
    g = Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33))
    spec = ProblemSpec(g, PLapParams(p=3.0, eps=1e-2), ScalarField.constant(g, 1.0),
                       ScalarField.constant(g, 0.0))
    vals = np.where(g.boundary_flags(), 0.0, 0.1 * rng.standard_normal(g.shape))
    D, _, _, order = _gradient_operator(g)
    interior = ~g.boundary_flags().ravel()
    grad = _gradient_raw(spec, vals, 1e-2).ravel()

    Hc = g.cell_volume * hess_L_eps(_cell_gradients(g, vals), 1e-2, 3.0)
    m = len(Hc)
    D_C = D[:, interior].tocsc()
    K_C = D_C.T @ sp.bsr_matrix((Hc, np.arange(m), np.arange(m + 1))).tocsc() @ D_C
    ref = np.zeros(g.num_nodes)
    ref[interior] = spla.spsolve(K_C, -grad[interior])

    step = _LinearSolves(lagged=False).direct(_interior_hessian(spec, vals, 1e-2), -grad[order])
    np.testing.assert_allclose(step, ref[order], rtol=0, atol=1e-12 * np.abs(ref).max())


def test_energy_matches_dense_quadrature():
    """Cell-centered bulk + trapezoid source agree with adaptive quadrature
    to O(h^2) on a smooth profile."""
    p, eps = 3.0, 0.1
    du = lambda x: 2 * np.pi * np.cos(2 * np.pi * x)
    exact = (
        quad(lambda x: (eps**2 + du(x) ** 2) ** (p / 2) / p, 0.5, 1.5, limit=400)[0]
        + quad(lambda x: np.sin(2 * np.pi * x) * x, 0.5, 1.5, limit=400)[0]
    )
    errs = {}
    for nodes in (257, 513):
        g = Grid.line(0.5, 1.5, nodes)
        spec = ProblemSpec(
            g,
            PLapParams(p=p, eps=eps),
            ScalarField.from_function(g, lambda x: x),
            ScalarField.from_function(g, lambda x: np.sin(2 * np.pi * x)),
        )
        u = ScalarField.from_function(g, lambda x: np.sin(2 * np.pi * x))
        errs[nodes] = abs(energy(spec, u) - exact)
        assert errs[nodes] <= 180.0 * g.h[0] ** 2  # measured 173.7 h^2
    assert 0.2 <= errs[513] / errs[257] <= 0.3


# ---------------------------------------------------------------------------
# solve


def test_solve_constant_data_is_exact():
    g = Grid.line(0.0, 1.0, 33)
    spec = ProblemSpec(
        g,
        PLapParams(p=3.0, eps=0.5),
        ScalarField.constant(g, 0.0),
        ScalarField.constant(g, 1.5),
    )
    r = solve(spec)
    assert r.converged
    np.testing.assert_allclose(r.u.values, 1.5, rtol=0, atol=1e-12)


def test_solve_requires_positive_eps():
    g = Grid.line(0.0, 1.0, 9)
    spec = torsion_spec(g, 3.0, 0.1)
    with pytest.raises(ValueError, match="eps"):
        solve(ProblemSpec(g, PLapParams(p=3.0, eps=0.0), spec.f, spec.g))
    with pytest.raises(ValueError, match="grid"):
        solve(spec, u0=ScalarField.constant(Grid.line(0.0, 1.0, 11), 0.0))


def test_solve_tracks_degenerate_oracle():
    """p = 3 profile with flux exactly x: the eps-regularized minimizer on
    4097-class grids tracks it to a few times 1e-6 and tightens under
    refinement faster than first order."""
    orc = SharpnessOracle(p=3.0, dim=1)
    errs = {}
    for nodes in (1025, 2049):
        g = Grid.line(-1.0, 1.0, nodes)
        spec = oracle_problem(orc, g, eps=1e-4)
        r = solve(spec)
        assert r.converged
        assert r.el_residual <= residual_tolerance(spec)
        errs[nodes] = float(np.max(np.abs(r.u.values - orc.u(g.axis(0)))))
        print(f"nodes={nodes}: sup err={errs[nodes]:.3e} iters={r.iterations}")
    assert errs[1025] <= 8.0e-6  # measured 5.17e-6
    assert errs[2049] / errs[1025] <= 0.45  # measured 0.355


def test_solve_is_init_independent():
    orc = SharpnessOracle(p=3.0, dim=1)
    g = Grid.line(-1.0, 1.0, 513)
    spec = oracle_problem(orc, g, eps=1e-3)
    r1 = solve(spec)
    bump = 0.3 * np.sin(np.pi * (g.axis(0) + 1.0) / 2.0)
    r2 = solve(spec, u0=ScalarField(g, spec.g.values + bump))
    assert r1.converged and r2.converged
    gap = float(np.max(np.abs(r1.u.values - r2.u.values)))
    assert gap <= 10.0 * residual_tolerance(spec)


def test_solve_unconverged_is_flagged():
    g = Grid.line(-1.0, 1.0, 257)
    spec = torsion_spec(g, 4.0, 1e-4)
    r = solve(spec, max_iter=2)
    assert not r.converged
    assert r.iterations == 2


def test_eps_path_ends_exactly_at_eps():
    rng = np.random.default_rng(9)
    for eps in 10.0 ** rng.uniform(-6.0, -1.0, 2000):
        path = _eps_path(eps)
        assert path[-1] == eps and path[0] == 0.1 and len(path) >= 2


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 3.7e-5, 1e-6])
def test_path_continues_in_p_only_above_18(eps):
    """Up to p = 18 the (p, eps) path is the eps path at p.  Above, it starts
    at the first p / 2**n <= 18, doubles p at the eps path's first eps, and
    then walks the eps path at p, ending exactly at (p, eps)."""
    for p in (2.0, 3.0, 10.0, 18.0):
        assert _path(p, eps) == [(p, e) for e in _eps_path(eps)]
    for p in (18.5, 20.0, 36.5, 40.0, 80.0, 1000.0):
        path = _path(p, eps)
        p_stages = [stage for stage in path if stage[0] != p]
        assert path == p_stages + [(p, e) for e in _eps_path(eps)]
        assert 9.0 < p_stages[0][0] <= 18.0
        assert [2.0 * p_k for p_k, _ in p_stages] == [p_k for p_k, _ in path[1:len(p_stages) + 1]]
        assert {e for _, e in p_stages} == {_eps_path(eps)[0]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
@pytest.mark.parametrize("p", [20.0, 40.0])
@pytest.mark.parametrize("problem", ["torsion", "sharp"])
def test_high_p_solve_converges(problem, p, eps):
    """Continuation in p: above p = 18 a direct Newton solve from the harmonic
    start overflows and reaches the iteration cap; the p path converges in
    at most 40 steps, raising no floating-point warning."""
    g = Grid.line(-1.0, 1.0, 1025)
    if problem == "torsion":
        spec = torsion_spec(g, p, eps)
    else:
        spec = oracle_problem(SharpnessOracle(p=p), g, eps=eps)
    r = solve(spec)
    assert r.converged and r.stop_reason == "converged"
    assert r.iterations <= 40  # measured 24-31
    assert r.el_residual <= residual_tolerance(spec)


def test_stop_reasons():
    """`stop_reason` names why the final stage stopped, one case per reason."""
    g = Grid.line(-1.0, 1.0, 257)
    assert solve(torsion_spec(g, 3.0, 1e-3)).stop_reason == "converged"
    assert solve(torsion_spec(g, 3.0, 1e-3), max_iter=3).stop_reason == "max_iter"
    # the gradient norm of the p = 40 oracle at 4097 nodes stalls at ~2.2e-10,
    # just above grad_tolerance = 2.0e-10, with the EL residual far below its
    # tolerance
    spec = oracle_problem(SharpnessOracle(p=40.0), Grid.line(-1.0, 1.0, 4097), eps=2e-5)
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (False, "stalled")
    assert r.el_residual <= 1e-2 * residual_tolerance(spec)


def test_stop_reason_no_descent(monkeypatch):
    """A Newton step and a gradient step that both fail the line search end
    the solve at once."""
    import plapreg.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_line_search", lambda spec, vals, *rest: (vals, False))
    r = solve(torsion_spec(Grid.line(-1.0, 1.0, 257), 3.0, 1e-1))
    assert (r.converged, r.stop_reason, r.iterations, len(r.trace)) == (False, "no_descent", 0, 1)


def test_solve_result_is_its_last_evaluation():
    """A solve capped before its final stage evaluates the iterate it returns
    once more, at the requested (p, eps), and nowhere else; one capped at the
    step where it converges reports convergence."""
    g = Grid.line(-1.0, 1.0, 257)
    spec = torsion_spec(g, 4.0, 1e-4)
    capped = solve(spec, max_iter=2)
    assert capped.trace[-1][:2] == (2, capped.energy)
    assert capped.energy == energy(spec, capped.u)
    assert capped.el_residual == el_residual(spec, capped.u)
    # capped in the first of four eps stages, and of six (p, eps) stages
    for spec_k in (spec, torsion_spec(g, 40.0, 1e-4)):
        capped = solve(spec_k, max_iter=2)
        assert [row[0] for row in capped.trace] == [0, 1, 2, 2]
        assert capped.stop_reason == "max_iter"
        assert capped.energy == energy(spec_k, capped.u)
    full = solve(spec)
    assert full.converged
    at_cap = solve(spec, max_iter=full.iterations)
    assert at_cap.converged and at_cap.trace == full.trace
    np.testing.assert_array_equal(at_cap.u.values, full.u.values)


def test_solve_survives_singular_newton_system(monkeypatch):
    """Started directly at p = 80, a Newton system becomes exactly singular in
    floating point; the NaN step fails the line search, the step falls
    back to the gradient direction, and the solve reports unconverged
    instead of raising."""
    import plapreg.solver as solver_mod

    calls = []
    real_line_search = solver_mod._line_search

    def line_search(spec, vals, order, direction, e0, g_int, eps_k):
        out = real_line_search(spec, vals, order, direction, e0, g_int, eps_k)
        calls.append((np.isnan(direction).any(), np.array_equal(direction, -g_int), out[1]))
        return out

    monkeypatch.setattr(solver_mod, "_line_search", line_search)
    monkeypatch.setattr(solver_mod, "_P_DIRECT", 80.0)
    spec = oracle_problem(SharpnessOracle(p=80.0), Grid.line(-1.0, 1.0, 129), eps=1e-2)
    with np.errstate(over="ignore", invalid="ignore"):
        r = solve(spec, max_iter=5)
    assert not r.converged
    assert r.iterations == 5
    nan_step = next(i for i, (nan, _, _) in enumerate(calls) if nan)
    assert calls[nan_step][2] is False  # the NaN Newton step is rejected
    assert calls[nan_step + 1][1:] == (True, True)  # the gradient fallback is taken


def test_solve_2d_torsion():
    g = Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33))
    spec = torsion_spec(g, 3.0, 0.01)
    r = solve(spec)
    assert r.converged
    # domain and data are symmetric, so the minimizer is too
    np.testing.assert_allclose(r.u.values, r.u.values[::-1, :], atol=1e-9)
    np.testing.assert_allclose(r.u.values, r.u.values[:, ::-1], atol=1e-9)
    assert r.energy <= energy_upper_bound(spec, ScalarField.constant(g, 0.0))


def test_harmonic_start_factors_only_for_a_non_harmonic_trace():
    """The harmonic start factors only when g is not already its own harmonic
    extension.  A zero trace factors exactly as often as a solve started from
    g itself, and its 2D Newton steps reuse factors, so there are fewer
    factorizations than steps; the 1D oracle's kinked trace costs one
    harmonic-start factorization plus one per Newton step."""
    g = Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33))
    spec = torsion_spec(g, 3.0, 1e-3)
    r = solve(spec)
    assert r.converged and r.iterations == 7
    assert r.factorizations == solve(spec, u0=spec.g).factorizations
    assert 1 <= r.factorizations < r.iterations

    r = solve(oracle_problem(SharpnessOracle(p=3.0), Grid.line(-1.0, 1.0, 257), eps=1e-3))
    assert r.converged and r.iterations == 9
    assert r.factorizations == r.iterations + 1


def test_lagged_factor_matches_factoring_every_step(monkeypatch):
    """Reusing the last factor as a CG preconditioner takes the same Newton
    steps to the same minimizer as factoring every Hessian."""
    import plapreg.solver as solver_mod

    spec = torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65)), 3.0, 1e-3)
    lagged = solve(spec)
    monkeypatch.setattr(solver_mod, "_PCG_CAP", 0)
    direct = solve(spec)
    assert lagged.converged and direct.converged
    assert lagged.iterations == direct.iterations
    assert lagged.factorizations < direct.factorizations == direct.iterations
    assert lagged.cg_iterations > 0 and direct.cg_iterations == 0
    assert lagged.energy == pytest.approx(direct.energy, rel=1e-12)


@pytest.mark.parametrize("failure", ["capped", "non-finite"])
def test_failed_pcg_step_refactors_once(monkeypatch, failure):
    """A PCG solve that reaches the cap or returns a non-finite step is
    followed by exactly one factorization, whose direct solve is the step;
    a PCG solve that succeeds is followed by none."""
    import plapreg.solver as solver_mod

    events = []
    real_splu, real_cg = spla.splu, spla.cg

    def splu(*args, **kwargs):
        events.append("splu")
        return real_splu(*args, **kwargs)

    def cg(*args, **kwargs):
        step, info = real_cg(*args, **kwargs)
        if failure == "non-finite" and events.count("cg ok") == 2 and "cg failed" not in events:
            step = np.full_like(step, np.nan)
        events.append("cg ok" if info == 0 and np.isfinite(step).all() else "cg failed")
        return step, info

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(spla, "cg", cg)
    if failure == "capped":
        monkeypatch.setattr(solver_mod, "_PCG_CAP", 7)
    r = solve(torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65)), 3.0, 1e-3))
    assert r.converged
    assert events[0] == "splu" and "cg failed" in events
    for event, after in zip(events, events[1:] + ["end"]):
        expected = "splu" if event == "cg failed" else ("cg ok", "cg failed", "end")
        assert after in expected, events
    assert r.factorizations == events.count("splu") == 1 + events.count("cg failed")
    assert r.iterations == events.count("splu") + events.count("cg ok")


class _WeakFactor:
    """A SuperLU factor behind an object a weak reference can watch."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)


def test_old_factor_is_released_before_refactoring(monkeypatch):
    """When SuperLU is asked for a new factor, every reference to the old one
    (the kept factor, a preconditioner built on its solve) is gone, and none
    outlives the solve: in the 257^2 torsion solve, holding the old factor
    while SuperLU builds the new one raised peak RSS from 181 to 210 MB."""
    import plapreg.solver as solver_mod

    refs, live_at_entry = [], []
    real_splu = spla.splu

    def splu(*args, **kwargs):
        live_at_entry.append(sum(ref() is not None for ref in refs))
        factor = _WeakFactor(real_splu(*args, **kwargs))
        refs.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(spla, "splu", splu)
    # a small cap makes PCG fail often, so most steps refactor
    monkeypatch.setattr(solver_mod, "_PCG_CAP", 4)
    g = Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33))
    r = solve(torsion_spec(g, 3.0, 1e-3))
    assert r.converged and r.cg_iterations > 0 and r.factorizations >= 3
    assert live_at_entry == [0] * r.factorizations
    assert all(ref() is None for ref in refs)


def test_1d_newton_steps_are_direct_solves(monkeypatch):
    """1D factors every Newton step and never runs CG: its iterates are
    bitwise those of one fresh symmetric-mode SuperLU solve per step."""
    import plapreg.solver as solver_mod

    spec = oracle_problem(SharpnessOracle(p=3.0), Grid.line(-1.0, 1.0, 257), eps=1e-3)
    r = solve(spec)
    assert r.factorizations == r.iterations + 1 and r.cg_iterations == 0

    def fresh_factor_step(self, K, g_int, g_norm):
        lu = spla.splu(K, permc_spec="NATURAL", options={"SymmetricMode": True})
        return lu.solve(-g_int)

    monkeypatch.setattr(solver_mod._LinearSolves, "newton_step", fresh_factor_step)
    ref = solve(spec)
    assert r.trace == ref.trace
    np.testing.assert_array_equal(r.u.values, ref.u.values)


def test_solve_trace_energy_monotone():
    g = Grid.line(-1.0, 1.0, 513)
    spec = torsion_spec(g, 3.0, 1e-3)
    r = solve(spec)
    energies = [row[1] for row in r.trace]
    for a, b in zip(energies, energies[1:]):
        # stage switches re-evaluate at smaller eps, which only lowers E;
        # polish steps may wiggle at the rounding floor
        assert b <= a + 1e-12 * (1.0 + abs(a))


def test_minimizer_beats_perturbations():
    rng = np.random.default_rng(11)
    g = Grid.line(-1.0, 1.0, 129)
    spec = torsion_spec(g, 3.0, 0.05)
    r = solve(spec)
    e_star = energy(spec, r.u)
    for _ in range(10):
        bump = rng.standard_normal(g.shape)
        bump[g.boundary_flags()] = 0.0
        for t in (1e-3, 1e-1):
            trial = ScalarField(g, r.u.values + t * bump)
            assert energy(spec, trial) >= e_star - 1e-12 * (1.0 + abs(e_star))


def test_energy_monotone_in_eps():
    g = Grid.line(-1.0, 1.0, 257)
    vals = []
    for eps in (0.1, 0.05, 0.01):
        r = solve(torsion_spec(g, 3.0, eps))
        assert r.converged
        vals.append(r.energy)
    assert vals[0] >= vals[1] >= vals[2]


# ---------------------------------------------------------------------------
# residuals, tolerances, upper bound


def test_el_residual_small_at_minimizer_large_at_init():
    g = Grid.line(-1.0, 1.0, 513)
    spec = torsion_spec(g, 3.0, 0.01)
    r = solve(spec)
    assert el_residual(spec, r.u) <= residual_tolerance(spec)
    # harmonic-extension start (here u = 0) misses the source entirely
    assert el_residual(spec, ScalarField.constant(g, 0.0)) == pytest.approx(1.0)


def test_el_residual_of_interpolant_is_kink_limited():
    """Interpolating the degenerate profile leaves an RMS residual that
    decays like h^(1/2): the kink cell contributes an O(1) pointwise error
    on an O(h) window."""
    orc = SharpnessOracle(p=3.0, dim=1)
    res = {}
    for nodes in (513, 1025, 2049):
        g = Grid.line(-1.0, 1.0, nodes)
        spec = oracle_problem(orc, g, eps=1e-4)
        res[nodes] = el_residual(spec, ScalarField.from_function(g, orc.u))
    assert res[1025] == pytest.approx(3.94e-3, rel=0.05)
    for a, b in ((513, 1025), (1025, 2049)):
        assert res[b] / res[a] == pytest.approx(2.0**-0.5, abs=0.03)


def test_grad_and_residual_tolerances_scale():
    assert grad_tolerance(0.0) == pytest.approx(1e-10)
    assert grad_tolerance(99.0) == pytest.approx(1e-8)
    g = Grid.line(0.0, 1.0, 101)
    spec = torsion_spec(g, 3.0, 0.1)
    # f = 1: weighted L2 norm is sqrt(volume) = 1
    assert residual_tolerance(spec) == pytest.approx(1e-6 + 1e-10)


def test_energy_upper_bound_dominates():
    rng = np.random.default_rng(12)
    g = Grid.line(-1.0, 1.0, 65)
    spec = torsion_spec(g, 4.0, 0.5)
    u0 = ScalarField.constant(g, 0.0)
    # constant field: bound is |domain| / p plus the (zero) source pairing
    assert energy_upper_bound(spec, u0) == pytest.approx(2.0 / 4.0, rel=1e-14)
    assert solve(spec).energy <= energy_upper_bound(spec, u0)
    for _ in range(10):
        bump = rng.standard_normal(g.shape) * rng.uniform(0.1, 2.0)
        bump[g.boundary_flags()] = 0.0
        ub = ScalarField(g, bump)
        assert energy(spec, ub) <= energy_upper_bound(spec, ub) + 1e-12
    with pytest.raises(ValueError, match="eps"):
        energy_upper_bound(
            ProblemSpec(g, PLapParams(p=4.0, eps=1.5), spec.f, spec.g), u0
        )


# ---------------------------------------------------------------------------
# output


def test_write_solve_result(tmp_path):
    g = Grid.line(0.0, 1.0, 33)
    spec = torsion_spec(g, 3.0, 0.1)
    r = solve(spec)
    summary = write_solve_result(r, spec, tmp_path)
    for name in ("grid.json", "solution.csv", "solution.json", "trace.csv"):
        assert (tmp_path / name).exists()
    assert summary["converged"] is True
    assert summary["params"]["p"] == 3.0
    on_disk = json.loads((tmp_path / "solution.json").read_text())
    assert on_disk == summary
    with open(tmp_path / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "energy", "grad_norm"]
    assert len(rows) - 1 == len(r.trace)
    assert (tmp_path / "solution.csv").read_text().splitlines()[0] == "x1,value"
