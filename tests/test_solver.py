"""Discrete energy, its exact gradient, and the Newton continuation solve."""

import collections
import csv
import itertools
import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from frozen import (BOX_LINE_CASES, HIGH_P_CASES, OFFCENTRE_BOX, OFFCENTRE_EPS, WARNING_CASES,
                    box_line_gaps, box_problem, energy_error, energy_gap, high_p_solve,
                    interpolant_residual, line_exact_errors, line_search_steps,
                    line_search_trials, offcentre_box, offcentre_line, oracle_solve, radial_box,
                    steep_line, torsion_spec, warning_case, within)
from plapreg.fields import Grid, ProblemSpec, ScalarField
from plapreg.pointwise import PLapParams
from plapreg.solver import (
    energy,
    el_residual,
    grad_tolerance,
    residual_tolerance,
    solve,
    write_solve_result,
    _path,
)
from plapreg.experiments import SharpnessOracle, oracle_problem


# ---------------------------------------------------------------------------
# energy and gradient

def energy_at(spec, vals):
    """The energy at node values vals, boundary unchecked, from their cell state."""
    from plapreg.solver import _cell_state, _energy_raw
    return _energy_raw(spec, vals, _cell_state(spec, vals))


def gradient_at(spec, vals):
    """The nodal energy gradient at vals, from their cell state."""
    from plapreg.solver import _cell_state, _gradient_raw
    return _gradient_raw(spec, _cell_state(spec, vals))[0]


def hessian_at(spec, vals):
    """K_II at vals, from their cell state and flux weight, as `solve` builds it."""
    from plapreg.pointwise import hess_L_eps
    from plapreg.solver import _assemble, _cell_state, _gradient_raw
    c, l = cells = _cell_state(spec, vals)
    lp2 = _gradient_raw(spec, cells)[1]
    return _assemble(spec.grid, spec.grid.cell_volume * hess_L_eps(
        c, spec.params.eps, spec.params.p, l=l, lp2=lp2))


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
    """u off g at a boundary node is refused: on a line where every node is
    off g, and on a 65 x 33 box at one node of each face and at a corner; a
    changed interior node, next to the boundary or not, is admissible."""
    g = Grid.line(0.0, 1.0, 9)
    spec = torsion_spec(g, 3.0, 0.1)
    with pytest.raises(ValueError, match="boundary"):
        energy(spec, ScalarField.constant(g, 1.0))
    box = Grid.box((-1.0, 0.0), (1.0, 1.0), (65, 33))
    spec = torsion_spec(box, 3.0, 0.1)
    for node in [(0, 7), (64, 20), (30, 0), (11, 32), (64, 32)]:
        vals = np.zeros(box.shape)
        vals[node] = 1e-6
        with pytest.raises(ValueError, match="boundary"):
            energy(spec, ScalarField(box, vals))
    vals = np.zeros(box.shape)
    vals[1, 1] = vals[63, 31] = vals[32, 16] = 1.0
    assert np.isfinite(energy(spec, ScalarField(box, vals)))


@pytest.mark.parametrize("nodes", [(4097,), (65, 33), (257, 257)])
def test_el_residual_is_the_rms_over_the_nodes_off_the_boundary(nodes):
    """At a u that is not the minimizer, the EL residual is the RMS of the
    energy gradient over the node weight at the nodes that
    `Grid.boundary_flags` leaves out, in C order, bit for bit."""
    rng = np.random.default_rng(len(nodes))
    g = Grid.box((-1.0,) * len(nodes), (1.0,) * len(nodes), nodes)
    m = ~g.boundary_flags()
    spec = ProblemSpec(g, PLapParams(p=3.0, eps=1e-2), ScalarField(g, 1.0 + rng.random(g.shape)),
                       ScalarField(g, rng.standard_normal(g.shape)))
    vals = spec.g.values + np.where(m, 0.1 * rng.standard_normal(g.shape), 0.0)
    grad, w = gradient_at(spec, vals), g.quad_weights()
    assert np.abs(grad[m]).max() > 1e-3  # not the minimizer
    expected = float(np.sqrt(np.mean((grad[m] / w[m]) ** 2)))
    assert el_residual(spec, ScalarField(g, vals)) == expected


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
    grad = gradient_at(spec, vals)

    flat = vals.ravel()
    step = 1e-5  # balances truncation against energy-difference roundoff
    for idx in rng.choice(g.num_nodes, size=12, replace=False):
        lo, hi = flat.copy(), flat.copy()
        lo[idx] -= step
        hi[idx] += step
        # raw energies: nudged boundary nodes are no longer admissible
        fd = (
            energy_at(spec, hi.reshape(g.shape))
            - energy_at(spec, lo.reshape(g.shape))
        ) / (2 * step)
        assert grad.ravel()[idx] == pytest.approx(fd, rel=1e-6, abs=1e-5)


@pytest.mark.parametrize("dim", [1, 2])
def test_cell_gradient_is_exact_at_cell_centers(dim):
    # the forward difference (1D) and the corner-averaged differences (2D)
    # reproduce the gradient at the cell center of u = x^2 + x and of the
    # bilinear u = 1 + 2x - 3y + 5xy exactly
    from plapreg.solver import _cell_gradients

    if dim == 1:
        g = Grid.line(0.0, 1.0, 17)
        x = g.axis(0)
        u = ScalarField(g, x**2 + x)
        grad = lambda x: (2 * x + 1,)
    else:
        g = Grid.box((0.0, 0.0), (1.0, 1.0), (7, 6))
        x, y = np.moveaxis(g.coords(), -1, 0)
        u = ScalarField(g, 1 + 2 * x - 3 * y + 5 * x * y)
        grad = lambda x, y: (2 + 5 * y, -3 + 5 * x)
    centers = np.meshgrid(*[(a[1:] + a[:-1]) / 2 for a in g.axes()], indexing="ij")
    expected = np.stack(grad(*centers), axis=-1).reshape(-1, dim)
    np.testing.assert_allclose(_cell_gradients(g, u.values), expected, rtol=0, atol=1e-12)


def gradient_matrix(grid):
    """The cell gradient as a CSR matrix D (cells * dim rows, cell-major with
    components fastest; one column per node), as the solver built it before
    it summed corner slices: the reference for `_cell_gradients`."""
    dim = grid.dim
    ids = np.arange(grid.num_nodes).reshape(grid.shape)
    ncells = int(np.prod([n - 1 for n in grid.nodes]))
    cell_rows = np.arange(ncells * dim).reshape(ncells, dim)
    corners = list(itertools.product((0, 1), repeat=dim))
    G = np.array([[(2 * corner[k] - 1) / (2 ** (dim - 1) * h) for corner in corners]
                  for k, h in enumerate(grid.h)])
    rows, cols, coef = [], [], []
    for a, corner in enumerate(corners):
        node = ids[tuple(slice(c, c + n - 1) for c, n in zip(corner, grid.nodes))].ravel()
        for k in range(dim):
            rows.append(cell_rows[:, k])
            cols.append(node)
            coef.append(np.full(ncells, G[k, a]))
    return sp.csr_matrix(
        (np.concatenate(coef), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ncells * dim, grid.num_nodes),
    )


def bits(a):
    """The bit patterns of a float array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("lo, hi, nodes", [
    ((-0.7,), (1.3,), (33,)),
    ((0.3, -1.2), (1.1, 0.4), (7, 6)),
    ((-2.0, 0.5), (1.0, 1.25), (33, 17)),
])
def test_cell_gradient_and_adjoint_match_the_csr_matrix_bitwise(lo, hi, nodes):
    """c = D u and D^T w summed over corner slices equal the CSR products
    with D and D^T bit for bit, sign bits of zeros included: the same
    products added in the same order."""
    from plapreg.solver import _cell_gradients, _gradient_adjoint

    rng = np.random.default_rng(len(nodes) * 100 + nodes[-1])
    g = Grid.box(lo, hi, nodes)
    D = gradient_matrix(g)

    def with_zeros(shape):
        """Normal values, a third of them replaced by 0.0 and a third by -0.0."""
        pick = rng.integers(0, 3, size=shape)
        return np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, rng.standard_normal(shape)))

    u = with_zeros(g.shape)
    c = _cell_gradients(g, u)
    assert c.shape == (D.shape[0] // g.dim, g.dim)
    np.testing.assert_array_equal(bits(c), bits((D @ u.ravel()).reshape(c.shape)))
    w = with_zeros(c.shape)
    np.testing.assert_array_equal(bits(_gradient_adjoint(g, w)),
                                  bits((D.T @ w.ravel()).reshape(g.shape)))


def sparse_product_hessian(grid, Hc):
    """D_I^T blockdiag(Hc) D_I by two sparse products, as K_II was assembled
    before it was filled from the cell blocks directly."""
    from plapreg.solver import _gradient_operator

    D_I = gradient_matrix(grid)[:, _gradient_operator(grid)[2]].tocsc()
    m = len(Hc)
    return D_I.T.tocsc() @ sp.bsr_matrix((Hc, np.arange(m), np.arange(m + 1))).tocsc() @ D_I


@pytest.mark.parametrize("dim", [2])
def test_interior_hessian_matches_gradient_difference_quotient(dim):
    """A box's K_II is the difference quotient of its energy gradient (a
    line assembles no Hessian: `_solve_line`)."""
    from plapreg.solver import _gradient_operator

    rng = np.random.default_rng(20 + dim)
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (7, 6))
    f = ScalarField(g, rng.standard_normal(g.shape))
    gb = ScalarField(g, rng.standard_normal(g.shape))
    spec = ProblemSpec(g, PLapParams(p=3.5, eps=0.2), f, gb)
    vals = gb.values + rng.standard_normal(g.shape) * 0.3
    # K_II's rows and columns follow the interior elimination order
    order = _gradient_operator(g)[2]
    K = hessian_at(spec, vals).toarray()
    assert K.shape == (len(order),) * 2
    np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-12 * np.abs(K).max())

    step = 1e-6
    for col, idx in enumerate(order):
        lo, hi = vals.copy(), vals.copy()
        lo.ravel()[idx] -= step
        hi.ravel()[idx] += step
        fd = (gradient_at(spec, hi) - gradient_at(spec, lo)).ravel()[order] / (2 * step)
        np.testing.assert_allclose(K[:, col], fd, rtol=1e-6, atol=1e-6 * np.abs(K).max())


@pytest.mark.parametrize("shape", [(3, 3), (4, 9), (7, 6), (33, 33)],
                         ids=["shape1", "shape2", "shape3", "shape4"])
def test_elimination_order_is_a_permutation_of_the_interior(shape):
    """A box numbers its interior nodes in elimination order; a line, which
    assembles no Hessian, has none."""
    from plapreg.solver import _gradient_operator

    g = Grid.box((0.0, 0.0), (1.0, 1.0), shape)
    order = _gradient_operator(g)[2]
    interior = np.flatnonzero(~g.boundary_flags().ravel())
    np.testing.assert_array_equal(np.sort(order), interior)
    assert _gradient_operator(Grid.line(0.0, 1.0, 17)).order is None


def test_ordered_newton_step_matches_c_order_spsolve():
    """The step solved in elimination order meets the equations of the
    Hessian assembled by sparse products with interior unknowns in C order:
    the step, PCG from a fresh factor, to rtol `_ETA_MIN` in the float64
    residual."""
    from plapreg.pointwise import hess_L_eps
    from plapreg.solver import _ETA_MIN, _LinearSolves, _cell_gradients, _gradient_operator

    rng = np.random.default_rng(33)
    g = Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33))
    spec = torsion_spec(g, 3.0, 1e-2)
    vals = np.where(g.boundary_flags(), 0.0, 0.1 * rng.standard_normal(g.shape))
    D, order = gradient_matrix(g), _gradient_operator(g)[2]
    interior = ~g.boundary_flags().ravel()
    grad = gradient_at(spec, vals).ravel()

    Hc = g.cell_volume * hess_L_eps(_cell_gradients(g, vals), 1e-2, 3.0)
    m = len(Hc)
    D_C = D[:, interior].tocsc()
    K_C = D_C.T @ sp.bsr_matrix((Hc, np.arange(m), np.arange(m + 1))).tocsc() @ D_C

    solves = _LinearSolves()
    step = solves.newton_step(hessian_at(spec, vals), grad[order], 0.0, np.inf)
    assert solves.factorizations == 1 and solves.cg_iterations > 0
    c_order = np.zeros(g.num_nodes)
    c_order[order] = step
    residual = K_C @ c_order[interior] + grad[interior]
    assert np.linalg.norm(residual) <= _ETA_MIN * np.linalg.norm(grad[interior])


@pytest.mark.parametrize("p", [2.0, 3.5])
@pytest.mark.parametrize("lo, hi, nodes", [
    ((0.3, -1.2), (1.1, 0.4), (7, 6)),
    ((-2.0, 0.5), (1.0, 1.25), (33, 17)),
], ids=["lo1-hi1-nodes1", "lo2-hi2-nodes2"])
def test_assembled_hessian_matches_the_sparse_product(p, lo, hi, nodes):
    """K_II filled from the cell Hessians of a box by the 9-point stencil
    equals D_I^T blockdiag(vol H) D_I to 4 ulp of max |K|."""
    from plapreg.pointwise import hess_L_eps
    from plapreg.solver import _assemble, _cell_gradients

    rng = np.random.default_rng(len(nodes) + int(10 * p))
    g = Grid.box(lo, hi, nodes)
    gb = ScalarField(g, rng.standard_normal(g.shape))
    spec = ProblemSpec(g, PLapParams(p=p, eps=0.1), ScalarField.constant(g, 1.0), gb)
    vals = gb.values + 0.3 * rng.standard_normal(g.shape)
    Hc = g.cell_volume * hess_L_eps(_cell_gradients(g, vals), 0.1, p)
    unit = np.broadcast_to(np.eye(g.dim), Hc.shape)
    for K, Hc_k in ((hessian_at(spec, vals), Hc), (_assemble(g, unit), unit)):
        ref = sparse_product_hessian(g, np.ascontiguousarray(Hc_k)).toarray()
        ulp = np.spacing(np.abs(ref).max())
        assert np.abs(K.toarray() - ref).max() <= 4 * ulp


@pytest.mark.parametrize("nodes", [(257,), (33, 33)])
def test_per_grid_arrays_are_read_only_and_callers_get_fresh_ones(nodes):
    """The solver's per-grid arrays are shared by every call on an equal
    grid, so they are read-only; `Grid.quad_weights` and `boundary_flags`
    still return fresh, writable arrays, and a caller that writes to them
    leaves a second solve on an equal grid bitwise the first."""
    from plapreg.solver import _gradient_operator

    box = ((-1.0,) * len(nodes), (1.0,) * len(nodes), nodes)
    g = Grid.box(*box)
    first = solve(torsion_spec(g, 3.0, 1e-3))
    ops = _gradient_operator(g)
    arrays = [a for a in (*ops, *(ops.fill or ())) if isinstance(a, np.ndarray)]
    assert len(arrays) == (2 if g.dim == 1 else 7)  # G and weights; a box's `order` and `fill`
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.ravel()[:1] = 0
    for fresh in (g.quad_weights(), g.boundary_flags()):
        assert fresh.flags.writeable
        fresh[...] = 0
    assert g.quad_weights().any() and g.boundary_flags().any()
    again = solve(torsion_spec(Grid.box(*box), 3.0, 1e-3))
    assert again.u.values.tobytes() == first.u.values.tobytes()
    assert (again.energy, again.trace, again.levels) == (first.energy, first.trace, first.levels)


def test_2d_hessian_pattern_is_fixed_per_grid(monkeypatch):
    """Every 2D K_II of a solve has the same structural 9-point pattern,
    whatever entries cancel: the first K of a g = 0 box, taken at u = 0
    where every cell's Hessian is l^(p-2) I, has zero axis-neighbour
    entries, and they are stored."""
    import plapreg.solver as solver_mod

    seen = []
    real_assemble = solver_mod._assemble

    def assemble(grid, Hc):
        K = real_assemble(grid, Hc)
        seen.append(K)
        return K

    monkeypatch.setattr(solver_mod, "_assemble", assemble)
    n0, n1 = 33, 17  # does not nest: one level; square cells, h = 3/32
    g = Grid.box((-2.0, 0.5), (1.0, 2.0), (n0, n1))
    r = solve(torsion_spec(g, 3.0, 1e-2))
    assert r.converged and len(seen) == r.iterations
    nnz = (3 * (n0 - 2) - 2) * (3 * (n1 - 2) - 2)
    at_zero = seen[0]
    assert at_zero.nnz == nnz and np.count_nonzero(at_zero.data) < nnz
    for K in seen:
        assert K.has_sorted_indices
        np.testing.assert_array_equal(K.indptr, at_zero.indptr)
        np.testing.assert_array_equal(K.indices, at_zero.indices)


@pytest.mark.parametrize("n", [1, 2, 255, 256, 4095, 4096])
def test_1d_solve_matches_a_long_double_reference(n):
    """The exact line solve with n interior nodes (n + 1 cells), with
    sources of either sign over 20 decades, stays within the frozen relative
    error of a long-double minimizer found by bisection of Phi."""
    assert within("line_exact_rel", *line_exact_errors(n + 1))


def one_bad_weight(bad):
    t = np.ones(9)
    t[3] = bad
    return t


@pytest.mark.parametrize("t, phi", [
    *((one_bad_weight(bad), 1.0) for bad in (0.0, -1.0, np.inf, np.nan, 5e-320, 2e-308)),
    (np.full(21, 1e-307), 1.0),  # sum(1 / t) overflows
    (np.full(9, 1e-300), 1e300),  # phi / t overflows
    (np.ones(9), np.inf),
], ids=["0", "negative", "inf", "nan", "5e-320", "2e-308", "sum-w-overflows",
        "S-dot-w-overflows", "rhs-inf"])
def test_1d_solve_without_a_finite_step_gives_nan_and_no_warning(t, phi):
    """The outer Newton step of a line solve, from cell weights t (dc = 1 /
    t), gives NaN with no RuntimeWarning when a weight is 0, negative, inf,
    NaN or subnormal, or a sum or product overflows; 1 / 5e-320 overflows.
    The solve then takes a bracketing step, as for a step that leaves the
    bracket."""
    import warnings

    from plapreg.solver import _slope_step

    with np.errstate(divide="ignore", over="ignore"):
        dc = 1.0 / t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = _slope_step(dc, 0, phi, 0.125)
    assert np.ndim(step) == 0 and np.isnan(step)


def test_1d_solve_reaching_a_subnormal_weight_warns_nothing(monkeypatch):
    """The p = 40 small-source line solve (f = 1e-4, eps = 1e-10) evaluates
    its minimizer at cells whose flux weight l^(p-2) is subnormal, and ends
    with a stop reason and no RuntimeWarning: its cell fluxes near 0 take the
    capped limit slope derivative of `_line_slopes`."""
    import warnings

    import plapreg.solver as solver_mod

    real_gradient, subnormal = solver_mod._gradient_raw, []

    def gradient_raw(spec, cells):
        grad, lp2 = real_gradient(spec, cells)
        subnormal.append(bool((lp2 < np.finfo(float).tiny).any()))
        return grad, lp2

    monkeypatch.setattr(solver_mod, "_gradient_raw", gradient_raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve(sourceless_middle(40.0, 1e-10, 257))
    assert any(subnormal) and r.stop_reason


def sourceless_middle(p, eps, nodes):
    """f = 1e-4 on |x| >= 1/2 and 0 between, g = 0, on the line [-1, 1]: the
    minimizer's flux is 0 on the sourceless middle."""
    g = Grid.line(-1.0, 1.0, nodes)
    return ProblemSpec(g, PLapParams(p=p, eps=eps),
                       ScalarField(g, 1e-4 * (np.abs(g.axis(0)) >= 0.5)),
                       ScalarField.constant(g, 0.0))


@pytest.mark.parametrize("nodes", [65, 257, 4097])
@pytest.mark.parametrize("p, eps", [(3.0, 1e-6), (10.0, 1e-4), (40.0, 1e-10), (200.0, 1e-12)])
def test_line_with_a_sourceless_stretch_converges(nodes, p, eps):
    """The root sigma_0 zeroes the flux of the sourceless middle, and it lies
    within the resolution of sigma_0 of the outer iterate that precedes it,
    where Phi is h c per middle cell away from 0; that step is taken, and the
    solve meets the EL contract.  Stopping short of it leaves slopes of 0.31
    on the middle and an EL residual of 2.6e63 (257 nodes, p = 40)."""
    spec = sourceless_middle(p, eps, nodes)
    r = solve(spec)
    assert r.stop_reason == "converged" and r.el_residual <= residual_tolerance(spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, p, eps", WARNING_CASES)
def test_line_solves_raise_no_runtime_warning(kind, p, eps):
    """Line solves of torsion, the sharp oracle and the off-centre source at
    p = 2, 17.3, 80 and 200, eps down to 1e-12, converge with the EL
    contract and warn nothing, within the frozen outer calls: the inner root
    and the flux of the mean slope are taken in logarithms, and a cell flux of
    0 gives its limit slope."""
    spec = warning_case(kind, p, eps)
    r = solve(spec)
    assert (r.stop_reason, r.factorizations, r.cg_iterations) == ("converged", 0, 0)
    assert r.el_residual <= residual_tolerance(spec)
    assert within("line_calls", r.iterations)


def test_singular_2d_hessian_gives_a_nan_step():
    """The unit-diagonal scaling of a 2D K divides by diag(K): a zero
    diagonal is not factored, and the step is NaN, with no exception, no
    RuntimeWarning, no CG iteration and no factor kept."""
    from plapreg.solver import _LinearSolves, _assemble

    g = Grid.box((0.0, 0.0), (1.0, 1.0), (9, 9))
    K = _assemble(g, np.zeros((64, 2, 2)))
    solves = _LinearSolves()
    step = solves.newton_step(K, np.ones(49), 7.0, np.inf)
    assert step.shape == (49,) and np.isnan(step).all()
    assert (solves.factorizations, solves.cg_iterations) == (1, 0) and solves.lu is None
    solves.factor(K)
    assert solves.lu is None and solves.factorizations == 2


def test_2d_preconditioner_keeps_zero_and_non_finite_residuals():
    """M 0 = 0, and a residual with an inf or NaN entry gives a non-finite
    M r, so PCG's finiteness check still refactors; neither warns."""
    from plapreg.solver import _LinearSolves, _assemble

    g = Grid.box((0.0, 0.0), (1.0, 1.0), (9, 9))
    solves = _LinearSolves()
    solves.factor(_assemble(g, np.broadcast_to(np.eye(2), (64, 2, 2))))
    np.testing.assert_array_equal(solves.precondition(np.zeros(49)), np.zeros(49))
    for bad in (np.inf, np.nan):
        r = np.ones(49)
        r[7] = bad
        assert not np.isfinite(solves.precondition(r)).any()


def test_2d_factor_is_single_precision_and_pcg_steps_meet_their_forcing(monkeypatch):
    """Every 2D factor of the 65^2 torsion solve is float32, and every 2D
    step is PCG that meets its rtol in the float64 residual, ||K s + g|| <=
    rtol ||g||: `_ETA_MIN` right after a factorization, the Eisenstat-Walker
    forcing term with the kept factor."""
    import plapreg.solver as solver_mod

    real_factor, real_pcg = solver_mod._LinearSolves.factor, solver_mod._LinearSolves._pcg
    events, ratios = [], []

    def factor(self, K):
        real_factor(self, K)
        events.append(("factor", self.lu.L.dtype))

    def pcg(self, K, rhs, rtol):
        step, met = real_pcg(self, K, rhs, rtol)
        events.append(("pcg", rtol))
        ratios.append(np.linalg.norm(K @ step - rhs) / (rtol * np.linalg.norm(rhs)))
        return step, met

    monkeypatch.setattr(solver_mod._LinearSolves, "factor", factor)
    monkeypatch.setattr(solver_mod._LinearSolves, "_pcg", pcg)
    r = solve(torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65)), 3.0, 1e-3))
    kinds = [kind for kind, _ in events]
    assert r.converged and kinds.count("factor") == r.factorizations >= 2
    assert all(dtype == np.float32 for kind, dtype in events if kind == "factor")
    # one PCG per step, and the step right after a factorization runs to _ETA_MIN
    assert kinds.count("pcg") == r.iterations > r.factorizations
    assert all(after == ("pcg", solver_mod._ETA_MIN)
               for (kind, _), after in zip(events, events[1:]) if kind == "factor")
    assert max(ratios) <= 1.0


def test_1d_solve_calls_no_superlu(monkeypatch):
    """A line is solved by its first integral, with no Hessian and no linear
    solve, so a solve converges with SuperLU unavailable and reports none."""
    def splu(*args, **kwargs):
        raise AssertionError("SuperLU called")

    monkeypatch.setattr(spla, "splu", splu)
    r = solve(oracle_problem(SharpnessOracle(p=3.0), Grid.line(-1.0, 1.0, 257), eps=1e-3))
    assert r.converged and r.factorizations == r.cg_iterations == 0


def test_energy_matches_dense_quadrature():
    """Cell-centered bulk + trapezoid source agree with adaptive quadrature
    to O(h^2) on a smooth profile."""
    errs = {nodes: energy_error(nodes) for nodes in (257, 513)}
    assert within("energy_h2", *(err / h**2 for err, h in errs.values()))
    assert within("energy_ratio", errs[513][0] / errs[257][0])


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


def test_solve_tracks_degenerate_oracle():
    """p = 3 profile with flux exactly x: the eps-regularized minimizer on
    4097-class grids tracks it to a few times 1e-6 and tightens under
    refinement faster than first order."""
    errs = {}
    for nodes in (1025, 2049):
        spec, r, errs[nodes] = oracle_solve(nodes)
        assert r.converged
        assert r.el_residual <= residual_tolerance(spec)
        print(f"nodes={nodes}: sup err={errs[nodes]:.3e} iters={r.iterations}")
    assert within("solve_err_1025", errs[1025])
    assert within("solve_ratio_2049", errs[2049] / errs[1025])


def test_solve_is_init_independent(monkeypatch):
    """Started from g plus an interior bump instead of the Coons patch of g,
    a box solve reaches the same minimizer.  The x1-only 65^2 oracle box
    nests, so the start is made on its 33^2 coarsest level, from that
    level's own g."""
    import plapreg.solver as solver_mod

    spec = box_problem("sharp", 3.0, 1e-3, 65)
    r1 = solve(spec)

    def bumped_start(g):
        s0, s1 = (np.sin(np.pi * np.linspace(0.0, 1.0, n)) for n in g.shape)
        vals = g.copy()
        vals[1:-1, 1:-1] += 0.3 * np.outer(s0, s1)[1:-1, 1:-1]
        return vals

    monkeypatch.setattr(solver_mod, "_coons_patch", bumped_start)
    r2 = solve(spec)
    assert r1.converged and r2.converged
    assert r1.levels[0][0] == r2.levels[0][0] == (33, 33)
    assert r2.trace[0][1] != r1.trace[0][1]  # the bumped start was taken
    gap = float(np.max(np.abs(r1.u.values - r2.u.values)))
    assert gap <= 10.0 * residual_tolerance(spec)


def test_solve_unconverged_is_flagged(monkeypatch):
    import plapreg.solver as solver_mod

    spec = box_problem("torsion", 4.0, 1e-4, 33)
    monkeypatch.setattr(solver_mod, "MAX_ITER", 2)
    r = solve(spec)
    assert not r.converged
    assert r.iterations == 2


@pytest.mark.parametrize("eps", [1e-1, 1e-2, 3.7e-5, 1e-6, 5e-310, 1e-320, 5e-324])
def test_path_continues_in_p_only_above_18(eps):
    """A (p, eps) path runs at no more than two eps, the first max(eps, 0.1),
    and ends exactly at (p, eps), a subnormal eps included.  Up to p = 18 it
    runs at p alone.  Above, it starts at the first p / 2**n <= 18 and
    doubles p at the first eps."""
    first = max(eps, 0.1)
    for p in (2.0, 3.0, 10.0, 18.0, 18.5, 20.0, 36.5, 40.0, 80.0, 1000.0):
        path = _path(p, eps)
        p_stages = [stage for stage in path if stage[0] != p]
        # (p, first), then (p, eps) unless eps is first
        assert path == p_stages + [(p, e) for e in dict.fromkeys((first, eps))]
        assert all(e == first for _, e in p_stages)
        if p <= 18.0:
            assert p_stages == []
            continue
        assert 9.0 < p_stages[0][0] <= 18.0
        assert [2.0 * p_k for p_k, _ in p_stages] == [p_k for p_k, _ in path[1:len(p_stages) + 1]]


def test_small_eps_takes_the_same_steps_at_any_depth():
    """Below eps = 0.1 a box's path jumps from 0.1 straight to eps, so 65^2
    torsion takes the same steps per level at eps = 1e-12 as at 1e-300, and
    its trace has one row per stage started (two on 33^2, one on 65^2) and
    one per Newton step."""
    grid = Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65))
    r12, r300 = (solve(torsion_spec(grid, 3.0, eps)) for eps in (1e-12, 1e-300))
    assert r12.converged and r300.converged
    assert [row[1] for row in r12.levels] == [row[1] for row in r300.levels]
    for r in (r12, r300):
        assert len(r.trace) == 3 + r.iterations == 11


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("problem, p, eps", HIGH_P_CASES)
def test_high_p_solve_converges(problem, p, eps):
    """Continuation in p: above p = 18 a direct Newton solve from the Coons
    start can fail (`_P_DIRECT`); the p path converges on the 33^2 x1-only
    boxes, which start at their answer, and on the radial boxes, which do
    not, within the frozen step bound, raising no floating-point warning."""
    spec, r = high_p_solve(problem, p, eps)
    assert r.converged and r.stop_reason == "converged"
    assert within("high_p_steps", r.iterations)
    assert r.el_residual <= residual_tolerance(spec)


def lifted_box(p, lift, nodes):
    """The x1-only box of nodes^2 with f = x1 and g the line solve for f = x1
    and g = lift at both ends, extended in x2.  f has mean 0, so the lift
    leaves the energy as it is and only raises the rounding of u."""
    line = Grid.line(-1.0, 1.0, nodes)
    v = solve(ProblemSpec(line, PLapParams(p=p, eps=1e-3), ScalarField(line, line.axis(0)),
                          ScalarField.constant(line, lift))).u.values
    box = Grid.box((-1.0, -1.0), (1.0, 1.0), (nodes, nodes))
    return ProblemSpec(box, PLapParams(p=p, eps=1e-3), ScalarField(box, box.coords()[..., 0]),
                       ScalarField(box, np.repeat(v[:, None], nodes, axis=1)))


def test_stop_reasons(monkeypatch):
    """`stop_reason` names why the final stage stopped, one case per reason
    (no_descent: `test_stop_reason_no_descent`)."""
    import plapreg.solver as solver_mod

    spec = box_problem("torsion", 3.0, 1e-3, 33)
    assert solve(spec).stop_reason == "converged"
    with monkeypatch.context() as capped:
        capped.setattr(solver_mod, "MAX_ITER", 3)
        assert solve(spec).stop_reason == "max_iter"
    # with u near 1e5, the gradient norm of the p = 10 box meets its rounding
    # floor at ~4.8e-10, above grad_tolerance = 1.4e-10: a polishing step
    # fails to halve it, and with the EL residual far below its tolerance the
    # solve converges there
    spec = lifted_box(10.0, 1e5, 33)
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (True, "converged")
    assert r.trace[-1][2] > grad_tolerance(r.energy)
    assert r.el_residual <= 1e-2 * residual_tolerance(spec)
    # held to an EL residual of 0, the same floor stalls at the same iterate
    monkeypatch.setattr(solver_mod, "residual_tolerance", lambda spec: 0.0)
    stalled = solve(spec)
    assert (stalled.converged, stalled.stop_reason) == (False, "stalled")
    assert stalled.trace == r.trace
    np.testing.assert_array_equal(stalled.u.values, r.u.values)


@pytest.mark.parametrize("problem", ["torsion", "sharp"])
@pytest.mark.parametrize("p", [40.0, 80.0])
@pytest.mark.parametrize("eps", [1e-2, 1e-6])
def test_high_p_converges_at_4097_nodes(problem, p, eps):
    """At 4097 nodes a p = 40 or 80 line solve converges, with the EL
    residual within its tolerance."""
    g = Grid.line(-1.0, 1.0, 4097)
    spec = (torsion_spec(g, p, eps) if problem == "torsion"
            else oracle_problem(SharpnessOracle(p=p), g, eps=eps))
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (True, "converged")
    assert r.el_residual <= residual_tolerance(spec)


@pytest.mark.parametrize("nodes, p", BOX_LINE_CASES)
def test_box_solve_of_an_x1_only_problem_matches_the_line_solve(nodes, p):
    """On an x1-only box whose g is the line solve v extended in x2, the
    cell gradients of v extended are (c, 0) and the box's EL equation is h2
    times the line's, so the 2D Newton solve lands on v, and its energy is
    the box's width in x2 times the line's, within the frozen bounds."""
    u_gap, e_gap = box_line_gaps(nodes, p)
    assert within("box_line_u", u_gap) and within("box_line_energy", e_gap)


@pytest.mark.parametrize("eps", OFFCENTRE_EPS)
def test_offcentre_line_at_p80_converges(eps):
    """The 4097-node off-centre line (f = 1 + x / 2, g = 0.3 x) at p = 80,
    where Newton stopped `no_descent` at eps = 0.1 to 0.003, converges with
    the EL contract within the frozen outer calls; its result is one
    evaluation of u: one trace row and one level row, no factorization."""
    spec = offcentre_line(80.0, eps)
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (True, "converged")
    assert r.el_residual == el_residual(spec, r.u) <= residual_tolerance(spec)
    assert r.energy == energy(spec, r.u)
    assert len(r.trace) == 1 and r.trace[0][:2] == (r.iterations, r.energy)
    assert r.levels == ((spec.grid.nodes, r.iterations, 0, r.energy),)
    assert within("offcentre_calls", r.iterations)


def test_offcentre_x1_only_box_at_p80_converges():
    """The 129^2 x1-only box with f = 1 + x1 / 2 and g the off-centre line's
    solve extended in x2, at p = 80, eps = 1e-2, converges at its exact
    energy, twice the line's, within the frozen bound.  From the bilinear
    prolongation of its 65^2 iterate the first 129^2 Newton step was
    rejected, and the solve stopped `no_descent` 1.4e-4 (relative) above
    that energy."""
    spec, line = offcentre_box(*OFFCENTRE_BOX)
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (True, "converged")
    assert r.el_residual <= residual_tolerance(spec)
    assert within("box_line_energy", energy_gap(r, line))


def test_line_at_its_rounding_floor_reads_stalled():
    """g = 3 x, p = 10, eps = 1e-4 on 4097 nodes: the EL residual of the
    exact minimizer, rounded to float64, lies above its tolerance, so the
    result reads `stalled` and carries the residual of the u it returns."""
    spec = steep_line(10.0, 1e-4)
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (False, "stalled")
    assert r.el_residual == el_residual(spec, r.u) > residual_tolerance(spec)
    assert within("line_floor", r.el_residual)


@pytest.mark.filterwarnings("error")
def test_line_whose_residual_overflows_reads_stalled():
    """g = 3 x at p = 200, eps = 10 on 17 nodes: the fluxes near 1e201 make
    the EL residual of the rounded minimizer overflow, and the result reads
    `stalled` with that infinite residual and no RuntimeWarning."""
    g = Grid.line(-1.0, 1.0, 17)
    spec = ProblemSpec(g, PLapParams(p=200.0, eps=10.0), ScalarField.constant(g, 1.0),
                       ScalarField(g, 3.0 * g.axis(0)))
    r = solve(spec)
    assert (r.converged, r.stop_reason, r.el_residual) == (False, "stalled", np.inf)
    assert np.isfinite(r.energy) and np.isfinite(r.u.values).all()


def test_line_solve_capped_at_max_iter_reads_stalled(monkeypatch):
    """A line solve stops after `MAX_ITER` outer calls and reads `stalled`,
    its energy and EL residual those of the u it returns.  Uncapped, the
    off-centre line (f = 1 + x / 2, g = 0.3 x) at p = 5 on 65 nodes
    converges in 11 calls."""
    import plapreg.solver as solver_mod

    spec = offcentre_line(5.0, 1e-3, 65)
    assert solve(spec).iterations > 2
    monkeypatch.setattr(solver_mod, "MAX_ITER", 2)
    r = solve(spec)
    assert (r.stop_reason, r.iterations) == ("stalled", 2)
    assert (r.energy, r.el_residual) == (energy(spec, r.u), el_residual(spec, r.u))


@pytest.mark.filterwarnings("error")
def test_high_p_2d_torsion_converges():
    """65^2 torsion at p = 80, eps = 1e-6, where max/min of diag(K) on the
    fine level spans 13 to 25 decades, converges with the EL contract.
    Each 2D step is PCG preconditioned by the float32 factor; a step refined
    from that factor by float64 sweeps alone diverged here, and the solve
    stopped `no_descent`."""
    spec = torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65)), 80.0, 1e-6)
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (True, "converged")
    assert r.el_residual <= residual_tolerance(spec)


@pytest.mark.filterwarnings("error")
def test_high_p_2d_torsion_converges_on_three_levels():
    """129^2 torsion at p = 80, eps = 1e-6 converges with the EL contract.
    The cubic prolongation of the coarser torsion minimizer starts each finer
    level some 1e10 times 1 + |E| above the coarser energy, so that level
    first runs the stage (p / 2, eps): without it the two finer levels took
    93 and 75 steps and the solve stopped `max_iter`."""
    spec = torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (129, 129)), 80.0, 1e-6)
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (True, "converged")
    assert r.el_residual <= residual_tolerance(spec)
    assert [nodes for nodes, *_ in r.levels] == [(33, 33), (65, 65), (129, 129)]
    assert all(steps <= 50 for _, steps, *_ in r.levels)


@pytest.mark.parametrize("f", [1e-4, 1e-8])
def test_small_source_at_high_p_converges(f):
    """65-node torsion at p = 10, eps = 1e-4 with f = 1e-4 or 1e-8, whose
    energy is flat to rounding near u = 0, converges with the EL contract to
    the eps = 0 profile, max |u| = f^(1/(p-1)) (p-1)/p."""
    g = Grid.line(-1.0, 1.0, 65)
    spec = ProblemSpec(g, PLapParams(p=10.0, eps=1e-4), ScalarField.constant(g, f),
                       ScalarField.constant(g, 0.0))
    r = solve(spec)
    assert (r.converged, r.stop_reason) == (True, "converged")
    assert r.el_residual <= residual_tolerance(spec)
    assert np.max(np.abs(r.u.values)) == pytest.approx(f ** (1 / 9) * 9 / 10, rel=2e-3)


def test_line_search_backtracks_along_the_power_law():
    """After a rejected trial t the next minimizes the ray's power-law model
    e0 + slope s + R (s / t)^p, kept within [0.1 t, 0.5 t].  On the x1-only
    33^2 sharp oracle box at p = 10, eps = 0.1, where halving took up to 22
    trials a search, none takes more than 10.  A trial whose energy
    overflows is followed by exactly 0.1 t, with no warning."""
    import plapreg.solver as solver_mod

    spec = box_problem("sharp", 10.0, 0.1, 33)
    with line_search_steps() as searches:
        r = solve(spec)
    assert r.converged and max(map(len, searches)) <= 10
    for steps in searches:
        assert steps[0] == 1.0
        assert all(0.1 * t <= s <= 0.5 * t for t, s in zip(steps, steps[1:]))
    # 65-node torsion at p = 80 from u = 0 along a direction whose first
    # trials overflow the energy; the interior nodes in their own order
    spec = torsion_spec(Grid.line(-1.0, 1.0, 65), 80.0, 0.1)
    order = np.arange(1, 64)
    vals = np.zeros(spec.grid.shape)
    direction = np.full(len(order), -1e6)
    slope = float(gradient_at(spec, vals).ravel()[order] @ direction)
    with line_search_steps() as searches:
        out = solver_mod._line_search(spec, vals, order, direction, energy_at(spec, vals),
                                      slope)
    (steps,) = searches
    assert out[1]

    def trial(t):
        moved = vals.copy()
        moved.ravel()[order] += t * direction
        return moved

    with np.errstate(over="ignore"):
        overflows = [energy_at(spec, trial(t)) == np.inf for t in steps]
    assert sum(overflows) >= 3
    assert all(s == 0.1 * t for t, s, over in zip(steps, steps[1:], overflows) if over)


def test_line_search_trials_of_the_frozen_solves():
    """The line searches of seven 33^2 radial box solves centred at 0, p
    from 2 to 40, whose Coons start is not their answer, take their frozen
    total of trials."""
    assert within("backtrack_trials", line_search_trials())


def test_stop_reason_no_descent(monkeypatch):
    """A Newton step that fails the line search ends the solve at once."""
    import plapreg.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_line_search",
                        lambda spec, vals, order, direction, e0, slope: (vals, False, e0, False,
                                                                          None))
    r = solve(torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33)), 3.0, 1e-1))
    assert (r.converged, r.stop_reason, r.iterations, len(r.trace)) == (False, "no_descent", 0, 1)


def test_every_newton_step_is_one_line_search(monkeypatch):
    """Each Newton step, a polishing one included, is one `_line_search`
    call: a converged solve makes as many calls as it takes steps."""
    import plapreg.solver as solver_mod

    real = solver_mod._line_search
    outs = []

    def line_search(*args):
        outs.append(real(*args))
        return outs[-1]

    monkeypatch.setattr(solver_mod, "_line_search", line_search)
    for spec in (
        box_problem("sharp", 40.0, 2e-5, 65),
        torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65)), 3.0, 1e-3),
    ):
        outs.clear()
        r = solve(spec)
        assert r.converged and len(outs) == r.iterations
        assert all(ok for _, ok, *_ in outs)
        assert any(polished for _, _, _, polished, _ in outs)  # both solves end by polishing


def evaluation_specs():
    """Boxes, x1-only and not, one and several levels, up to the p-doubling
    path."""
    return (
        radial_box(4.0, 1e-3, 33, (0.00625, 0.2))[0],
        radial_box(5.0, 1e-4, 33)[0],
        torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65)), 3.0, 1e-3),
        box_problem("sharp", 40.0, 2e-5, 65),
    )


def test_no_iterate_energy_is_evaluated_twice(monkeypatch):
    """Each stage evaluates its start once and then carries the energy that
    the line search accepted (a polishing step's included): no (p, eps,
    grid, iterate) is evaluated twice."""
    import plapreg.solver as solver_mod

    real = solver_mod._energy_raw
    seen = collections.Counter()

    def counted(spec, vals, cells):
        seen[spec.params.p, spec.params.eps, spec.grid.nodes, vals.tobytes()] += 1
        return real(spec, vals, cells)

    monkeypatch.setattr(solver_mod, "_energy_raw", counted)
    for spec in evaluation_specs():
        seen.clear()
        solve(spec)
        assert seen
        assert [key[:3] for key, count in seen.items() if count > 1] == []


def test_no_iterate_cell_state_is_computed_twice(monkeypatch):
    """l = l_eps(c) of an iterate's cell gradients c = D u is computed once
    per eps, by the line search that accepts the iterate or at the start of
    a stage, and then shared by its energy, gradient and Hessian: over the
    solves above no (eps, c) reaches `l_eps` twice."""
    import plapreg.pointwise as pointwise_mod
    import plapreg.solver as solver_mod

    real = pointwise_mod.l_eps
    seen = collections.Counter()

    def counted(w, eps):
        w = np.asarray(w, dtype=float)
        seen[eps, w.shape, w.tobytes()] += 1
        return real(w, eps)

    monkeypatch.setattr(pointwise_mod, "l_eps", counted)
    monkeypatch.setattr(solver_mod, "l_eps", counted, raising=False)
    for spec in evaluation_specs():
        seen.clear()
        solve(spec)
        assert len(seen) > 10
        assert [key[:2] for key, count in seen.items() if count > 1] == []


def test_solve_result_is_its_last_evaluation(monkeypatch):
    """A solve capped before its final stage evaluates the iterate it returns
    once more, at the requested (p, eps), and nowhere else; one capped at the
    step where it converges reports convergence."""
    import plapreg.solver as solver_mod

    grid = Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33))
    spec, spec_p40 = (torsion_spec(grid, p, 1e-4) for p in (4.0, 40.0))
    full = solve(spec)
    monkeypatch.setattr(solver_mod, "MAX_ITER", 2)
    capped = solve(spec)
    assert capped.trace[-1][:2] == (2, capped.energy)
    assert capped.energy == energy(spec, capped.u)
    assert capped.el_residual == el_residual(spec, capped.u)
    # capped in the first of two eps stages, and of four (p, eps) stages
    for spec_k in (spec, spec_p40):
        capped = solve(spec_k)
        assert [row[0] for row in capped.trace] == [0, 1, 2, 2]
        assert capped.stop_reason == "max_iter"
        assert capped.energy == energy(spec_k, capped.u)
    assert full.converged
    monkeypatch.setattr(solver_mod, "MAX_ITER", full.iterations)
    at_cap = solve(spec)
    assert at_cap.converged and at_cap.trace == full.trace
    np.testing.assert_array_equal(at_cap.u.values, full.u.values)


@pytest.mark.parametrize("p", [3.0, 40.0])
def test_each_stage_evaluates_at_its_own_p_and_eps(monkeypatch, p):
    """The gradients of a solve are taken at the stages of its (p, eps)
    path, in order, and at no other (p, eps)."""
    import plapreg.solver as solver_mod

    spec = box_problem("torsion", p, 1e-4, 33)
    seen = []
    real_gradient_raw = solver_mod._gradient_raw

    def gradient_raw(spec, cells):
        seen.append((spec.params.p, spec.params.eps))
        return real_gradient_raw(spec, cells)

    monkeypatch.setattr(solver_mod, "_gradient_raw", gradient_raw)
    r = solve(spec)
    assert r.converged
    assert [stage for stage, _ in itertools.groupby(seen)] == _path(p, 1e-4)


def test_solve_survives_singular_newton_system(monkeypatch):
    """Started directly at p = 400, eps = 0.1, the Newton system of torsion
    at its start u = 0 is exactly singular in floating point (its entries
    carry l^398 = 0.1^398, which underflows to 0); the line search rejects
    the NaN step at once, evaluating no trial energy, no other step is
    tried, and the solve returns `no_descent`, unconverged, instead of
    raising."""
    import plapreg.solver as solver_mod

    calls, energies = [], []
    real_line_search, real_energy = solver_mod._line_search, solver_mod._energy_raw

    def line_search(spec, vals, order, direction, e0, slope):
        before = len(energies)
        out = real_line_search(spec, vals, order, direction, e0, slope)
        calls.append((bool(np.isnan(direction).any()), out[1], len(energies) - before))
        return out

    def energy_raw(spec, vals, cells):
        energies.append(None)
        return real_energy(spec, vals, cells)

    monkeypatch.setattr(solver_mod, "_line_search", line_search)
    monkeypatch.setattr(solver_mod, "_energy_raw", energy_raw)
    monkeypatch.setattr(solver_mod, "_P_DIRECT", 400.0)
    spec = torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33)), 400.0, 0.1)
    monkeypatch.setattr(solver_mod, "MAX_ITER", 5)
    r = solve(spec)
    assert (r.converged, r.stop_reason, r.iterations) == (False, "no_descent", 0)
    assert calls == [(True, False, 0)]  # one NaN step, rejected with no trial


def test_solve_2d_torsion():
    g = Grid.box((-1.0, -1.0), (1.0, 1.0), (33, 33))
    spec = torsion_spec(g, 3.0, 0.01)
    r = solve(spec)
    assert r.converged
    # domain and data are symmetric, so the minimizer is too
    np.testing.assert_allclose(r.u.values, r.u.values[::-1, :], atol=1e-9)
    np.testing.assert_allclose(r.u.values, r.u.values[:, ::-1], atol=1e-9)
    assert r.energy <= energy(spec, ScalarField.constant(g, 0.0))


def _solve_recording_linear_algebra(monkeypatch, spec):
    """Solve `spec`, recording each Hessian assembly as ("K", nodes), each
    SuperLU factorization as "splu" and each CG call as ("cg", rtol)."""
    import plapreg.solver as solver_mod

    events = []
    real_splu, real_cg, real_assemble = spla.splu, spla.cg, solver_mod._assemble

    def splu(*args, **kwargs):
        events.append("splu")
        return real_splu(*args, **kwargs)

    def cg(*args, **kwargs):
        events.append(("cg", kwargs["rtol"]))
        return real_cg(*args, **kwargs)

    def assemble(grid, Hc):
        events.append(("K", grid.nodes))
        return real_assemble(grid, Hc)

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(spla, "cg", cg)
    monkeypatch.setattr(solver_mod, "_assemble", assemble)
    return solve(spec), events


def test_coons_start_factors_nothing(monkeypatch):
    """The coarsest level starts from the Coons patch of g, which takes no
    linear solve: every Hessian and every SuperLU factorization is a Newton
    step's, and later steps reuse factors.  The patch equals g on the
    boundary and reproduces an x1-only trace v(x1) inside the box, to
    rounding."""
    from plapreg.solver import _coons_patch

    g = box_problem("sharp", 3.0, 1e-3, 33).g.values
    np.testing.assert_allclose(_coons_patch(g), g, rtol=0.0, atol=1e-15 * np.max(np.abs(g)))

    spec = radial_box(3.0, 1e-3, 65, (0.00625, 0.2))[0]
    g = spec.g.values
    bnd = spec.grid.boundary_flags()
    np.testing.assert_allclose(_coons_patch(g)[bnd], g[bnd], rtol=0.0,
                               atol=1e-15 * np.max(np.abs(g)))
    r, events = _solve_recording_linear_algebra(monkeypatch, spec)
    assert r.converged
    assert sum(event[0] == "K" for event in events) == r.iterations
    assert sum(row[2] for row in r.levels) == events.count("splu") == r.factorizations
    assert len(r.levels) <= r.factorizations < r.iterations


def test_coons_start_first_newton_step_factors(monkeypatch):
    """With no start factor, the first SuperLU factorization is the first
    Newton step's, followed by CG to `_ETA_MIN`; each level's first Newton
    step factors its own K, and later steps run CG at the forcing term."""
    from plapreg.solver import _ETA_MIN

    spec = radial_box(3.0, 1e-3, 65, (0.00625, 0.2))[0]
    r, events = _solve_recording_linear_algebra(monkeypatch, spec)
    assert r.converged
    assert events[:3] == [("K", (33, 33)), "splu", ("cg", _ETA_MIN)]
    for nodes in ((33, 33), (65, 65)):
        first = events.index(("K", nodes))
        assert events[first + 1:first + 3] == ["splu", ("cg", _ETA_MIN)]
    assert any(event[0] == "cg" and event[1] > _ETA_MIN for event in events)


def test_lagged_factor_matches_factoring_every_step(monkeypatch):
    """Reusing the last factor as a CG preconditioner takes the same Newton
    steps to the same minimizer as factoring every Hessian, where each step
    is PCG to `_ETA_MIN` from its own fresh factor."""
    import plapreg.solver as solver_mod

    spec = torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65)), 3.0, 1e-3)
    lagged = solve(spec)
    real_step = solver_mod._LinearSolves.newton_step

    def fresh_step(self, K, g_int, g_norm, prev):
        self.lu = None  # no kept factor: the step factors K
        return real_step(self, K, g_int, g_norm, prev)

    monkeypatch.setattr(solver_mod._LinearSolves, "newton_step", fresh_step)
    direct = solve(spec)
    assert lagged.converged and direct.converged
    assert lagged.iterations == direct.iterations
    assert lagged.factorizations < direct.factorizations == direct.iterations
    assert lagged.cg_iterations > 0 and direct.cg_iterations > 0
    assert lagged.energy == pytest.approx(direct.energy, rel=1e-12)
    # level by level (33^2, then 65^2): the same steps, and on the fine level
    # fewer factorizations than steps
    assert [row[1] for row in lagged.levels] == [row[1] for row in direct.levels]
    assert [row[2] for row in direct.levels] == [row[1] for row in direct.levels]
    assert lagged.levels[-1][2] < direct.levels[-1][2]


@pytest.mark.parametrize("failure", ["capped", "non-finite"])
def test_failed_pcg_step_refactors_once(monkeypatch, failure):
    """A lagged-factor PCG solve that reaches the cap or returns a non-finite
    step is followed by exactly one factorization, and every factorization
    by one PCG solve from it that meets its rtol and is the step; a lagged
    PCG solve that succeeds is followed by no factorization."""
    import plapreg.solver as solver_mod

    events = []
    real_splu, real_cg = spla.splu, spla.cg

    def splu(*args, **kwargs):
        events.append("splu")
        return real_splu(*args, **kwargs)

    def cg(*args, **kwargs):
        step, info = real_cg(*args, **kwargs)
        fresh = events[-1] == "splu"
        if (failure == "non-finite" and not fresh and events.count("cg ok") == 2
                and "cg failed" not in events):
            step = np.full_like(step, np.nan)
        ok = info == 0 and np.isfinite(step).all()
        events.append(("cg fresh" if ok else "cg fresh failed") if fresh
                      else "cg ok" if ok else "cg failed")
        return step, info

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(spla, "cg", cg)
    if failure == "capped":
        monkeypatch.setattr(solver_mod, "_PCG_CAP", 7)
    r = solve(torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (64, 64)), 3.0, 1e-3))
    assert r.converged
    assert events[0] == "splu" and "cg failed" in events
    for event, after in zip(events, events[1:] + ["end"]):
        expected = {"cg failed": ("splu",), "splu": ("cg fresh",)}.get(
            event, ("cg ok", "cg failed", "end"))
        assert after in expected, events
    assert r.factorizations == events.count("splu") == 1 + events.count("cg failed")
    assert r.iterations == events.count("cg fresh") + events.count("cg ok")


# ---------------------------------------------------------------------------
# nested iteration


def test_levels_halve_down_to_33_and_fit_the_operator_cache():
    """513^2 nests as 33^2 -> ... -> 513^2, with f and g injected; every level's
    gradient operator fits the cache at once, so a repeated solve rebuilds none."""
    from plapreg.solver import _gradient_operator, _levels

    grid = Grid.box((-1.0, -1.0), (1.0, 1.0), (513, 513))
    spec = ProblemSpec(grid, PLapParams(p=3.0, eps=1e-3),
                       ScalarField(grid, grid.coords().prod(axis=-1)),
                       ScalarField.constant(grid, 0.0))
    levels = _levels(spec)
    assert [level.grid.nodes for level in levels] == [(n, n) for n in (33, 65, 129, 257, 513)]
    assert levels[-1] is spec and levels[-2].grid == Grid.box(grid.lower, grid.upper, (257, 257))
    np.testing.assert_array_equal(levels[0].f.values, spec.f.values[::16, ::16])
    assert len(levels) <= _gradient_operator.cache_parameters()["maxsize"]


def test_prolongation_is_exact_on_bilinear_fields():
    from plapreg.solver import _prolong

    coarse = Grid.box((-1.0, 0.0), (1.0, 3.0), (9, 5))

    def bilinear(x):
        return 0.3 - 2.0 * x[..., 0] + 0.7 * x[..., 1] + 1.5 * x[..., 0] * x[..., 1]

    fine = _prolong(bilinear(coarse.coords()))
    refined = Grid.box(coarse.lower, coarse.upper, (17, 9))
    np.testing.assert_allclose(fine, bilinear(refined.coords()), rtol=0, atol=1e-14)


@pytest.mark.parametrize("passes", [1, 2, 4])
def test_line_prolongation_is_exact_on_affine_fields(passes):
    """Each pass interpolates linearly, so a line refined by 2**k in k passes
    (by 16 from 257 to 4097 nodes) reproduces an affine field."""
    from plapreg.solver import _prolong

    grid = Grid.line(-1.0, 3.0, 9)
    vals = 0.3 - 2.0 * grid.axis(0)
    for _ in range(passes):
        vals, grid = _prolong(vals), Grid.line(-1.0, 3.0, 2 * grid.nodes[0] - 1)
    np.testing.assert_allclose(vals, 0.3 - 2.0 * grid.axis(0), rtol=0, atol=1e-14)


@pytest.mark.parametrize("shape", [(33, 33), (65, 129), (5, 3), (3, 3), (3, 9)])
def test_prolongation_injects_coarse_nodes_into_a_c_ordered_array(shape):
    """Every coarse node is a fine node with its value bit for bit, and the
    fine array is C-ordered, also where an axis has 3 nodes and so only its
    two linear end midpoints."""
    from plapreg.solver import _prolong

    vals = np.random.default_rng(sum(shape)).standard_normal(shape)
    out = _prolong(vals)
    assert out.shape == tuple(2 * n - 1 for n in shape) and out.flags.c_contiguous
    np.testing.assert_array_equal(out[::2, ::2], vals)


@pytest.mark.parametrize("shape", [(33, 33), (17, 5), (3, 3)])
def test_2d_prolongation_reproduces_per_axis_affine_data_bitwise(shape):
    """a + b i + c j + e i j with dyadic coefficients on the integer lattice
    (i, j) is affine along each axis and exact in floats: every midpoint is
    its value at the half-integer point, bit for bit, since the cubic's
    correction and its limit are both 0 there."""
    from plapreg.solver import _prolong

    def bilinear(i, j):
        return 0.375 - 1.25 * i + 2.5 * j + 0.75 * i * j

    i, j = np.meshgrid(*(np.arange(n, dtype=float) for n in shape), indexing="ij")
    fi, fj = np.meshgrid(*(np.arange(2 * n - 1) / 2.0 for n in shape), indexing="ij")
    np.testing.assert_array_equal(_prolong(bilinear(i, j)), bilinear(fi, fj))


def test_prolongation_is_the_cubic_where_coarse_differences_are_monotone():
    """Along axis 0, v = x^3 + x on x = 0 ... 8 has increasing differences,
    where the limit never binds: every interior midpoint is the cubic's
    value, bit for bit (all of it is exact in floats), and the two end
    midpoints are the linear means.  Along axis 1 the data is constant."""
    from plapreg.solver import _prolong

    x = np.arange(9.0)
    out = _prolong(np.repeat((x**3 + x)[:, None], 4, axis=1))
    xm = np.arange(17) / 2.0
    expected = xm**3 + xm
    expected[[1, -2]] = 0.5 * (expected[[0, -3]] + expected[[2, -1]])
    np.testing.assert_array_equal(out, np.repeat(expected[:, None], 7, axis=1))
    assert np.all(out[[1, -2]] != (xm**3 + xm)[[1, -2], None])  # the ends are not the cubic


@pytest.mark.parametrize("seed", range(4))
def test_prolongation_adds_no_slope_steeper_than_its_coarse_neighbours(seed):
    """On random data (a line, and a box along its coarse rows and columns)
    each fine difference is at most half the steepest of the coarse
    differences beside its midpoint: the one it halves and the two next to
    it, or fewer at an end of the axis; up to the rounding of the values."""
    from plapreg.solver import _prolong

    rng = np.random.default_rng(seed)

    def check(coarse, fine):
        a = np.abs(np.diff(coarse))
        steepest = np.max([np.concatenate(([0.0], a[:-1])), a, np.concatenate((a[1:], [0.0]))],
                          axis=0)
        finediff = np.abs(np.diff(fine)).reshape(-1, 2).max(axis=1)
        assert np.all(finediff <= 0.5 * steepest + 1e-15 * np.max(np.abs(coarse)))

    line = rng.standard_normal(65) * 10.0 ** rng.uniform(-3, 3, 65)
    check(line, _prolong(line))
    box = rng.standard_normal((33, 17))
    fine = _prolong(box)
    for j in range(box.shape[1]):
        check(box[:, j], fine[:, 2 * j])
    for i in range(box.shape[0]):
        check(box[i], fine[2 * i])


@pytest.mark.parametrize("nodes, p, coarse", [
    pytest.param((65, 65), 3.0, (33, 33), id="65"),
    pytest.param((129, 129), 3.0, (65, 65), id="129"),
    *(pytest.param((4097,), p, None, id=f"4097-p{p:g}") for p in (3.0, 10.0, 20.0)),
])
def test_nested_solve_matches_single_level(nodes, p, coarse, monkeypatch):
    """A nested box solve reaches the single-level minimizer of its own
    grid, to 1e-9: its lagged-factor steps solve by CG to a forcing term.  A
    line is not nested: its exact solve is the single-level one, bit for
    bit, with one level row."""
    import plapreg.solver as solver_mod

    grid = Grid.box((-1.0,) * len(nodes), (1.0,) * len(nodes), nodes)
    spec = torsion_spec(grid, p, 1e-3)
    nested = solve(spec)
    monkeypatch.setattr(solver_mod, "_levels", lambda spec: [spec])
    single = solve(spec)
    assert nested.converged and single.converged
    assert [row[0] for row in nested.levels][-2:] == [n for n in (coarse, nodes) if n]
    assert single.levels == ((grid.nodes, single.iterations, single.factorizations,
                              single.energy),)
    assert nested.energy == pytest.approx(single.energy, rel=1e-14)
    assert np.max(np.abs(nested.u.values - single.u.values)) <= (1e-9 if coarse else 0.0)
    # the rows sum to the solve's counts and end with the problem grid's energy
    assert sum(row[1] for row in nested.levels) == nested.iterations
    assert sum(row[2] for row in nested.levels) == nested.factorizations
    assert nested.levels[-1][3] == nested.energy


@pytest.mark.parametrize("cap", [0, 3, 7])
def test_capped_nested_solve_returns_a_fine_iterate(cap, monkeypatch):
    """Capped on a coarse level, a nested box solve prolongs its iterate to
    the problem grid level by level and evaluates it there once, at the
    target (p, eps)."""
    import plapreg.solver as solver_mod

    monkeypatch.setattr(solver_mod, "MAX_ITER", cap)
    grid = Grid.box((-1.0, -1.0), (1.0, 1.0), (129, 129))
    spec = torsion_spec(grid, 3.0, 1e-3)
    r = solve(spec)
    assert r.u.grid == grid and r.iterations == cap
    assert (r.converged, r.stop_reason) == (False, "max_iter")
    assert r.trace[-1][:2] == (cap, energy(spec, r.u)) and r.energy == r.trace[-1][1]
    assert r.el_residual == el_residual(spec, r.u)
    assert r.levels[-1][:2] == (grid.nodes, 0)


@pytest.mark.parametrize("nodes", [(257,), (33, 33), (64, 64), (65, 33), (7, 6), (513,),
                                   (1025,)])
def test_grid_that_does_not_nest_solves_as_from_g(nodes):
    """A grid that does not nest (every line, and a box that cannot halve
    down to 33 per axis) is one level, which on a box starts from the Coons
    patch of g (here 0, g = 0), and the solve reports one row, the problem
    grid's: on a line its outer calls and no factorization."""
    from plapreg.solver import _levels

    spec = torsion_spec(Grid.box((-1.0,) * len(nodes), (1.0,) * len(nodes), nodes), 3.0, 1e-3)
    if len(nodes) == 2:
        levels = _levels(spec)
        assert len(levels) == 1 and levels[0] is spec
    r = solve(spec)
    assert r.converged
    assert r.levels == ((spec.grid.nodes, r.iterations, r.factorizations, r.energy),)


class _WeakFactor:
    """A SuperLU factor behind an object a weak reference can watch."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)


def test_old_factor_is_released_before_refactoring(monkeypatch):
    """When SuperLU is asked for a new factor, every reference to the old one
    (the kept factor, a preconditioner built on its solve, a coarser level's
    factor) is gone, and none outlives the solve: in the 257^2 torsion solve,
    holding the old factor while SuperLU builds the new one raised peak RSS
    from 181 to 210 MB."""
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
    for nodes in (33, 65):  # 65^2 nests: its 33^2 level's factor goes too
        refs.clear()
        live_at_entry.clear()
        g = Grid.box((-1.0, -1.0), (1.0, 1.0), (nodes, nodes))
        r = solve(torsion_spec(g, 3.0, 1e-3))
        assert r.converged and r.cg_iterations > 0 and r.factorizations >= 3
        assert live_at_entry == [0] * r.factorizations
        assert all(ref() is None for ref in refs)


def test_solve_trace_energy_monotone():
    spec = box_problem("torsion", 3.0, 1e-3, 33)
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
    # u = 0, this line's g, misses the source entirely
    assert el_residual(spec, ScalarField.constant(g, 0.0)) == pytest.approx(1.0)


def test_el_residual_of_interpolant_is_kink_limited():
    """Interpolating the degenerate profile leaves an RMS residual that
    decays like h^(1/2): the kink cell contributes an O(1) pointwise error
    on an O(h) window."""
    res = {nodes: interpolant_residual(nodes) for nodes in (513, 1025, 2049)}
    assert within("residual_1025", res[1025])
    assert within("residual_ratio", res[1025] / res[513], res[2049] / res[1025])


def test_grad_and_residual_tolerances_scale():
    assert grad_tolerance(0.0) == pytest.approx(1e-10)
    assert grad_tolerance(99.0) == pytest.approx(1e-8)
    g = Grid.line(0.0, 1.0, 101)
    spec = torsion_spec(g, 3.0, 0.1)
    # f = 1: weighted L2 norm is sqrt(volume) = 1
    assert residual_tolerance(spec) == pytest.approx(1e-6 + 1e-10)


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
    assert summary["levels"] == [{"nodes": [33], "iterations": r.iterations,
                                  "factorizations": r.factorizations, "energy": r.energy}]


def test_write_solve_result_records_each_level(tmp_path):
    spec = torsion_spec(Grid.box((-1.0, -1.0), (1.0, 1.0), (65, 65)), 3.0, 1e-2)
    r = solve(spec)
    write_solve_result(r, spec, tmp_path)
    levels = json.loads((tmp_path / "solution.json").read_text())["levels"]
    assert [row["nodes"] for row in levels] == [[33, 33], [65, 65]]
    assert levels == [{"nodes": list(n), "iterations": i, "factorizations": f, "energy": e}
                      for n, i, f, e in r.levels]
