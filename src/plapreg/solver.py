"""Energy minimization for the regularized p-Dirichlet functional.

The discrete energy is

    E(u) = sum_cells vol * L_eps(c(u)) + sum_nodes w * u * f

where c(u) is the cell-centered gradient (forward difference per cell in
1D, corner-averaged differences per cell in 2D) and w are trapezoid node
weights for the source term.  The cell gradient is one sparse matrix D
(cells * dim rows, cell-major with components fastest; one column per
node), built once per grid, and everything the solve needs derives from it:

    c = (D u).reshape(-1, dim)
    grad E = D^T (vol * flux(c)) + w * f
    K_II = D_I^T blockdiag(vol * H(c)) D_I

where D_I holds the columns of the interior nodes and flux and H are the
closed-form derivatives of L_eps.  With this pairing the exact gradient of
E with respect to an interior node value equals minus the node weight times
the conservative flux-difference operator, so the Euler-Lagrange residual
reported here is the first variation of the energy and vanishes at the
discrete minimizer.

Minimization is damped Newton on the interior unknowns with the Hessian
K_II, an Armijo backtracking line search, and a gradient
descent fallback if a Newton direction ever fails to decrease the energy.
The interior unknowns are numbered once per grid in elimination order
(natural in 1D, where K_II is tridiagonal; George's nested dissection of
the mesh in 2D), and D_I takes its columns in that order, so every K_II
arrives ordered for a SuperLU factorization in symmetric mode with no
fill-reducing permutation of its own.  In 1D each Newton step is one such
factorization.  In 2D the Hessians change little from step to step, so a
step after the first solves K_II by CG preconditioned with the last
factor, to an Eisenstat-Walker forcing term (inexact Newton), and factors
afresh only when CG reaches an iteration cap or returns a non-finite step.
The solve walks one (p, eps) continuation path, warm starting each stage.
For small eps it is a geometric eps path, which keeps Newton steps well
scaled even when the initial iterate has vanishing gradient.  Above
p = 18 a Newton step from the harmonic start overflows, so the path first
doubles p from the first p / 2**n at or below 18, at the eps path's first
eps, and then walks the eps path at p (Huang, Li & Liu, J. Sci. Comput.
32, 2007).  Only the final stage is held to the convergence tolerances.
The path ends exactly at the requested (p, eps).  Each stage begins by
evaluating its iterate; once the iteration cap is reached the remaining
stages are skipped but the last, where the iterate is evaluated once more.
So the energy, residual and last trace row of a result are those of the
returned iterate at the requested (p, eps), and `stop_reason` says why
the final stage stopped: it converged, reached the cap, stalled at the
rounding floor of the gradient, or found no descent direction.

D is the only difference operator the solve uses; the node gradient in
:mod:`plapreg.fields` serves the analysis of a solution (its seminorms and
exponent fits), never the solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
import functools
import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import (
    Grid, ScalarField, write_field_csv, write_grid_json, write_json, write_table,
)
from .pointwise import PLapParams, L_eps, grad_L_eps, hess_L_eps

__all__ = [
    "ProblemSpec",
    "SolveResult",
    "SolverError",
    "energy",
    "energy_and_gradient",
    "solve",
    "el_residual",
    "energy_upper_bound",
    "grad_tolerance",
    "residual_tolerance",
    "write_solve_result",
]

MAX_ITER_DEFAULT = 200
_ARMIJO_C = 1e-4
_BACKTRACK_MAX = 60
# boundary values of u are compared against g with this absolute slack
_BOUNDARY_ATOL = 1e-12
# nested dissection leaves blocks of at most this many nodes per side in C
# order; measured fastest among 1-32 on the 257^2 torsion Hessian
_ND_LEAF = 4
# a 2D Newton step solved by CG with the last factor as preconditioner falls
# back to a fresh factorization once CG reaches this many iterations.  On
# the 257^2 torsion solve (p = 3, eps = 1e-3) the lagged steps take 2-10 CG
# iterations, 0.03-0.09 s a step, against 0.25-0.30 s per factorization;
# the cap is reached once, at the first step of the eps = 1e-2 stage, so 2
# factorizations serve 8 steps
_PCG_CAP = 15
# Eisenstat-Walker forcing term (their choice 2): CG stops once
# ||K s + g|| <= eta ||g||, eta = gamma (||g|| / ||g_prev||)^2 clipped to
# [_ETA_MIN, _ETA_MAX], g_prev the gradient of the previous Newton step.
# At 257^2 gamma = 0.1 and 0.01 cost 15% and 40% more CG iterations for
# the same 8 steps; energies agree with factoring every step to rel 5e-16
_ETA_GAMMA, _ETA_MIN, _ETA_MAX = 0.9, 1e-8, 1e-2
# above this p the solve first doubles p up from the first p / 2**n at or
# below it (`_path`).  Newton from the harmonic start, on 1D torsion and the
# sharp oracle at 1025 nodes, eps in {1e-2, 1e-6}: 17-19 steps at p = 16
# and 18; at p = 19 it overflows in `**` (20-27 steps); at p = 20 it
# reaches the 200-step cap with ~1,800 overflows
_P_DIRECT = 18.0


class SolverError(RuntimeError):
    """A solve failed in a context that cannot continue (e.g. inside a sweep)."""


@dataclass(frozen=True)
class ProblemSpec:
    """Grid, exponents, source f and Dirichlet trace g (read on the boundary)."""

    grid: Grid
    params: PLapParams
    f: ScalarField
    g: ScalarField

    def __post_init__(self):
        if self.f.grid != self.grid or self.g.grid != self.grid:
            raise ValueError("f and g must live on the problem grid")


@dataclass(frozen=True)
class SolveResult:
    u: ScalarField
    energy: float
    el_residual: float
    iterations: int
    converged: bool
    stop_reason: str  # why the final stage stopped: converged, max_iter, stalled, no_descent
    trace: tuple = ()  # (iteration, energy, grad_norm) rows
    factorizations: int = 0  # SuperLU factorizations, harmonic start included
    cg_iterations: int = 0  # PCG iterations of the lagged-factor Newton steps

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(tuple(row) for row in self.trace))


# ---------------------------------------------------------------------------
# the cell-gradient operator

@functools.lru_cache(maxsize=4)
def _gradient_operator(grid: Grid) -> tuple:
    """(D, D_I, D_I^T, order): the cell gradient, its interior columns and their order.

    c = (D u).reshape(-1, dim) holds one gradient per cell, cells in C order.
    Per axis the gradient is the difference along that axis averaged over
    the cell's 2**(dim-1) edges parallel to it.  `order` holds the flat ids
    of the interior nodes in elimination order (see `_elimination_order`);
    D_I holds the columns of D in that order, so interior vectors and the
    Hessian K_II are indexed by position in `order`.  D_I and D_I^T are
    CSC, so products of them with CSC factors stay CSC for the linear
    solver.  The cached arrays are shared by every caller and must not be
    modified.
    """
    dim = grid.dim
    ids = np.arange(grid.num_nodes).reshape(grid.shape)
    ncells = int(np.prod([n - 1 for n in grid.nodes]))
    cell_rows = np.arange(ncells * dim).reshape(ncells, dim)
    rows, cols, coef = [], [], []
    for corner in itertools.product((0, 1), repeat=dim):
        node = ids[tuple(slice(c, c + n - 1) for c, n in zip(corner, grid.nodes))].ravel()
        for k, h in enumerate(grid.h):
            rows.append(cell_rows[:, k])
            cols.append(node)
            coef.append(np.full(ncells, (2 * corner[k] - 1) / (2 ** (dim - 1) * h)))
    D = sp.csr_matrix(
        (np.concatenate(coef), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ncells * dim, grid.num_nodes),
    )
    order = _elimination_order(ids[(slice(1, -1),) * dim])
    D_I = D[:, order].tocsc()
    return D, D_I, D_I.T.tocsc(), order


def _elimination_order(ids: np.ndarray) -> np.ndarray:
    """The interior node ids `ids` (one axis per grid axis) in elimination order.

    1D: natural order; the Hessian is tridiagonal and factors without fill.
    2D: nested dissection.  A block is split at the middle row or column of
    its longer side; the two halves are ordered recursively and the
    separator line last.  A cell spans two adjacent rows (columns), so no
    Hessian entry couples the halves and fill stays inside them and the
    separator.
    """
    if ids.ndim == 1 or max(ids.shape) <= _ND_LEAF:
        return ids.ravel()
    axis = int(ids.shape[1] > ids.shape[0])
    mid = ids.shape[axis] // 2
    lo, sep, hi = np.split(ids, [mid, mid + 1], axis=axis)
    return np.concatenate([_elimination_order(lo), _elimination_order(hi), sep.ravel()])


def _cell_gradients(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """Gradient per cell, shape (ncells, dim)."""
    return (_gradient_operator(grid)[0] @ vals.ravel()).reshape(-1, grid.dim)


def _check_boundary(spec: ProblemSpec, u: ScalarField) -> None:
    bnd = spec.grid.boundary_flags()
    scale = 1.0 + float(np.max(np.abs(spec.g.values)))
    gap = np.max(np.abs(u.values[bnd] - spec.g.values[bnd]))
    if gap > _BOUNDARY_ATOL * scale:
        raise ValueError(f"u does not match g on the boundary (max gap {gap:.3e})")


def energy(spec: ProblemSpec, u: ScalarField) -> float:
    """Discrete energy of an admissible field (u = g on the boundary)."""
    _check_boundary(spec, u)
    return _energy_raw(spec, u.values)


def _energy_raw(spec: ProblemSpec, vals: np.ndarray, eps: float | None = None) -> float:
    p = spec.params.p
    eps = spec.params.eps if eps is None else eps
    c = _cell_gradients(spec.grid, vals)
    e_cells = spec.grid.cell_volume * float(np.sum(L_eps(c, eps, p)))
    w = spec.grid.quad_weights()
    return e_cells + float(np.sum(w * vals * spec.f.values))


def _gradient_raw(spec: ProblemSpec, vals: np.ndarray, eps: float | None = None) -> np.ndarray:
    p = spec.params.p
    eps = spec.params.eps if eps is None else eps
    grid = spec.grid
    flux = grid.cell_volume * grad_L_eps(_cell_gradients(grid, vals), eps, p)
    out = _gradient_operator(grid)[0].T @ flux.ravel()
    return out.reshape(grid.shape) + grid.quad_weights() * spec.f.values


def energy_and_gradient(spec: ProblemSpec, u: ScalarField) -> tuple[float, ScalarField]:
    """Energy and its exact nodal gradient (all nodes, boundary included)."""
    _check_boundary(spec, u)
    return _energy_raw(spec, u.values), ScalarField(
        spec.grid, _gradient_raw(spec, u.values)
    )


def _interior_hessian(spec: ProblemSpec, vals: np.ndarray, eps: float) -> sp.csc_matrix:
    """K_II = D_I^T blockdiag(vol * H_c) D_I, the Hessian in the interior unknowns.

    Rows and columns follow the interior elimination order of the grid.
    """
    grid = spec.grid
    _, D_I, D_IT, _ = _gradient_operator(grid)
    Hc = grid.cell_volume * hess_L_eps(_cell_gradients(grid, vals), eps, spec.params.p)
    m = len(Hc)
    return D_IT @ sp.bsr_matrix((Hc, np.arange(m), np.arange(m + 1))).tocsc() @ D_I


# ---------------------------------------------------------------------------
# tolerances tied to the convergence contract

def grad_tolerance(energy_value: float) -> float:
    return 1e-10 * (1.0 + abs(energy_value))


def residual_tolerance(spec: ProblemSpec) -> float:
    w = spec.grid.quad_weights()
    f_l2 = float(np.sqrt(np.sum(w * spec.f.values**2)))
    return 1e-6 * f_l2 + 1e-10


def el_residual(spec: ProblemSpec, u: ScalarField) -> float:
    """RMS over interior nodes of div(grad L(grad u)) - f.

    Computed from the first variation of the discrete energy: the residual
    at an interior node is minus the energy gradient divided by the node
    weight, which is the conservative flux-difference form of the operator.
    """
    return _residual_rms(spec.grid, _gradient_raw(spec, u.values))


def _residual_rms(grid: Grid, g: np.ndarray) -> float:
    """RMS of g / w over the interior nodes in C order: the EL residual of
    a nodal energy gradient g."""
    interior = ~grid.boundary_flags()
    return float(np.sqrt(np.mean((g[interior] / grid.quad_weights()[interior]) ** 2)))


def energy_upper_bound(spec: ProblemSpec, u0: ScalarField) -> float:
    """Energy bound sum vol*(1 + |c(u0)|^2)^(p/2)/p + sum w*u0*f, valid for eps <= 1.

    This is the energy of u0 at eps = 1.  It dominates E(u0) cell by cell,
    hence dominates the minimum energy when u0 is admissible.
    """
    if spec.params.eps > 1.0:
        raise ValueError("bound requires eps <= 1")
    _check_boundary(spec, u0)
    return _energy_raw(spec, u0.values, 1.0)


# ---------------------------------------------------------------------------
# the solve

class _LinearSolves:
    """The linear solves of one `solve` call, and their counts.

    A direct solve factors K afresh.  With `lagged` (2D) it keeps the
    factor, and the next Newton step solves its own K by CG preconditioned
    with that factor, to the Eisenstat-Walker forcing term; when CG reaches
    `_PCG_CAP` iterations or returns a non-finite step, the step is solved
    directly and the new factor replaces the old.  The factor lives only as
    long as this object, and the old one is released before SuperLU
    allocates the new one, so at most one is ever held.  1D Hessians are
    tridiagonal and factor without fill, so there every step is direct.
    """

    def __init__(self, lagged: bool):
        self.lagged = lagged
        self.lu = None
        self.prev_g_norm = None
        self.factorizations = 0
        self.cg_iterations = 0

    def direct(self, K: sp.csc_matrix, rhs: np.ndarray, keep: bool = False) -> np.ndarray:
        """K^{-1} rhs for a symmetric K whose unknowns are in elimination order,
        by a fresh factorization, kept as the preconditioner if `keep`.

        An exactly singular K gives a NaN solution instead of an exception: a
        Newton step through it fails the line search and the solve falls back
        to the gradient direction.
        """
        self.lu = None  # release the old factor before SuperLU allocates a new one
        self.factorizations += 1
        try:
            lu = spla.splu(K, permc_spec="NATURAL", options={"SymmetricMode": True})
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            return np.full(rhs.shape, np.nan)
        if keep:
            self.lu = lu
        return lu.solve(rhs)

    def newton_step(self, K: sp.csc_matrix, g_int: np.ndarray, g_norm: float) -> np.ndarray:
        """The Newton step K^{-1} (-g_int); g_norm = ||g_int||."""
        prev, self.prev_g_norm = self.prev_g_norm, g_norm
        rhs = -g_int
        if self.lu is not None:
            eta = min(_ETA_MAX, _ETA_GAMMA * (g_norm / prev) ** 2)
            step = self._pcg(K, rhs, max(_ETA_MIN, eta))
            if step is not None:
                return step
        return self.direct(K, rhs, keep=self.lagged)

    def _pcg(self, K, rhs, rtol):
        """CG from 0 preconditioned by the kept factor; None if capped or non-finite."""
        its = 0

        def count(_):
            nonlocal its
            its += 1

        M = spla.LinearOperator(K.shape, matvec=self.lu.solve, dtype=float)
        step, _ = spla.cg(K, rhs, rtol=rtol, maxiter=_PCG_CAP, M=M, callback=count)
        self.cg_iterations += its
        return step if its < _PCG_CAP and np.isfinite(step).all() else None


def _harmonic_extension(spec: ProblemSpec, solves: _LinearSolves) -> np.ndarray:
    """Minimize the p = 2 energy with f = 0 and trace g: at most one linear solve.

    g itself is the minimizer when the interior gradient D_I^T D g vanishes
    (g = 0 in every torsion problem); then nothing is factored.
    """
    D, D_I, D_IT, order = _gradient_operator(spec.grid)
    vals = spec.g.values.copy()
    rhs = D_IT @ (D @ vals.ravel())
    if rhs.any():
        vals.ravel()[order] -= solves.direct(D_IT @ D_I, rhs)
    return vals


def _eps_path(eps: float) -> list[float]:
    """Geometric continuation path ending exactly at eps, starting no higher than 0.1."""
    if eps >= 0.1:
        return [eps]
    n_dec = int(np.ceil(np.log10(0.1 / eps)))
    return [0.1 * (eps / 0.1) ** (k / n_dec) for k in range(n_dec)] + [eps]


def _path(p: float, eps: float) -> list[tuple[float, float]]:
    """The (p, eps) continuation path, ending exactly at (p, eps).

    Up to `_P_DIRECT` it is the eps path at p.  Above, the stages
    p / 2**n, ..., p / 2, with p / 2**n the first at or below `_P_DIRECT`,
    run at the eps path's first eps ahead of it.
    """
    eps_path = _eps_path(eps)
    p_stages, p_k = [], p
    while p_k > _P_DIRECT:
        p_k /= 2.0
        p_stages.insert(0, p_k)
    return [(p_k, eps_path[0]) for p_k in p_stages] + [(p, e) for e in eps_path]


def solve(
    spec: ProblemSpec,
    u0: ScalarField | None = None,
    max_iter: int = MAX_ITER_DEFAULT,
) -> SolveResult:
    """Minimize the discrete energy over interior nodes at fixed trace g.

    The minimizer is unique (the energy is strictly convex for eps > 0), so
    the result does not depend on u0 beyond the stopping tolerance.  A result
    with converged = False and its `stop_reason` is returned if the final
    stage stops short of the tolerances.
    """
    if spec.params.eps <= 0.0:
        raise ValueError("solve requires eps > 0")
    grid = spec.grid
    order = _gradient_operator(grid)[3]
    solves = _LinearSolves(lagged=grid.dim == 2)

    if u0 is None:
        vals = _harmonic_extension(spec, solves)
    else:
        if u0.grid != grid:
            raise ValueError("u0 must live on the problem grid")
        vals = u0.values.copy()
        vals[grid.boundary_flags()] = spec.g.values[grid.boundary_flags()]

    tol_res = residual_tolerance(spec)
    trace: list[tuple[int, float, float]] = []
    it_total = 0

    path = _path(spec.params.p, spec.params.eps)
    for stage, (p_k, eps_k) in enumerate(path):
        final = stage == len(path) - 1
        if it_total >= max_iter and not final:
            continue  # capped: evaluate the iterate once more, at the target
        spec_k = replace(spec, params=replace(spec.params, p=p_k))
        # intermediate stages only need a rough minimizer to warm start
        stage_scale = 1.0 if final else 1e6
        prev_g_norm = np.inf
        polishing = False
        stall = 0
        while True:
            e_val = _energy_raw(spec_k, vals, eps_k)
            g_full = _gradient_raw(spec_k, vals, eps_k)
            g_int = g_full.ravel()[order]
            g_norm = float(np.linalg.norm(g_int))
            res = _residual_rms(grid, g_full)
            trace.append((it_total, e_val, g_norm))
            if g_norm <= grad_tolerance(e_val) * stage_scale and (
                not final or res <= tol_res
            ):
                stop = "converged"
                break
            if it_total >= max_iter:
                stop = "max_iter"
                break
            if polishing:
                stall = stall + 1 if g_norm >= 0.5 * prev_g_norm else 0
                if stall >= 8:
                    stop = "stalled"  # at the rounding floor of the gradient
                    break
            prev_g_norm = g_norm

            step = solves.newton_step(_interior_hessian(spec_k, vals, eps_k), g_int, g_norm)
            slope = float(np.dot(g_int, step))
            polishing = slope < 0.0 and _ARMIJO_C * (-slope) <= 1e-15 * (1.0 + abs(e_val))
            if polishing:
                # predicted decrease is below the energy's float resolution:
                # the line search would only compare rounding noise, so take
                # the full Newton step and let the gradient norm decide
                vals = vals.copy()
                vals.ravel()[order] += step
            else:
                vals, ok = _line_search(spec_k, vals, order, step, e_val, g_int, eps_k)
                if not ok:
                    # fallback: gradient descent direction, same Armijo search
                    vals, ok = _line_search(
                        spec_k, vals, order, -g_int, e_val, g_int, eps_k
                    )
                    if not ok:
                        stop = "no_descent"  # at numerical stationarity
                        break
            it_total += 1

    return SolveResult(
        u=ScalarField(grid, vals),
        energy=e_val,
        el_residual=res,
        iterations=it_total,
        converged=stop == "converged",
        stop_reason=stop,
        trace=trace,
        factorizations=solves.factorizations,
        cg_iterations=solves.cg_iterations,
    )


def _line_search(spec, vals, order, direction, e0, g_int, eps_k):
    """Armijo backtracking along an interior direction (indexed like `order`);
    returns (new_vals, ok)."""
    slope = float(np.dot(g_int, direction))
    if slope >= 0.0:
        return vals, False
    t = 1.0
    for _ in range(_BACKTRACK_MAX):
        trial = vals.copy()
        trial.ravel()[order] += t * direction
        e_trial = _energy_raw(spec, trial, eps_k)
        # strict decrease: sufficient-decrease alone can round to equality
        # once t*slope underflows the energy's resolution
        if e_trial <= e0 + _ARMIJO_C * t * slope and e_trial < e0:
            return trial, True
        t *= 0.5
    return vals, False


# ---------------------------------------------------------------------------
# output

def write_solve_result(result: SolveResult, spec: ProblemSpec, outdir) -> dict:
    """Write solution.csv/.json, grid.json and trace.csv; returns the summary."""
    outdir = Path(outdir)
    write_grid_json(spec.grid, outdir / "grid.json")  # creates outdir
    write_field_csv(result.u, outdir / "solution.csv")
    write_table(outdir / "trace.csv", ["iter", "energy", "grad_norm"], result.trace)
    summary = {key: getattr(result, key) for key in (
        "energy", "el_residual", "iterations", "converged", "stop_reason", "factorizations",
        "cg_iterations")}
    summary["params"] = asdict(spec.params)
    write_json(summary, outdir / "solution.json")
    return summary
