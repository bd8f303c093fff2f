"""Energy minimization for the regularized p-Dirichlet functional.

The discrete energy is

    E(u) = sum_cells vol * L_eps(c(u)) + sum_nodes w * u * f

where c(u) is the cell-centered gradient (forward difference per cell in
1D, corner-averaged differences per cell in 2D) and w are trapezoid node
weights for the source term.  The cell gradient is a linear map D, never
stored as a matrix: component k of a cell's gradient is sum_a G[k, a] u[a]
over the cell's 2**dim corners a, with weights G built once per grid, and
corner a of every cell is one slice of the node array (`_corners`).  So
everything the solve needs is a sum of G-weighted corner slices:

    c = D u
    grad E = D^T (vol * flux(c)) + w * f
    K_II = D_I^T blockdiag(vol * H(c)) D_I

where D_I holds the columns of the interior nodes and flux and H are the
closed-form derivatives of L_eps.  With this pairing the exact gradient of
E with respect to an interior node value equals minus the node weight times
the conservative flux-difference operator, so the Euler-Lagrange residual
reported here is the first variation of the energy and vanishes at the
discrete minimizer.  K_II is filled from the cell blocks directly, with no
sparse product (`_assemble`).

Minimization is damped Newton on the interior unknowns with the Hessian
K_II, an Armijo backtracking line search, and a gradient
descent fallback if a Newton direction ever fails to decrease the energy.
The line search returns the energy of the iterate it accepts, so the
energy of each iterate is evaluated once.
The interior unknowns are numbered once per grid in elimination order
(natural in 1D; George's nested dissection of the mesh in 2D), and D_I
takes its columns in that order.  In 1D K_II is a tridiagonal band, and
each Newton step is one LAPACK tridiagonal solve of it.  A 2D K_II has a
fixed 9-point pattern and arrives ordered for a SuperLU factorization in
symmetric mode with no fill-reducing permutation of its own.  The 2D
Hessians change little from step to step, so a step after the first
solves K_II by CG preconditioned with the last factor, to an
Eisenstat-Walker forcing term (inexact Newton), and factors afresh only
when CG reaches an iteration cap or returns a non-finite step.
The solve walks one (p, eps) continuation path, warm starting each stage.
For small eps it is a geometric eps path, which keeps Newton steps well
scaled even when the initial iterate has vanishing gradient.  Above
p = 18 a Newton step from the harmonic start overflows, so the path first
doubles p from the first p / 2**n at or below 18, at the eps path's first
eps, and then walks the eps path at p (Huang, Li & Liu, J. Sci. Comput.
32, 2007).  A stage is its own ProblemSpec, whose params carry the
stage's (p, eps); the energy, gradient, Hessian and line search read p and
eps from the spec alone.  Only the final stage is held to the convergence
tolerances.
The path ends exactly at the requested (p, eps).  Each stage begins by
evaluating its iterate; once the iteration cap is reached the remaining
stages are skipped but the last, where the iterate is evaluated once more.
So the energy, residual and last trace row of a result are those of the
returned iterate at the requested (p, eps), and `stop_reason` says why
the final stage stopped: it converged, reached the cap, stalled at the
rounding floor of the gradient, or found no descent direction.

A 2D solve uses nested iteration (Briggs, Henson & McCormick, *A
Multigrid Tutorial*, ch. 3).  While every (n - 1) is even and
the halved grid keeps at least `_COARSEST` = 33 nodes per axis, the grid is
halved; the levels are the coarsest grid refined back to the problem grid,
with f and g injected (a coarse node is a fine node), so 257^2 nests as
33^2, 65^2, 129^2, 257^2.  The coarsest level starts from the harmonic
extension of g and walks the whole (p, eps) path; each finer level starts
from the bilinear prolongation of the coarser iterate, its boundary reset to
g, and runs the final (p, eps) stage alone.
The stage list is one list of (level, p, eps), so a coarse level ends at
the loose tolerance of an intermediate stage.  The iteration cap counts
Newton steps over all levels; a capped iterate is prolonged to the problem
grid and evaluated there.  `SolveResult.levels` records each level's nodes,
steps, factorizations and final energy.  A 1D grid, or a 2D grid that
does not nest, is its own only level.

The cell gradient is the only difference operator the solve uses; the node
gradient in :mod:`plapreg.fields` serves the analysis of a solution (its
seminorms and exponent fits), never the solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
import functools
import itertools

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fields import (
    Grid, ProblemSpec, ScalarField,
    write_field_csv, write_grid_json, write_json, write_table,
)
from .pointwise import L_eps, grad_L_eps, hess_L_eps

__all__ = [
    "SolveResult",
    "energy",
    "solve",
    "el_residual",
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
# a 2D solve halves its grid while every (n - 1) is even and the
# coarse grid keeps at least this many nodes per axis (`_levels`).  At 257^2
# (2-core Xeon, warm) a coarsest grid of 17, 33 or 65 nodes makes no
# difference to seeded torsion (p = 3, eps = 1e-3: 0.94-1.01 s, against
# 1.45-1.69 s on one level), where the finest level's 4-5 steps dominate; on
# the sharp oracle (p = 5, eps = 1e-4) 65 costs 10% more (0.98 s against
# 0.87-0.89 s), as the whole (p, eps) path then runs on 65^2
_COARSEST = 33


@dataclass(frozen=True)
class SolveResult:
    u: ScalarField
    energy: float
    el_residual: float
    iterations: int
    stop_reason: str  # why the final stage stopped: converged, max_iter, stalled, no_descent
    trace: tuple = ()  # (iteration, energy, grad_norm) rows
    # direct factorizations, harmonic start included: LAPACK tridiagonal in 1D,
    # SuperLU in 2D
    factorizations: int = 0
    cg_iterations: int = 0  # PCG iterations of the lagged-factor Newton steps
    # (nodes, iterations, factorizations, energy) per level evaluated, coarsest
    # first; the last row is the problem grid's.  A solve capped on a coarse
    # level has no row for the levels it skipped on its way to the problem grid
    levels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(tuple(row) for row in self.trace))
        object.__setattr__(self, "levels", tuple(tuple(row) for row in self.levels))

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


# ---------------------------------------------------------------------------
# the cell-gradient operator

# sized to hold every level of a nested solve: 513^2 has 5 (`_levels`)
@functools.lru_cache(maxsize=8)
def _gradient_operator(grid: Grid) -> tuple:
    """(G, fill, order): the corner weights of the cell gradient, how a 2D
    K_II is filled, and the interior order.

    Per axis a cell's gradient is the difference along that axis averaged
    over the cell's 2**(dim-1) edges parallel to it: G[k, a] is the weight
    of corner a (in `_corners` order) in component k.  `order` holds the
    flat ids of the interior nodes in elimination order (see
    `_elimination_order`); interior vectors and the Hessian K_II are indexed
    by position in `order`.  `fill` is `_stencil_fill`'s (C, indptr,
    indices, src) in 2D and None in 1D, where K_II is a band (`_assemble`).
    The cached arrays are shared by every caller and must not be modified.
    """
    G = np.array([[(2 * corner[k] - 1) / (2 ** (grid.dim - 1) * h)
                   for corner, _ in _corners(grid)] for k, h in enumerate(grid.h)])
    order = _elimination_order(
        np.arange(grid.num_nodes).reshape(grid.shape)[(slice(1, -1),) * grid.dim])
    return G, _stencil_fill(grid, G, order) if grid.dim == 2 else None, order


def _corners(grid: Grid) -> list[tuple[tuple[int, ...], tuple[slice, ...]]]:
    """A cell's corners in `itertools.product` order, each with the slice of
    the node array that holds that corner of every cell, cells in C order."""
    return [(corner, tuple(slice(c, c + n - 1) for c, n in zip(corner, grid.nodes)))
            for corner in itertools.product((0, 1), repeat=grid.dim)]


def _stencil_fill(grid: Grid, G: np.ndarray, order: np.ndarray) -> tuple:
    """(C, indptr, indices, src): how `_assemble` fills a 2D K_II.

    C (4 x 16) maps a cell's Hessian block H, flattened, to its corner
    stiffness G^T H G (4 x 4, corners in `_corners` order),
    flattened.  K_II has the structural 9-point pattern of the interior
    nodes whatever its values: CSC, columns and rows in elimination order,
    rows sorted in each column, (3 (n0 - 2) - 2) (3 (n1 - 2) - 2) entries.
    Its data are S.ravel()[src] for the stencil S of `_assemble`, where
    S[1 + d0, 1 + d1, i, j] is the entry in the row of node (i, j) and the
    column of node (i + d0, j + d1).
    """
    C = (G[:, None, :, None] * G[None, :, None, :]).reshape(4, 16)
    n1 = grid.nodes[1]
    steps = np.array([d0 * n1 + d1 for d0 in (-1, 0, 1) for d1 in (-1, 0, 1)],
                     dtype=np.int32)
    pos = np.full(grid.num_nodes, -1, dtype=np.int32)
    pos[order] = np.arange(len(order))
    order = order.astype(np.int32)
    # per column (node q) and offset k: the row r = pos[q + steps[k]], -1 off
    # the interior, with k in the low 4 bits, so one sort orders the rows.
    # int32 throughout: an int64 argsort of the rows raised the peak RSS of
    # the 257^2 torsion solve from 175 to 186 MB
    key = pos[order[:, None] + steps] * 16 + np.arange(len(steps), dtype=np.int32)
    key.sort(axis=1)
    count = np.count_nonzero(key >= 0, axis=1)
    key = key[key >= 0]
    k = key & 15
    # the entry in the row of node q + d and the column of node q is S[-d] there
    src = (len(steps) - 1 - k) * grid.num_nodes + np.repeat(order, count) + steps[k]
    return C, np.concatenate([[0], np.cumsum(count)]).astype(np.int32), key >> 4, src


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
    """c = D u: the gradient per cell, shape (ncells, dim).

    Component k is 0 + sum_a G[k, a] u[corner a], corners in order: the
    order of a CSR product with D, which also turns -0.0 into 0.0.
    """
    G = _gradient_operator(grid)[0]
    corners = _corners(grid)
    return np.stack([sum((G[k, a] * vals[cells] for a, (_, cells) in enumerate(corners)), 0.0)
                     for k in range(grid.dim)], axis=-1).reshape(-1, grid.dim)


def _gradient_adjoint(grid: Grid, w: np.ndarray) -> np.ndarray:
    """D^T w for cell vectors w, shape (ncells, dim): a node array.

    A node sums its cells in C order and each cell's components in order,
    as a CSC product with D^T does: corners in reverse, components inner.
    """
    G = _gradient_operator(grid)[0]
    w = w.reshape(*(n - 1 for n in grid.nodes), grid.dim)
    out = np.zeros(grid.shape)
    for a, (_, cells) in reversed(list(enumerate(_corners(grid)))):
        for k in range(grid.dim):
            out[cells] += G[k, a] * w[..., k]
    return out


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


def _energy_raw(spec: ProblemSpec, vals: np.ndarray) -> float:
    c = _cell_gradients(spec.grid, vals)
    e_cells = spec.grid.cell_volume * float(np.sum(L_eps(c, spec.params.eps, spec.params.p)))
    w = spec.grid.quad_weights()
    return e_cells + float(np.sum(w * vals * spec.f.values))


def _gradient_raw(spec: ProblemSpec, vals: np.ndarray) -> np.ndarray:
    grid = spec.grid
    flux = grid.cell_volume * grad_L_eps(_cell_gradients(grid, vals), spec.params.eps,
                                         spec.params.p)
    return _gradient_adjoint(grid, flux) + grid.quad_weights() * spec.f.values


def _interior_hessian(spec: ProblemSpec, vals: np.ndarray) -> np.ndarray | sp.csc_matrix:
    """K_II = D_I^T blockdiag(vol * H_c) D_I, the Hessian in the interior unknowns.

    Rows and columns follow the interior elimination order of the grid.
    """
    grid = spec.grid
    return _assemble(grid, grid.cell_volume * hess_L_eps(_cell_gradients(grid, vals),
                                                         spec.params.eps, spec.params.p))


def _assemble(grid: Grid, Hc: np.ndarray) -> np.ndarray | sp.csc_matrix:
    """D_I^T blockdiag(Hc) D_I from the cell blocks Hc, shape (cells, dim, dim).

    1D: the tridiagonal band, laid out for `scipy.linalg.solve_banded` with
    one sub- and one superdiagonal.  With t = Hc * (1/h) * (1/h) per cell,
    the diagonal is t[:-1] + t[1:] and the off-diagonals are -t[1:-1]: the
    products and sums of the sparse product, so bitwise its result.  2D: a
    CSC matrix with the fixed pattern of `_stencil_fill`.  Each cell's
    corner stiffness G^T H G is added into the 9-point stencil S of its
    corners, and K_II's data are gathered from S; the sums run in another
    order than the sparse product's.
    """
    if grid.dim == 1:
        c = 1.0 / grid.h[0]
        t = Hc.ravel() * c * c
        band = np.zeros((3, len(t) - 1))
        band[0, 1:] = band[2, :-1] = -t[1:-1]
        band[1] = t[:-1] + t[1:]
        return band
    C, indptr, indices, src = _gradient_operator(grid)[1]
    n0, n1 = grid.nodes
    H = Hc.reshape(-1, 4)
    S = np.zeros((3, 3, n0, n1))
    corners = enumerate(_corners(grid))
    for (a, ((a0, a1), cells)), (b, ((b0, b1), _)) in itertools.product(corners, repeat=2):
        S[1 + b0 - a0, 1 + b1 - a1][cells] += (H @ C[:, 4 * a + b]).reshape(n0 - 1, n1 - 1)
    n = len(indptr) - 1
    return sp.csc_matrix((S.ravel()[src], indices, indptr), shape=(n, n))


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


# ---------------------------------------------------------------------------
# the solve

class _LinearSolves:
    """The linear solves of one `solve` call, and their counts.

    A direct solve factors K afresh: LAPACK's tridiagonal solver on the 1D
    band, SuperLU on a 2D K, whose factor is kept.  The next Newton step
    solves its own K by CG preconditioned with the kept factor, to the
    Eisenstat-Walker forcing term, set by the gradient norms of this step
    and the previous one, both of which `solve` passes in; when CG reaches
    `_PCG_CAP` iterations or returns a non-finite step, the step is solved
    directly and the new factor replaces the old.  `solve` drops the factor
    as each level starts, so neither the harmonic start's factor nor a
    coarser level's preconditions a new K.  The factor lives only as long
    as this object, and the old one is released before SuperLU allocates the
    new one, so at most one is ever held.  A 1D band has no factor to keep
    (it costs less to solve than CG to iterate), so there every step is
    direct.
    """

    def __init__(self):
        self.lu = None
        self.factorizations = 0
        self.cg_iterations = 0

    def direct(self, K: np.ndarray | sp.csc_matrix, rhs: np.ndarray) -> np.ndarray:
        """K^{-1} rhs for a K_II from `_assemble`, by a fresh factorization; a
        SuperLU factor is kept as the preconditioner.

        The 1D band is solved by `scipy.linalg.solve_banded` (LAPACK gtsv).
        A 2D K, its unknowns in elimination order, is factored by SuperLU in
        symmetric mode with no fill-reducing permutation of its own.  An
        exactly singular K gives a NaN solution instead of an exception: a
        Newton step through it fails the line search and the solve falls back
        to the gradient direction.
        """
        self.lu = None  # release the old factor before SuperLU allocates a new one
        self.factorizations += 1
        if isinstance(K, np.ndarray):
            try:
                return sla.solve_banded((1, 1), K, rhs, check_finite=False)
            except np.linalg.LinAlgError:  # gtsv: "singular matrix"
                return np.full(rhs.shape, np.nan)
        try:
            self.lu = spla.splu(K, permc_spec="NATURAL", options={"SymmetricMode": True})
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            return np.full(rhs.shape, np.nan)
        return self.lu.solve(rhs)

    def newton_step(self, K: np.ndarray | sp.csc_matrix, g_int: np.ndarray,
                    g_norm: float, prev: float) -> np.ndarray:
        """The Newton step K^{-1} (-g_int); g_norm = ||g_int||, and prev is
        the norm at the previous step, which sets the CG forcing term."""
        rhs = -g_int
        if self.lu is not None:
            eta = min(_ETA_MAX, _ETA_GAMMA * (g_norm / prev) ** 2)
            step = self._pcg(K, rhs, max(_ETA_MIN, eta))
            if step is not None:
                return step
        return self.direct(K, rhs)

    def _pcg(self, K, rhs, rtol):
        """CG from 0 preconditioned by the kept factor; None if capped or non-finite."""
        its = []  # one entry per CG iteration
        M = spla.LinearOperator(K.shape, matvec=self.lu.solve, dtype=float)
        step, _ = spla.cg(K, rhs, rtol=rtol, maxiter=_PCG_CAP, M=M,
                          callback=lambda _: its.append(None))
        self.cg_iterations += len(its)
        return step if len(its) < _PCG_CAP and np.isfinite(step).all() else None


def _harmonic_extension(spec: ProblemSpec, solves: _LinearSolves) -> np.ndarray:
    """Minimize the p = 2 energy with f = 0 and trace g: at most one linear solve.

    Its K_II is D_I^T D_I, assembled from unit cell blocks.  g itself is the
    minimizer when the interior gradient D_I^T D g vanishes (g = 0 in every
    torsion problem); then nothing is factored.
    """
    grid = spec.grid
    order = _gradient_operator(grid)[2]
    vals = spec.g.values.copy()
    c = _cell_gradients(grid, vals)
    rhs = _gradient_adjoint(grid, c).ravel()[order]
    if rhs.any():
        unit = np.broadcast_to(np.eye(grid.dim), (len(c), grid.dim, grid.dim))
        vals.ravel()[order] -= solves.direct(_assemble(grid, unit), rhs)
    return vals


def _eps_path(eps: float) -> list[float]:
    """Geometric continuation path ending exactly at eps, starting no higher than 0.1."""
    if eps >= 0.1:
        return [eps]
    ratio = 0.1 / float(eps)  # inf, with no warning, for eps below about 5.6e-310
    n_dec = int(np.ceil(np.log10(ratio) if ratio < np.inf else np.log10(0.1) - np.log10(eps)))
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


def _levels(spec: ProblemSpec) -> list[ProblemSpec]:
    """The problems of a nested solve, coarsest first, ending with spec itself.

    A 2D grid is halved while every (n - 1) is even and the coarse grid keeps
    at least `_COARSEST` nodes per axis; the levels are the coarsest grid
    refined back up to spec.grid.  A coarse node is a fine node, so f and g
    are injected.  A 1D grid is its own only level.
    """
    k, nodes = 0, spec.grid.nodes
    while spec.grid.dim == 2 and all(n % 2 and (n + 1) // 2 >= _COARSEST for n in nodes):
        k, nodes = k + 1, tuple((n + 1) // 2 for n in nodes)
    level = replace(spec.grid, nodes=nodes)
    levels = []
    for stride in (2**j for j in range(k, 0, -1)):
        f, g = (ScalarField(level, field.values[::stride, ::stride])
                for field in (spec.f, spec.g))
        levels.append(ProblemSpec(level, spec.params, f, g))
        level = level.refine()
    return levels + [spec]


def _prolong(vals: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of 2D node values onto the grid refined by 2."""
    fine = np.empty(tuple(2 * n - 1 for n in vals.shape))
    fine[::2, ::2] = vals
    fine[1::2, ::2] = 0.5 * (vals[:-1] + vals[1:])
    fine[:, 1::2] = 0.5 * (fine[:, :-2:2] + fine[:, 2::2])
    return fine


def solve(spec: ProblemSpec, max_iter: int = MAX_ITER_DEFAULT) -> SolveResult:
    """Minimize the discrete energy over interior nodes at fixed trace g.

    The minimizer is unique (the energy is strictly convex for eps > 0), so
    the start is no choice of the caller's: the coarsest level starts from
    the harmonic extension of g.  A result with converged = False and its
    `stop_reason` is returned if the final stage stops short of the
    tolerances.  A 2D grid that nests is solved coarse to fine (see the
    module docstring).
    """
    if spec.params.eps <= 0.0:
        raise ValueError("solve requires eps > 0")
    levels = _levels(spec)
    solves = _LinearSolves()
    tol_res = residual_tolerance(spec)
    trace: list[tuple[int, float, float]] = []
    it_total = 0
    level = None
    rows = {}  # level nodes -> its row of `SolveResult.levels`
    prev_g_norm = np.inf  # the gradient norm at the last Newton step

    stages = [(levels[0], p_k, eps_k) for p_k, eps_k in _path(spec.params.p, spec.params.eps)]
    stages += [(level_k, spec.params.p, spec.params.eps) for level_k in levels[1:]]
    for stage, (level_k, p_k, eps_k) in enumerate(stages):
        final = stage == len(stages) - 1
        if level_k is not level:
            # the coarsest level starts from the harmonic extension of g, a finer
            # one from the prolonged iterate; either is reset to g on its boundary
            level_start = (it_total, solves.factorizations)
            vals = _harmonic_extension(level_k, solves) if level is None else _prolong(vals)
            level, grid = level_k, level_k.grid
            order = _gradient_operator(grid)[2]
            vals[grid.boundary_flags()] = level.g.values[grid.boundary_flags()]
            solves.lu = None  # no factor carries over: not the harmonic start's, nor a coarser one
        if it_total >= max_iter and not final:
            continue  # capped: evaluate the iterate once more, at the target
        spec_k = replace(level, params=replace(level.params, p=p_k, eps=eps_k))
        # intermediate stages only need a rough minimizer to warm start
        stage_scale = 1.0 if final else 1e6
        polishing = False
        stall = 0
        e_val = _energy_raw(spec_k, vals)
        while True:
            g_full = _gradient_raw(spec_k, vals)
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

            step = solves.newton_step(_interior_hessian(spec_k, vals), g_int, g_norm,
                                      prev_g_norm)
            prev_g_norm = g_norm
            slope = float(np.dot(g_int, step))
            polishing = slope < 0.0 and _ARMIJO_C * (-slope) <= 1e-15 * (1.0 + abs(e_val))
            if polishing:
                # predicted decrease is below the energy's float resolution:
                # the line search would only compare rounding noise, so take
                # the full Newton step and let the gradient norm decide
                vals = vals.copy()
                vals.ravel()[order] += step
                e_val = _energy_raw(spec_k, vals)
            else:
                vals, ok, e_val = _line_search(spec_k, vals, order, step, e_val, g_int)
                if not ok:
                    # fallback: gradient descent direction, same Armijo search
                    vals, ok, e_val = _line_search(spec_k, vals, order, -g_int, e_val, g_int)
                    if not ok:
                        stop = "no_descent"  # at numerical stationarity
                        break
            it_total += 1
        rows[grid.nodes] = (grid.nodes, it_total - level_start[0],
                            solves.factorizations - level_start[1], e_val)

    return SolveResult(
        u=ScalarField(grid, vals),
        energy=e_val,
        el_residual=res,
        iterations=it_total,
        stop_reason=stop,
        trace=trace,
        factorizations=solves.factorizations,
        cg_iterations=solves.cg_iterations,
        levels=rows.values(),
    )


def _line_search(spec, vals, order, direction, e0, g_int):
    """Armijo backtracking along an interior direction (indexed like `order`)
    from vals, whose energy is e0; returns (new_vals, ok, new_energy), where
    new_energy is the energy of new_vals (e0 when no trial is accepted)."""
    slope = float(np.dot(g_int, direction))
    if slope >= 0.0:
        return vals, False, e0
    t = 1.0
    for _ in range(_BACKTRACK_MAX):
        trial = vals.copy()
        trial.ravel()[order] += t * direction
        e_trial = _energy_raw(spec, trial)
        # strict decrease: sufficient-decrease alone can round to equality
        # once t*slope underflows the energy's resolution
        if e_trial <= e0 + _ARMIJO_C * t * slope and e_trial < e0:
            return trial, True, e_trial
        t *= 0.5
    return vals, False, e0


# ---------------------------------------------------------------------------
# output

def write_solve_result(result: SolveResult, spec: ProblemSpec, outdir) -> dict:
    """Write solution.csv/.json, grid.json and trace.csv; returns the summary.

    The summary's `levels` holds one row per level of the solve, coarsest
    first (one row in 1D).
    """
    outdir = Path(outdir)
    write_grid_json(spec.grid, outdir / "grid.json")  # creates outdir
    write_field_csv(result.u, outdir / "solution.csv")
    write_table(outdir / "trace.csv", ["iter", "energy", "grad_norm"], result.trace)
    summary = {key: getattr(result, key) for key in (
        "energy", "el_residual", "iterations", "converged", "stop_reason", "factorizations",
        "cg_iterations")}
    summary["levels"] = [
        {"nodes": list(nodes), "iterations": its, "factorizations": facts, "energy": e}
        for nodes, its, facts, e in result.levels]
    summary["params"] = asdict(spec.params)
    write_json(summary, outdir / "solution.json")
    return summary
