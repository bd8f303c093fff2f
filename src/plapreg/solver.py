"""Energy minimization for the regularized p-Dirichlet functional.

The discrete energy is

    E(u) = sum_cells vol * L_eps(c(u)) + sum_nodes w * u * f

where c(u) is the cell-centered gradient (forward difference per cell in
1D, corner-averaged differences per cell in 2D) and w are trapezoid node
weights for the source term.  The cell gradient is a linear map D, never
stored as a matrix: component k of a cell's gradient is sum_a G[k, a] u[a]
over the cell's 2**dim corners a, and corner a of every cell is one slice
of the node array.  G, the corner slices, the interior order, the 2D
Hessian pattern and the node weights are built once per grid, cached
read-only (`_gradient_operator`, `_GridOps`); the interior nodes in C order
are the slice 1:-1 of every axis.  So everything the solve needs is a sum
of G-weighted corner slices:

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

A line is solved exactly, by the first integral of its Euler-Lagrange
equation (`_solve_line`; Lindqvist, *Notes on the p-Laplace equation*, on
the one-dimensional equation).  At an interior node the equation is
flux(c_{j-1}) - flux(c_j) + w_j f_j = 0, flux(c) = l_eps(c)^(p-2) c, so
cell j carries the flux sigma_j = sigma_0 + S_j, S_j the sum of w f over
the interior nodes up to j, and its slope c_j is the root of the monotone
r (eps^2 + r^2)^((p-2)/2) = |sigma_j|.  sigma_0 is the root of the monotone
Phi(sigma_0) = h sum(c) - (g_R - g_L), found inside a bracket, and u is g
plus h times the running sums of c from both ends, the cell of least
|sigma| taking up the rounding remainder.  So a line needs no
continuation, nesting, line search or linear solve, and scipy never loads.

A box is minimized by damped Newton on the interior unknowns with the
Hessian K_II, and every Newton step is one Armijo backtracking line search,
whose next trial after a rejected one minimizes a model of the energy's
t^p growth along the ray (`_line_search`).  It returns the energy and the
cell state (c and l = l_eps(c), `_cell_state`) of the iterate it accepts.
So an iterate's state is computed once per eps and shared by its energy,
gradient and Hessian, which also share l^(p-2), and its energy is
evaluated once.  Once a step's predicted decrease is below the energy's
float resolution the step polishes: the line search accepts its first
trial, the full Newton step, as it is.
The interior unknowns of a box are numbered once per grid by George's
nested dissection of the mesh, and D_I takes its columns in that order.
K_II has a fixed 9-point pattern and arrives ordered for a SuperLU
factorization in symmetric mode with no fill-reducing permutation of its
own.  That factor is single precision: K_II is scaled to unit diagonal, so
that its entries fit float32, and factored in float32, which halves the
memory its values take.
It only preconditions CG in float64 (`_LinearSolves`): the step right after
a factorization runs CG to rtol `_ETA_MIN`.  The Hessians change little
from step to step, so later steps keep the factor and run CG to an
Eisenstat-Walker forcing term (inexact Newton), factoring afresh only when
CG reaches an iteration cap or returns a non-finite step.
A box solve walks one (p, eps) continuation path, warm starting each stage.
Below eps = 0.1 it takes a stage at eps = 0.1 and then one at eps, which
keeps Newton steps well scaled even when the initial iterate has vanishing
gradient.  Above p = 18 Newton from the level's start can fail
(`_P_DIRECT`), so the path first doubles p from the first p / 2**n at or
below 18, at that first eps (Huang, Li & Liu, J. Sci. Comput. 32, 2007).
A stage is its own ProblemSpec, whose params carry the stage's (p, eps);
the energy, gradient, Hessian and line search read p and eps from the spec
alone.
The path ends exactly at the requested (p, eps).  Each stage begins by
evaluating its iterate; once the solve has taken `MAX_ITER` Newton steps
the remaining stages are skipped but the last, where the iterate is
evaluated once more.  So the energy, residual and last trace row of a
result are those of the returned iterate at the requested (p, eps), and
`stop_reason` says why the final stage stopped.  A stage converges when
its gradient norm meets `grad_tolerance` (times 1e6 on all but the final
stage) or at the rounding floor, where a polishing step fails to halve the
gradient norm; the final stage also needs the EL residual within
`residual_tolerance`, and without it stops `stalled` at the floor.  A
Newton step that the line search rejects stops a stage `no_descent`.

A box solve uses nested iteration (Briggs, Henson & McCormick, *A
Multigrid Tutorial*, ch. 3).  While every (n - 1) is even and the halved
grid keeps at least `_COARSEST` nodes per axis, the grid is halved; the
levels are every halving and the problem grid, and f and g are injected (a
coarse node is a fine node).  So 257^2 nests as 33^2, 65^2, 129^2, 257^2.
The coarsest level starts from the transfinite (Coons) interpolation of
g's boundary values (`_coons_patch`), which takes no linear solve, and
walks the whole (p, eps) path; each finer level starts from the coarser
iterate, prolonged by a slope-limited cubic (`_prolong`, one midpoint pass
per axis), its boundary reset to g, and runs the final (p, eps) stage alone;
above `_P_DIRECT` it runs (p / 2, eps) first when its prolonged start's
energy jumps above the coarser level's (`_REENTRY_GAP`).
Only the problem grid's stage is final, so a coarse level ends at the
loose tolerance of an intermediate stage.  The iteration cap counts Newton
steps over all levels; a capped iterate is prolonged to the problem grid
and evaluated there.  `SolveResult.levels` records each level's nodes,
steps, factorizations and final energy.  A grid that does not nest is its
own only level.

The cell gradient is the only difference operator the solve uses; the node
gradient in :mod:`plapreg.fields` serves the analysis of a solution (its
seminorms and exponent fits), never the solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import NamedTuple
import functools
import itertools
import math

import numpy as np

from .fields import (
    Grid, ProblemSpec, ScalarField,
    write_field_csv, write_grid_json, write_json, write_table,
)
from .pointwise import L_eps, flux_weight, grad_L_eps, hess_L_eps, l_eps

__all__ = [
    "SolveResult",
    "energy",
    "solve",
    "el_residual",
    "grad_tolerance",
    "residual_tolerance",
    "write_solve_result",
]

# the Newton steps of a box solve, over all its levels and stages, and the
# outer calls (evaluations of Phi) of a line solve
MAX_ITER = 200
# the line search's sufficient-decrease constant and its trials per step.
# Each rejected trial shrinks t by a factor in [2, 10] (`_line_search`), so
# the last trial is at t >= 1e-59.  Over the boxes of `scripts/solve_sets.py`
# and x1-only boxes of the small source f = 1e-4 (33^2 and 65^2, p <= 40) a
# step took at most 34 trials, on the 129^2 x1-only boxes at p = 80
_ARMIJO_C = 1e-4
_BACKTRACK_MAX = 60
# boundary values of u are compared against g with this absolute slack
_BOUNDARY_ATOL = 1e-12
# nested dissection leaves blocks of at most this many nodes per side in C
# order; measured fastest among 1-32 on the 257^2 torsion Hessian
_ND_LEAF = 4
# the CG iterations of a 2D step.  With the last factor, CG that reaches it
# factors afresh; right after a factorization, CG's iterate there is the
# step.  On the 257^2 torsion solve (p = 3, eps = 1e-3; 2-core Xeon, warm)
# each level factors at its first step, whose CG takes 2 iterations; the
# other 7 of the 11 steps (5, 2, 1 and 3 on 33^2 ... 257^2) take 3-10, on
# 257^2 0.03-0.04 s a step against 0.18-0.20 s for a factorization and its
# step; the cap is never reached, so 4 factorizations serve 11 steps
_PCG_CAP = 15
# Eisenstat-Walker forcing term (their choice 2): CG stops once
# ||K s + g|| <= eta ||g||, eta = gamma (||g|| / ||g_prev||)^2 clipped to
# [_ETA_MIN, _ETA_MAX], g_prev the gradient of the previous Newton step.
# On that solve gamma = 0.1 and 0.01 cost 6% and 25% more CG iterations
# (51 and 60 against 48) for the same 11 steps, and the energy is that of
# factoring every step, bit for bit (11 factorizations, 0.76 s against
# 0.42-0.47 s)
_ETA_GAMMA, _ETA_MIN, _ETA_MAX = 0.9, 1e-8, 1e-2
# above this p the solve first doubles p up from the first p / 2**n at or
# below it (`_path`).  Newton from the Coons start alone on 33^2, eps in
# {1e-2, 1e-6}: the `radial` box of `scripts/solve_sets.py` at c = 0 stops
# `no_descent` at p = 24, at 30 and 40 for one eps, torsion at p = 40, eps =
# 1e-6, and at p = 80 every box but the sharp oracle, which starts at its
# sampled answer (6-7 steps)
_P_DIRECT = 18.0
# above `_P_DIRECT` a finer level of a nested box solve first runs the stage
# (p / 2, eps) when the energy of its prolonged start exceeds the coarser
# level's final energy E by more than this times 1 + |E|.  Over the boxes of
# `scripts/solve_sets.py` that gap reads at most 0.056 where no stage is
# needed (torsion at p = 20; below 0 on the sharp oracle and the x1-only
# boxes), and at least 154 on torsion at p = 40 (161 once the coarser level
# re-entered too) and 2.4e10 at p = 80, where a level without the stage took
# 26-31 (p = 40) and 75-93 (p = 80) steps against 19-22 and 33-41 with it
_REENTRY_GAP = 1.0
# the coarsest level of a nested box solve (`_levels`): a box is halved
# while every (n - 1) is even and the halved box keeps at least this many
# nodes per axis, and every halving is a level.  At 257^2 (2-core Xeon,
# warm, medians of 5 in four processes) a coarsest grid of 17, 33 or 65
# nodes takes 0.42-0.53, 0.42-0.51 and 0.43-0.53 s on seeded torsion (p = 3,
# eps = 1e-3), against 0.96-1.36 s on one level, where 8 steps run on 257^2
# against 4; at p = 5, eps = 1e-4, 0.41-0.64, 0.40-0.62 and 0.39-0.46 s (14,
# 10, 8 steps) on the sharp oracle, which starts at its sampled answer, and
# 0.38-0.60, 0.38-0.63 and 0.41-0.51 s (16, 14, 13 steps) on the `radial`
# box at c = (0.00625, 0.2).  Going from 33^2 straight to 257^2 costs two
# fine factorizations (38.7 against 22.8 ref on seeded torsion, bilinear
# prolongation), so every halving is a level
_COARSEST = 33
# the Newton iterations of one call of `_line_slopes`, which stops once a
# step is at the rounding of its terms.  On 65- and 4097-node torsion, the
# sharp oracle, and the `lines` set of `scripts/solve_sets.py` (p from 2 to
# 200, eps from 0.1 to 1e-12) a call took at most 5
_INNER_MAX = 30


@dataclass(frozen=True)
class SolveResult:
    u: ScalarField
    energy: float
    el_residual: float
    # a box: Newton steps over all levels and stages.  A line: outer calls,
    # the evaluations of Phi (`_solve_line`), at least 1
    iterations: int
    # why the final stage stopped: converged, max_iter, stalled (at the rounding
    # floor, EL residual above its tolerance) or no_descent (Newton step
    # rejected).  A line is converged when its EL residual meets its tolerance,
    # and stalled otherwise
    stop_reason: str
    # (iteration, energy, grad_norm) rows: a box's one per stage started and
    # one per Newton step, a line's one row, for the returned u
    trace: tuple = ()
    # SuperLU factorizations of a box's Newton steps; 0 on a line
    factorizations: int = 0
    cg_iterations: int = 0  # PCG iterations of every Newton step of a box
    # (nodes, iterations, factorizations, energy) per level evaluated, coarsest
    # first (`_levels`); the last row is the problem grid's.  A box solve
    # capped on a coarse level has no row for the levels it skipped on its way
    # to the problem grid.  A line has one row
    levels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(tuple(row) for row in self.trace))
        object.__setattr__(self, "levels", tuple(tuple(row) for row in self.levels))

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


# ---------------------------------------------------------------------------
# the cell-gradient operator

class _GridOps(NamedTuple):
    """What the solve needs of one grid, built once per grid by `_gradient_operator`."""

    G: np.ndarray  # G[k, a]: the weight of corner a in component k of a cell's gradient
    fill: tuple | None  # how `_assemble` fills a 2D K_II (`_stencil_fill`); None in 1D
    # the flat ids of the interior nodes of a box in elimination order; None in
    # 1D, where no Hessian is assembled
    order: np.ndarray | None
    # (corner, cells) per cell corner in `itertools.product` order: cells is
    # the slice of the node array that holds that corner of every cell, cells
    # in C order
    corners: tuple
    weights: np.ndarray  # the trapezoid node weights, `Grid.quad_weights`


# sized to hold every level of a nested solve: 513^2 has 5, a line is one (`_levels`)
@functools.lru_cache(maxsize=8)
def _gradient_operator(grid: Grid) -> _GridOps:
    """The grid's `_GridOps`: the corner weights of the cell gradient, how a
    2D K_II is filled, the interior order of a box, and the node weights.

    Per axis a cell's gradient is the difference along that axis averaged
    over the cell's 2**(dim-1) edges parallel to it: G[k, a] is the weight
    of corner a (in `corners` order) in component k.  On a box, `order`
    holds the flat ids of the interior nodes in elimination order (see
    `_elimination_order`); interior vectors and the Hessian K_II are indexed
    by position in `order`.  The cached arrays are shared by every caller,
    so they are read-only.
    """
    corners = tuple((corner, tuple(slice(c, c + n - 1) for c, n in zip(corner, grid.nodes)))
                    for corner in itertools.product((0, 1), repeat=grid.dim))
    G = np.array([[(2 * corner[k] - 1) / (2 ** (grid.dim - 1) * h) for corner, _ in corners]
                  for k, h in enumerate(grid.h)])
    order = fill = None
    if grid.dim == 2:
        order = _elimination_order(np.arange(grid.num_nodes).reshape(grid.shape)[1:-1, 1:-1])
        fill = _stencil_fill(grid, G, order)
    ops = _GridOps(G, fill, order, corners, grid.quad_weights())
    for a in (*ops, *(fill or ())):
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return ops


def _stencil_fill(grid: Grid, G: np.ndarray, order: np.ndarray) -> tuple:
    """(C, indptr, indices, src): how `_assemble` fills a 2D K_II.

    C (4 x 16) maps a cell's Hessian block H, flattened, to its corner
    stiffness G^T H G (4 x 4, corners in `_GridOps.corners` order),
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
    """The interior node ids `ids` of a box (shape (n0, n1)) in elimination
    order: nested dissection.  A block is split at the middle row or column
    of its longer side; the two halves are ordered recursively and the
    separator line last.  A cell spans two adjacent rows (columns), so no
    Hessian entry couples the halves and fill stays inside them and the
    separator.
    """
    if max(ids.shape) <= _ND_LEAF:
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
    ops = _gradient_operator(grid)
    out = np.empty((*(n - 1 for n in grid.nodes), grid.dim))
    for k in range(grid.dim):
        out[..., k] = sum((ops.G[k, a] * vals[cells] for a, (_, cells) in enumerate(ops.corners)),
                          0.0)
    return out.reshape(-1, grid.dim)


def _gradient_adjoint(grid: Grid, w: np.ndarray) -> np.ndarray:
    """D^T w for cell vectors w, shape (ncells, dim): a node array.

    A node sums its cells in C order and each cell's components in order,
    as a CSC product with D^T does: corners in reverse, components inner.
    """
    ops = _gradient_operator(grid)
    w = w.reshape(*(n - 1 for n in grid.nodes), grid.dim)
    out = np.zeros(grid.shape)
    for a, (_, cells) in reversed(list(enumerate(ops.corners))):
        for k in range(grid.dim):
            out[cells] += ops.G[k, a] * w[..., k]
    return out


def _check_boundary(spec: ProblemSpec, u: ScalarField) -> None:
    bnd = spec.grid.boundary_flags()
    scale = 1.0 + float(np.max(np.abs(spec.g.values)))
    gap = np.max(np.abs(u.values[bnd] - spec.g.values[bnd]))
    if gap > _BOUNDARY_ATOL * scale:
        raise ValueError(f"u does not match g on the boundary (max gap {gap:.3e})")


def _cell_state(spec: ProblemSpec, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c, l): the cell gradients c = D u of node values vals and l = l_eps(c)
    at spec's eps, which the energy, gradient and Hessian at vals share."""
    c = _cell_gradients(spec.grid, vals)
    return c, l_eps(c, spec.params.eps)


def energy(spec: ProblemSpec, u: ScalarField) -> float:
    """Discrete energy of an admissible field (u = g on the boundary)."""
    _check_boundary(spec, u)
    return _energy_raw(spec, u.values, _cell_state(spec, u.values))


def _energy_raw(spec: ProblemSpec, vals: np.ndarray, cells: tuple) -> float:
    """The energy at vals, whose `_cell_state` is cells."""
    ops = _gradient_operator(spec.grid)
    c, l = cells
    e_cells = spec.grid.cell_volume * float(np.sum(L_eps(c, spec.params.eps, spec.params.p, l=l)))
    return e_cells + float(np.sum(ops.weights * vals * spec.f.values))


def _gradient_raw(spec: ProblemSpec, cells: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(grad E, lp2): the nodal energy gradient at the iterate whose
    `_cell_state` is cells, and the flux weight lp2 = l^(p-2) per cell,
    which its Hessian reuses."""
    ops = _gradient_operator(spec.grid)
    c, l = cells
    lp2 = flux_weight(c, spec.params.eps, spec.params.p, l=l)
    flux = spec.grid.cell_volume * grad_L_eps(c, spec.params.eps, spec.params.p, lp2=lp2)
    return _gradient_adjoint(spec.grid, flux) + ops.weights * spec.f.values, lp2


def _assemble(grid: Grid, Hc: np.ndarray):
    """D_I^T blockdiag(Hc) D_I of a box from the cell blocks Hc, shape
    (cells, 2, 2): a CSC matrix with the fixed pattern of `_stencil_fill`.
    Each cell's corner stiffness G^T H G is added into the 9-point stencil S
    of its corners, and K_II's data are gathered from S; the sums run in
    another order than the sparse product's.
    """
    import scipy.sparse as sp
    ops = _gradient_operator(grid)
    C, indptr, indices, src = ops.fill
    H = Hc.reshape(-1, 4)
    S = np.zeros((3, 3, *grid.nodes))
    cell_shape = tuple(n - 1 for n in grid.nodes)
    corners = enumerate(ops.corners)
    for (a, ((a0, a1), cells)), (b, ((b0, b1), _)) in itertools.product(corners, repeat=2):
        S[1 + b0 - a0, 1 + b1 - a1][cells] += (H @ C[:, 4 * a + b]).reshape(cell_shape)
    n = len(indptr) - 1
    return sp.csc_matrix((S.ravel()[src], indices, indptr), shape=(n, n))


# ---------------------------------------------------------------------------
# tolerances tied to the convergence contract

def grad_tolerance(energy_value: float) -> float:
    return 1e-10 * (1.0 + abs(energy_value))


def residual_tolerance(spec: ProblemSpec) -> float:
    w = _gradient_operator(spec.grid).weights
    f_l2 = float(np.sqrt(np.sum(w * spec.f.values**2)))
    return 1e-6 * f_l2 + 1e-10


def el_residual(spec: ProblemSpec, u: ScalarField) -> float:
    """RMS over interior nodes of div(grad L(grad u)) - f.

    Computed from the first variation of the discrete energy: the residual
    at an interior node is minus the energy gradient divided by the node
    weight, which is the conservative flux-difference form of the operator.
    """
    return _residual_rms(spec.grid, _gradient_raw(spec, _cell_state(spec, u.values))[0])


def _residual_rms(grid: Grid, g: np.ndarray) -> float:
    """RMS of g / w over the interior nodes in C order: the EL residual of
    a nodal energy gradient g."""
    inner = (slice(1, -1),) * grid.dim
    return float(np.sqrt(np.mean((g[inner] / _gradient_operator(grid).weights[inner]) ** 2)))


# ---------------------------------------------------------------------------
# the solve

class _LinearSolves:
    """The linear solves of one box `solve` call, and their counts.

    Every solve is a Newton step's CG, preconditioned by a kept float32
    SuperLU factor, used only through `precondition`; a factorization
    (`factor`) only refreshes it.  The step right after one runs CG to rtol
    `_ETA_MIN`, a later step runs CG with the same factor to its
    Eisenstat-Walker forcing term and factors afresh when that CG fails
    (`newton_step`).  `solve` drops the factor as each level starts, so no
    coarser level's factor preconditions a finer K.  The factor lives only
    as long as this object, and the old one is released before SuperLU
    allocates the new one, so at most one is ever held.
    """

    def __init__(self):
        self.lu = None
        self.d = None  # diag(K)^-1/2 of the K that `lu` factors
        self.factorizations = 0
        self.cg_iterations = 0

    def factor(self, K) -> None:
        """Keep a fresh factor of a 2D K_II from `_assemble`, or none.

        K, its unknowns in elimination order, is scaled to unit diagonal on
        its own pattern, d K d with d = diag(K)^-1/2, so that every entry
        lies in [-1, 1] and none under- or overflows float32 (Higham, Pranesh
        & Zounon, SIAM J. Sci. Comput. 41, 2019); it is cast to float32 and
        factored by SuperLU in symmetric mode with no fill-reducing
        permutation of its own.  A K that SuperLU finds exactly singular, or
        whose diagonal is not positive and finite (K is positive
        semidefinite, so a zero diagonal entry heads a zero row), is not
        factored.
        """
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        self.lu = None  # release the old factor before SuperLU allocates a new one
        self.factorizations += 1
        d = K.diagonal()
        if not ((d > 0.0) & (d < np.inf)).all():
            return
        self.d = d = 1.0 / np.sqrt(d)
        # one statement, so that no float64 temporary is alive while SuperLU runs
        scaled = sp.csc_matrix(
            ((K.data * d[K.indices] * np.repeat(d, np.diff(K.indptr))).astype(np.float32),
             K.indices, K.indptr), shape=K.shape)
        try:
            self.lu = spla.splu(scaled, permc_spec="NATURAL", options={"SymmetricMode": True})
        except RuntimeError:  # SuperLU: "Factor is exactly singular"
            pass

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """M r = d * LU^-1 (d * r) with the kept float32 factor, in float64.

        d * r is divided by its largest magnitude before the float32 cast,
        and the solve multiplied by it after, so the cast neither under- nor
        overflows.  A zero r gives 0 and a non-finite r a non-finite M r.
        """
        y = self.d * r
        s = float(np.max(np.abs(y)))
        if not 0.0 < s < np.inf:
            return np.full(r.shape, np.nan if s else 0.0)
        return self.d * self.lu.solve((y / s).astype(np.float32)) * s

    def newton_step(self, K, g_int: np.ndarray, g_norm: float, prev: float) -> np.ndarray:
        """The Newton step K^{-1} (-g_int); g_norm = ||g_int||, and prev, the
        norm at the previous step (inf for none), sets the CG forcing term.
        A K not factored, or a step not finite, gives NaN: the line search
        rejects a NaN slope, and the stage stops `no_descent`."""
        rhs = -g_int
        if self.lu is not None:
            eta = min(_ETA_MAX, _ETA_GAMMA * (g_norm / prev) ** 2)
            step, met = self._pcg(K, rhs, max(_ETA_MIN, eta))
            if met:
                return step
        self.factor(K)
        step = self._pcg(K, rhs, _ETA_MIN)[0] if self.lu is not None else None
        return step if step is not None and np.isfinite(step).all() else np.full(rhs.shape, np.nan)

    def _pcg(self, K, rhs, rtol):
        """(step, met): CG from 0 preconditioned by the kept factor; met if
        it reached rtol within `_PCG_CAP` iterations with a finite step."""
        import scipy.sparse.linalg as spla
        its = []  # one entry per CG iteration
        M = spla.LinearOperator(K.shape, matvec=self.precondition, dtype=float)
        step, _ = spla.cg(K, rhs, rtol=rtol, maxiter=_PCG_CAP, M=M,
                          callback=lambda _: its.append(None))
        self.cg_iterations += len(its)
        return step, len(its) < _PCG_CAP and np.isfinite(step).all()


def _coons_patch(g: np.ndarray) -> np.ndarray:
    """The transfinite (Coons) interpolation of the boundary of a box's node
    array g (Gordon & Hall, Numer. Math. 21, 1973), s and t the normalized
    node coordinates: the linear blends of opposite sides less the bilinear
    blend of the corners.  It reproduces g = a(s) + b(t), and g = 0 exactly."""
    s, t = (np.linspace(0.0, 1.0, n) for n in g.shape)
    s, t = s[:, None], t[None, :]
    sides = (1.0 - s) * g[:1] + s * g[-1:] + (1.0 - t) * g[:, :1] + t * g[:, -1:]
    return sides - ((1.0 - s) * (1.0 - t) * g[0, 0] + (1.0 - s) * t * g[0, -1]
                    + s * (1.0 - t) * g[-1, 0] + s * t * g[-1, -1])


def _path(p: float, eps: float) -> list[tuple[float, float]]:
    """The (p, eps) continuation path, ending exactly at (p, eps).

    Its stages run at eps0 = max(eps, 0.1): above `_P_DIRECT` the stages
    p / 2**n, ..., p / 2, with p / 2**n the first at or below `_P_DIRECT`,
    and then p.  Below eps = 0.1 one more stage jumps to (p, eps).
    """
    eps0 = max(eps, 0.1)
    path, p_k = [(p, eps0)], p
    while p_k > _P_DIRECT:
        p_k /= 2.0
        path.insert(0, (p_k, eps0))
    return path + [(p, eps)] if eps < eps0 else path


def _levels(spec: ProblemSpec) -> list[ProblemSpec]:
    """The problems of a nested box solve, coarsest first, ending with spec
    itself.

    The box is halved while every (n - 1) is even and the halved box keeps
    at least `_COARSEST` nodes per axis; every halving is a level.  A coarse
    node is a fine node, so f and g are injected.  A box that does not halve
    is its own only level.
    """
    k, nodes = 0, spec.grid.nodes
    while all(n % 2 and (n + 1) // 2 >= _COARSEST for n in nodes):
        k, nodes = k + 1, tuple((n + 1) // 2 for n in nodes)
    levels = []
    for stride in [2**j for j in range(k, 0, -1)]:
        level = replace(spec.grid, nodes=tuple((n - 1) // stride + 1 for n in spec.grid.nodes))
        f, g = (ScalarField(level, field.values[::stride, ::stride]) for field in (spec.f, spec.g))
        levels.append(ProblemSpec(level, spec.params, f, g))
    return levels + [spec]


def _prolong(vals: np.ndarray) -> np.ndarray:
    """Node values on the grid refined by 2, by a slope-limited cubic: one
    midpoint pass per axis, C-ordered.

    Coarse nodes are injected.  With d_i = v_{i+1} - v_i along the axis, an
    interior midpoint is (v_i + v_{i+1}) / 2 plus the correction of the
    4-point cubic, -(d_{i+1} - d_{i-1}) / 16 (Trottenberg, Oosterlee &
    Schueller, *Multigrid*, 2001, sec. 2.6), clipped to +-(M - |d_i|) / 2
    with M the largest of |d_{i-1}|, |d_i|, |d_{i+1}|: so neither fine
    difference beside it exceeds M / 2, and the cubic adds no slope steeper
    than the coarse ones around it, a limit in the manner of Fritsch &
    Carlson's monotone cubics (SIAM J. Numer. Anal. 17, 1980).  The two end
    midpoints of an axis stay linear.  Data affine along an axis is
    reproduced: its correction and its limit are 0.
    """
    for axis in range(vals.ndim):
        head = (slice(None),) * axis
        lo, hi = vals[head + (slice(None, -1),)], vals[head + (slice(1, None),)]
        mid, d = 0.5 * (lo + hi), hi - lo
        a = np.abs(d)
        left, inner, right = (head + (s,) for s in (slice(None, -2), slice(1, -1), slice(2, None)))
        bound = 0.5 * (np.maximum(np.maximum(a[left], a[inner]), a[right]) - a[inner])
        mid[inner] += np.clip((d[left] - d[right]) / 16.0, -bound, bound)
        fine = np.empty(vals.shape[:axis] + (2 * vals.shape[axis] - 1,) + vals.shape[axis + 1:])
        fine[head + (slice(None, None, 2),)] = vals
        fine[head + (slice(1, None, 2),)] = mid
        vals = fine
    return vals


def _line_slopes(sigma: np.ndarray, p: float, log_eps: float):
    """(c, dc): the cell slopes c with flux(c) = sigma, flux(c) =
    l_eps(c)^(p-2) c, and dc, which returns their derivatives dc/dsigma when
    called: only a Newton step of `_line_minimizer` reads them.

    In tau = log(r / eps), r = |c|, the equation r (eps^2 + r^2)^((p-2)/2) =
    |sigma| reads tau + k log(1 + e^(2 tau)) = la, with k = (p - 2) / 2 and
    la = log(|sigma| / eps^(p-1)).  Its left side is convex and increasing,
    with slope in [1, p - 1], so Newton from an upper bound of the root
    descends to it monotonically; it starts at the bound min(la, la / (p - 1)).
    sigma = 0 gives c = 0 exactly, and dc its limit eps^(2-p), capped at
    e^600 so that a sum of dc stays finite.
    """
    la = np.log(np.maximum(np.abs(sigma), np.finfo(float).tiny)) - (p - 1.0) * log_eps
    abs_la = np.abs(la)
    tau = np.minimum(la, la / (p - 1.0))
    k = 0.5 * (p - 2.0)
    for _ in range(_INNER_MAX):
        x = 2.0 * tau
        ksp = k * (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))  # k log(1 + e^x), no overflow
        slope = 1.0 + (p - 2.0) * (0.5 + 0.5 * np.tanh(tau))  # 1 + (p - 2) t^2 / (1 + t^2)
        step = (tau + ksp - la) / slope
        tau = tau - step
        if np.all(np.abs(step) <= 1e-15 * (np.abs(tau) + ksp + abs_la)):
            break
    c = np.exp(tau + log_eps)  # copysign(eps e^tau, sigma), 0 where sigma = 0, in place
    np.copysign(c, sigma, out=c)
    c[sigma == 0.0] = 0.0

    def dc():
        # dc/dsigma = (r / |sigma|) / slope, with r / |sigma| = e^(tau - la) / eps^(p-2)
        return np.exp(np.minimum(tau - la - (p - 2.0) * log_eps, 600.0)) / slope
    return c, dc


def _slope_step(dc: np.ndarray, m: int, phi: float, h: float) -> float:
    """The Newton step of cell m's slope for Phi = phi: -phi dc_m / dPhi,
    with dPhi/dsigma_0 = h sum(dc), dc = 1 / t for the cell weights t =
    dflux/dc.  A weight that is not positive, normal and finite, or a sum or
    step that overflows, gives NaN with no RuntimeWarning, and the caller
    takes a bracketing step.  `_line_slopes` caps dc at e^600, so no weight
    it returns is subnormal.
    """
    with np.errstate(all="ignore"):  # a bad weight or sum fails the check below
        total = float(np.sum(dc))
        step = -phi * float(dc[m]) / (h * total)
    ok = dc.min() > 0.0 and dc.max() <= 1.0 / np.finfo(float).tiny and np.isfinite(total)
    return step if ok and np.isfinite(step) else np.nan


def _line_minimizer(spec: ProblemSpec) -> tuple[np.ndarray, int]:
    """(u, calls): the exact discrete minimizer of a line (see the module
    docstring) and the evaluations of Phi that found it.

    With sigma_a the flux of the mean slope (g_R - g_L) / L, Phi(sigma_a -
    max S) <= 0 <= Phi(sigma_a - min S): a bracket.  The first iterate is
    sigma_a - mean(S), the affine interpolant's flux.  Each next one is a
    Newton step in t, the slope of the cell m of least |sigma|, with sigma_0
    = flux(t) - S_m: near sigma_m = 0 that slope is steep in sigma_0, and Phi
    a smoothed step, but Phi is smooth in t.  A step that leaves the
    bracket, is NaN (`_slope_step`) or follows a Newton step that failed to
    halve |Phi|, is an Illinois step (Dowell & Jarratt, BIT 11, 1971), or
    bisection while an end of the bracket has no value.  The iteration
    stops when |Phi| is at its rounding floor, the bracket is within the
    resolution of sigma_0, a step is for the second time, or after
    `MAX_ITER` evaluations; cell m takes up what is left.
    """
    grid, p, eps = spec.grid, spec.params.p, spec.params.eps
    h, g, ops = grid.h[0], spec.g.values, _gradient_operator(grid)
    S = np.concatenate(([0.0], np.cumsum((ops.weights * spec.f.values)[1:-1])))
    rise, log_eps = float(g[-1] - g[0]), float(np.log(eps))

    def flux(t):
        return float(np.exp((p - 2.0) * np.log(np.hypot(eps, t))) * t)

    calls, side, newton, phi_prev, unresolved = 0, 0, False, np.inf, False
    ends = {}  # Phi at the bracket's ends: -1 at lo, 1 at hi, Illinois-halved
    # an overflowing flux or Newton step is an iterate outside the bracket
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sigma_a = flux(rise / (h * len(S)))
        s_max, s_min = float(S.max()), float(S.min())
        lo, hi = sigma_a - s_max, sigma_a - s_min
        tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi), s_max, -s_min)
        x = sigma_a - float(np.mean(S))
        while True:
            sigma = x + S
            c, dc = _line_slopes(sigma, p, log_eps)
            calls += 1
            phi = h * float(np.sum(c)) - rise
            floor = 8.0 * np.finfo(float).eps * (h * float(np.sum(np.abs(c))) + abs(rise))
            if abs(phi) <= floor or calls >= MAX_ITER:
                break
            now = 1 if phi > 0.0 else -1
            lo, hi = (lo, x) if now > 0 else (x, hi)
            if now == side and -now in ends:
                ends[-now] *= 0.5
            ends[now], side = phi, now
            if hi - lo <= tol:
                break
            m = int(np.argmin(np.abs(sigma)))
            nxt = flux(c[m] + _slope_step(dc(), m, phi, h)) - S[m]
            # a step within the resolution of sigma_0 is taken once: the root
            # may be the sigma_0 that zeroes the flux of a stretch without
            # source, where Phi jumps by h c per cell of that stretch
            if abs(nxt - x) <= tol:
                if unresolved or nxt == x:
                    break
                unresolved = True
            newton = lo < nxt < hi and not (newton and abs(phi) > 0.5 * abs(phi_prev))
            if not newton:
                nxt = 0.5 * (lo + hi)
                if len(ends) == 2:
                    falsi = (lo * ends[1] - hi * ends[-1]) / (ends[1] - ends[-1])
                    nxt = falsi if lo < falsi < hi else nxt
            x, phi_prev = nxt, phi
    m = int(np.argmin(np.abs(sigma)))  # sigma is x + S of the last outer call
    hc = h * c
    u = np.empty(grid.shape)
    u[0], u[-1] = g[0], g[-1]
    u[1:m + 1] = g[0] + np.cumsum(hc[:m])
    u[m + 1:-1] = g[-1] - np.cumsum(hc[:m:-1])[::-1]
    return u, calls


def _solve_line(spec: ProblemSpec) -> SolveResult:
    """The exact discrete minimizer of a line (`_line_minimizer`), evaluated
    once; `iterations` counts the evaluations of Phi.  `_line_minimizer`
    returns before u is evaluated, so none of its arrays is alive then."""
    u, calls = _line_minimizer(spec)
    grid = spec.grid
    with np.errstate(over="ignore"):  # an energy or residual that overflows reads inf: stalled
        cells = _cell_state(spec, u)
        e_val = _energy_raw(spec, u, cells)
        g_full = _gradient_raw(spec, cells)[0]
        res = _residual_rms(grid, g_full)
        g_norm = float(np.linalg.norm(g_full[1:-1]))
    return SolveResult(
        u=ScalarField(grid, u),
        energy=e_val,
        el_residual=res,
        iterations=calls,
        stop_reason="converged" if res <= residual_tolerance(spec) else "stalled",
        trace=[(calls, e_val, g_norm)],
        levels=[(grid.nodes, calls, 0, e_val)],
    )


def solve(spec: ProblemSpec) -> SolveResult:
    """Minimize the discrete energy over interior nodes at fixed trace g.

    The minimizer is unique (the energy is strictly convex for eps > 0).  A
    line is solved exactly (`_solve_line`).  A box is solved by Newton, and
    the start is no choice of the caller's: the coarsest level starts from
    the Coons patch of g.  A result with converged = False and its
    `stop_reason` is returned if the solve stops short of the tolerances.
    A box that nests is solved coarse to fine (see the module docstring).
    Raises ValueError if eps <= 0 or every iterate's energy overflows.
    """
    p, eps = spec.params.p, spec.params.eps
    if eps <= 0.0:
        raise ValueError("solve requires eps > 0")
    # a cell's energy density is at least L_eps(0) = eps^p / p, summed over
    # the cells in the energy's order
    with np.errstate(over="ignore"):
        e_zero = L_eps(np.zeros((1, spec.grid.dim)), eps, p)[0]
        if np.sum(np.full(math.prod(n - 1 for n in spec.grid.nodes), e_zero)) == np.inf:
            raise ValueError(f"the energy overflows at p = {p}, eps = {eps} on this grid")
    if spec.grid.dim == 1:
        return _solve_line(spec)
    levels = _levels(spec)
    solves = _LinearSolves()
    tol_res = residual_tolerance(spec)
    trace: list[tuple[int, float, float]] = []
    it_total = 0
    rows = {}  # level nodes -> its row of `SolveResult.levels`
    prev_g_norm = np.inf  # the gradient norm at the last Newton step

    for n, level in enumerate(levels):
        # the coarsest level starts from the Coons patch of g, a finer one from
        # the coarser iterate, prolonged; either is reset to g on its boundary
        grid = level.grid
        level_start = (it_total, solves.factorizations)
        vals = _prolong(vals) if n else _coons_patch(level.g.values)
        ops, bnd = _gradient_operator(grid), grid.boundary_flags()
        vals[bnd] = level.g.values[bnd]
        solves.lu = None  # a coarser level's factor does not precondition this K
        cells = None  # the iterate's cell state (`_cell_state`), at eps `cells_eps`
        path = [(p, eps)] if n else _path(p, eps)
        e_start = None  # the energy of the start at path[0], once evaluated
        if n and p > _P_DIRECT:
            # a prolonged start far above the coarser level's energy e_val lies
            # outside the Newton region: the level re-enters the p path at p / 2
            cells, cells_eps = _cell_state(level, vals), eps
            with np.errstate(over="ignore"):  # an energy that overflows re-enters
                e_start = _energy_raw(level, vals, cells)
            if (e_start - e_val) / (1.0 + abs(e_val)) > _REENTRY_GAP:
                path, e_start = [(p / 2.0, eps)] + path, None
        for k, (p_k, eps_k) in enumerate(path):
            final = n == len(levels) - 1 and k == len(path) - 1
            if it_total >= MAX_ITER and not final:
                continue  # capped: evaluate the iterate once more, at the target
            spec_k = replace(level, params=replace(level.params, p=p_k, eps=eps_k))
            stage_scale = 1.0 if final else 1e6  # a warm start needs only a rough minimizer
            polished = False
            # the state is shared by the iterate's energy, gradient and
            # Hessian: it comes from the line search that accepted the
            # iterate, from the stage before if that ended at this eps (l
            # depends on eps, not p), or from the re-entry test above
            if cells is None or cells_eps != eps_k:
                cells, cells_eps = _cell_state(spec_k, vals), eps_k
            e_val = _energy_raw(spec_k, vals, cells) if k or e_start is None else e_start
            while True:
                g_full, lp2 = _gradient_raw(spec_k, cells)
                g_int = g_full.ravel()[ops.order]
                g_norm = float(np.linalg.norm(g_int))
                trace.append((it_total, e_val, g_norm))
                # a polishing step that fails to halve the gradient norm hit the rounding floor
                at_floor = polished and g_norm >= 0.5 * prev_g_norm
                # the EL residual is taken only where it is read: here and in the result
                if (at_floor or g_norm <= grad_tolerance(e_val) * stage_scale) and (
                        not final or _residual_rms(grid, g_full) <= tol_res):
                    stop = "converged"
                    break
                if at_floor or it_total >= MAX_ITER:
                    stop = "stalled" if at_floor else "max_iter"  # stalled: EL residual too large
                    break
                K = _assemble(grid, grid.cell_volume * hess_L_eps(
                    cells[0], eps_k, p_k, l=cells[1], lp2=lp2))
                # neither the state nor K stays alive through the linear solve
                # and the line search, where a 2D solve's memory peaks: held,
                # they raised the 257^2 torsion solve's peak RSS by 2-4 MB.
                # The line search returns the next iterate's state
                cells = lp2 = None
                step = solves.newton_step(K, g_int, g_norm, prev_g_norm)
                del K
                prev_g_norm = g_norm
                vals, ok, e_val, polished, cells = _line_search(
                    spec_k, vals, ops.order, step, e_val, float(np.dot(g_int, step)))
                if not ok:
                    stop = "no_descent"
                    break
                it_total += 1
            rows[grid.nodes] = (grid.nodes, it_total - level_start[0],
                                solves.factorizations - level_start[1], e_val)

    return SolveResult(
        u=ScalarField(grid, vals),
        energy=e_val,
        el_residual=_residual_rms(grid, g_full),
        iterations=it_total,
        stop_reason=stop,
        trace=trace,
        factorizations=solves.factorizations,
        cg_iterations=solves.cg_iterations,
        levels=rows.values(),
    )


def _line_search(spec, vals, order, direction, e0, slope):
    """Armijo backtracking along an interior direction (indexed like `order`)
    from vals, whose energy is e0, with slope g_int . direction (a slope not
    below 0, NaN included, fails at once, and a trial energy that overflows
    fails like any other); returns (new_vals, ok, new_energy, polished,
    cells), new_energy and cells the energy and `_cell_state` of new_vals (e0
    and None when no trial is accepted).  A step whose predicted decrease is
    below the energy's float resolution, where the Armijo test would compare
    rounding noise, polishes: its first trial, the full step, is accepted as
    it is.

    The first trial is t = 1.  Far along the ray the energy density
    l_eps^p / p grows like t^p, so after a rejected trial t with energy e_t
    the next minimizes the power-law model e0 + slope s + R (s / t)^p, R =
    e_t - e0 - slope t (>= 0 by convexity): s* = t (-slope t / (p R))^(1 /
    (p - 1)), safeguarded to [0.1 t, 0.5 t] (Dennis & Schnabel, *Numerical
    Methods for Unconstrained Optimization and Nonlinear Equations*, Alg.
    A6.3.1, with the integrand's own growth as the model; at p = 2 the
    quadratic backtrack).  The ratio form keeps t^p from under- or
    overflowing; where s* is undefined (R <= 0, e_t not finite, or a ratio
    that is not finite) the next trial is 0.1 t."""
    if not slope < 0.0:
        return vals, False, e0, False, None
    polish = _ARMIJO_C * (-slope) <= 1e-15 * (1.0 + abs(e0))
    p = spec.params.p
    t = 1.0
    for _ in range(_BACKTRACK_MAX):
        trial = vals.copy()
        trial.ravel()[order] += t * direction
        with np.errstate(over="ignore"):
            cells = _cell_state(spec, trial)
            e_trial = _energy_raw(spec, trial, cells)
        # strict decrease: sufficient-decrease alone can round to equality
        # once t*slope underflows the energy's resolution
        if polish or e_trial <= e0 + _ARMIJO_C * t * slope and e_trial < e0:
            return trial, True, e_trial, polish, cells
        R = e_trial - e0 - slope * t  # inf or NaN with e_trial
        ratio = -slope * t / (p * R) if R > 0.0 else np.inf
        s = t * ratio ** (1.0 / (p - 1.0)) if ratio < np.inf else 0.0
        t = min(0.5 * t, max(0.1 * t, s))
    return vals, False, e0, False, None


# ---------------------------------------------------------------------------
# output

def write_solve_result(result: SolveResult, spec: ProblemSpec, outdir) -> dict:
    """Write solution.csv/.json, grid.json and trace.csv; returns the summary.

    The summary's `levels` holds one row per level of the solve, coarsest
    first (one row for a grid that does not nest).
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
