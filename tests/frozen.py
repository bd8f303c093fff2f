"""The frozen numerical constants of the tests, one entry each, and the
measurements behind them.

An entry holds the interval [lo, hi] its measurement must fall in, the value
measured when it was frozen (at several points: the one nearest an end of
the interval) and what it bounds.  The tests import this module;
``scripts/calibrate_tolerances.py`` loads it by path, measures every entry
and exits 1 when one leaves its interval.  Moving a constant is one edit of
`TABLE`, logged in CHANGES.md.
"""

import contextlib
import itertools
from collections import namedtuple

import numpy as np
from scipy.integrate import dblquad, quad

from plapreg.experiments import SharpnessOracle, oracle_fields, oracle_problem
from plapreg.fields import Grid, ProblemSpec, ScalarField, VectorField, gradient
from plapreg.pointwise import PLapParams
from plapreg.smoothness import (
    COMPOSITION_C,
    dyadic_shifts,
    fit_smoothness_exponent,
    nikolskii_seminorm,
    sobolev_w12_seminorm,
)
from plapreg.solver import el_residual, energy, solve


Frozen = namedtuple("Frozen", "lo hi measured bounds")

TABLE = {
    "solve_err_4097": Frozen(0, 2e-6, 6.470e-7, "sup error of the p = 3 oracle solve, 4097 nodes"),
    "solve_ratio_4097": Frozen(0, 0.5, 0.353, "that error at 4097 nodes over 2049"),
    "solve_err_1025": Frozen(0, 8.0e-6, 5.171e-6, "the same sup error at 1025 nodes"),
    "solve_ratio_2049": Frozen(0, 0.45, 0.355, "that error at 2049 nodes over 1025"),
    "residual_1025": Frozen(3.94e-3 * (1 - 0.05), 3.94e-3 * (1 + 0.05), 3.937e-3,
                            "RMS EL residual of the p = 3 oracle's interpolant, 1025 nodes"),
    "residual_ratio": Frozen(2**-0.5 - 0.03, 2**-0.5 + 0.03, 0.7067, "its ratio per doubling"),
    "energy_h2": Frozen(0, 180.0, 173.7, "|E_h - E| / h^2 by quadrature, 257 and 513 nodes"),
    "energy_ratio": Frozen(0.2, 0.3, 0.250, "that error at 513 nodes over 257"),
    "stencil_h2": Frozen(0, 85.0, 82.65, "gradient error / h^2, 1D 101 and 201, 2D 65^2"),
    "stencil_ratio": Frozen(0, 0.27, 0.250, "the 1D error at 201 nodes over 101"),
    "composition_dim1": Frozen(0, COMPOSITION_C[1], 0.7246, "worst lhs / (M |V|^theta), 1D fields"),
    "composition_dim2": Frozen(0, COMPOSITION_C[2], 0.5450, "the same over 2D fields"),
    "fit_affine": Frozen(1 - 0.02, 1 + 0.02, 0.9866, "fitted theta of an affine field"),
    "noise_slope": Frozen(-np.inf, 0, -0.0169, "raw slope of the fit to iid noise, seed 0"),
    "dyadic_to_dense": Frozen(0.98, np.inf, 1.0000, "dyadic over every-k seminorm"),
    "w12_h": Frozen(0, 1.0, 0.880, "|W^{1,2} seminorm^2 error| / h, 33^2 and 65^2"),
    "w12_ratio": Frozen(0.5 - 0.05, 0.5 + 0.05, 0.496, "that error at 65^2 over 33^2"),
    "high_p_steps": Frozen(0, 40, 15, "Newton steps of the p = 20 and 40 solves, 33^2 x1-only "
                           "boxes"),
    "backtrack_trials": Frozen(0, 260, 61, "line-search trials of seven 33^2 x1-only box solves, "
                               "p from 2 to 40 (halving took 391 from the harmonic start)"),
    "line_exact_rel": Frozen(0, 1e-12, 2.56e-13, "worst relative error of the exact line solve, "
                             "sources over 20 decades, 2, 3, 256, 257, 4096 and 4097 cells"),
    "box_line_u": Frozen(0, 1e-10, 3.93e-16, "max |u_box - v| / (1 + max |v|), x1-only "
                         "boxes against the line solve v, 33^2 and 65^2, p = 3, 10, 40"),
    "box_line_energy": Frozen(0, 1e-15, 0.0, "|E_box - 2 E_line| / (1 + |E_box|) on "
                              "those boxes and the 129^2 off-centre box at p = 80"),
    "offcentre_calls": Frozen(0, 20, 11, "outer calls of the 4097-node p = 80 off-centre "
                              "line solves"),
    "line_floor": Frozen(1e-5, 1e-3, 1.074e-4, "EL residual of the stalled 4097-node line solve, "
                         "g = 3x, p = 10, eps = 1e-4"),
    "line_calls": Frozen(0, 20, 1, "outer calls of line solves at p = 2 to 200, eps down to "
                         "1e-12"),
}


def within(name, *values) -> bool:
    """Whether every value lies in the interval of entry ``name``."""
    lo, hi = TABLE[name][:2]
    return all(lo <= v <= hi for v in values)


def torsion_spec(grid, p, eps):
    """f = 1, g = 0."""
    return ProblemSpec(grid, PLapParams(p=p, eps=eps), ScalarField.constant(grid, 1.0),
                       ScalarField.constant(grid, 0.0))


def oracle_solve(nodes):
    """The p = 3 oracle problem at eps 1e-4 on [-1, 1], its solve, and the
    solve's sup error against the oracle."""
    orc = SharpnessOracle(p=3.0)
    g = Grid.line(-1.0, 1.0, nodes)
    spec = oracle_problem(orc, g, eps=1e-4)
    r = solve(spec)
    return spec, r, float(np.max(np.abs(r.u.values - orc.u(g.axis(0)))))


def interpolant_residual(nodes):
    """RMS EL residual of the p = 3 oracle's interpolant, eps 1e-4."""
    orc = SharpnessOracle(p=3.0)
    g = Grid.line(-1.0, 1.0, nodes)
    return el_residual(oracle_problem(orc, g, eps=1e-4), ScalarField(g, orc.u(g.axis(0))))


def energy_error(nodes):
    """|E_h(u) - E(u)| and h for u = g = sin(2 pi x), f = x on [0.5, 1.5],
    p = 3, eps 0.1, against adaptive quadrature."""
    p, eps = 3.0, 0.1
    du = lambda x: 2 * np.pi * np.cos(2 * np.pi * x)
    exact = (quad(lambda x: (eps**2 + du(x) ** 2) ** (p / 2) / p, 0.5, 1.5, limit=400)[0]
             + quad(lambda x: np.sin(2 * np.pi * x) * x, 0.5, 1.5, limit=400)[0])
    g = Grid.line(0.5, 1.5, nodes)
    x = g.axis(0)
    u = ScalarField(g, np.sin(2 * np.pi * x))
    spec = ProblemSpec(g, PLapParams(p=p, eps=eps), ScalarField(g, x), u)
    return abs(energy(spec, u) - exact), g.h[0]


def stencil_error(nodes, dim):
    """Max error of the node gradient, and h, on the unit line or square:
    sin(2 pi x) in 1D, sin(2 pi x) cos(2 pi y) in 2D."""
    g = Grid.box((0.0,) * dim, (1.0,) * dim, (nodes,) * dim)
    s, c = np.sin(2 * np.pi * g.coords()), np.cos(2 * np.pi * g.coords())
    if dim == 1:
        u, exact = s[..., 0], 2 * np.pi * c
    else:
        u = s[..., 0] * c[..., 1]
        exact = 2 * np.pi * np.stack([c[..., 0] * c[..., 1], -s[..., 0] * s[..., 1]], axis=-1)
    return float(np.max(np.abs(gradient(ScalarField(g, u)).values - exact))), g.h[0]


def w12_error(nodes):
    """|seminorm^2 - quadrature| and h for V = (sin x sin y, 0) on the unit
    square, nodes^2."""
    exact = dblquad(lambda y, x: np.cos(x) ** 2 * np.sin(y) ** 2
                    + np.sin(x) ** 2 * np.cos(y) ** 2, 0.0, 1.0, 0.0, 1.0)[0]
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (nodes, nodes))
    x, y = np.moveaxis(g.coords(), -1, 0)
    V = VectorField(g, np.stack([np.sin(x) * np.sin(y), 0.0 * x], axis=-1))
    return abs(sobolev_w12_seminorm(V) ** 2 - exact), g.h[0]


def dyadic_and_dense():
    """The Nikolskii seminorm (q = 3, theta = 2/3) of the p = 4 oracle
    gradient at 1025 nodes over the dyadic shifts to 0.125 and over every
    k <= 64."""
    g = Grid.line(-1.0, 1.0, 1025)
    _, G, _ = oracle_fields(SharpnessOracle(p=4.0), g)
    return (nikolskii_seminorm(G, 3.0, 2.0 / 3.0, dyadic_shifts(g, 0.125)),
            nikolskii_seminorm(G, 3.0, 2.0 / 3.0, [(k,) for k in range(1, 65)]))


def line_fit(kind):
    """The exponent fit (q = 2, dyadic shifts to 0.125, 1025 nodes) of the
    affine 0.7 x + 0.1 or, for "noise", of iid normal values, seed 0."""
    g = Grid.line(-1.0, 1.0, 1025)
    vals = (0.7 * g.axis(0) + 0.1 if kind == "affine"
            else np.random.default_rng(0).standard_normal(g.shape))
    return fit_smoothness_exponent(ScalarField(g, vals), 2.0, dyadic_shifts(g, 0.125))


HIGH_P_CASES = [(problem, p, eps) for problem in ("torsion", "sharp")
                for p in (20.0, 40.0) for eps in (1e-2, 1e-6)]

LINE_SEARCH_CASES = [("torsion", 2.0, 1e-2), ("torsion", 2.5, 1e-4), ("sharp", 3.0, 1e-5),
                     ("sharp", 5.0, 1e-4), ("sharp", 10.0, 1e-3), ("sharp", 20.0, 1e-6),
                     ("sharp", 40.0, 1e-5)]


def line_problem(problem, p, eps, nodes):
    """The torsion or sharp-oracle problem at (p, eps) on [-1, 1]."""
    g = Grid.line(-1.0, 1.0, nodes)
    return (torsion_spec(g, p, eps) if problem == "torsion"
            else oracle_problem(SharpnessOracle(p=p), g, eps=eps))


def box_problem(problem, p, eps, nodes):
    """The x1-only problem on the box [-1, 1]^2 of nodes^2 whose minimizer is
    the line's extended in x2: the sharp oracle, or f = 1 with g the torsion
    line's solve on every side."""
    box = Grid.box((-1.0, -1.0), (1.0, 1.0), (nodes, nodes))
    if problem == "sharp":
        return oracle_problem(SharpnessOracle(p=p), box, eps=eps)
    v = solve(line_problem("torsion", p, eps, nodes)).u.values
    return ProblemSpec(box, PLapParams(p=p, eps=eps), ScalarField.constant(box, 1.0),
                       ScalarField(box, np.repeat(v[:, None], nodes, axis=1)))


def high_p_solve(problem, p, eps):
    """The x1-only torsion or sharp-oracle problem at (p, eps) on 33^2, and its solve."""
    spec = box_problem(problem, p, eps, 33)
    return spec, solve(spec)


@contextlib.contextmanager
def line_search_steps():
    """Within the block, the trial step lengths t of each call of
    `plapreg.solver._line_search`, in order: one list per call."""
    import plapreg.solver as solver_mod

    real, searches = solver_mod._line_search, []

    class Ray(np.ndarray):
        """A search direction that records the t of each trial t * direction."""

        def __rmul__(self, t):
            searches[-1].append(t)
            return t * self.view(np.ndarray)

    def line_search(spec, vals, order, direction, e0, slope):
        searches.append([])
        return real(spec, vals, order, direction.view(Ray), e0, slope)

    solver_mod._line_search = line_search
    try:
        yield searches
    finally:
        solver_mod._line_search = real


def line_search_trials():
    """The trials of every line search of the `LINE_SEARCH_CASES` solves on
    33^2 x1-only boxes, in total."""
    specs = [box_problem(*case, 33) for case in LINE_SEARCH_CASES]
    with line_search_steps() as searches:
        for spec in specs:
            solve(spec)
    return sum(map(len, searches))


def line_minimizer_reference(spec):
    """u of the discrete minimizer on a line, in long double and by other
    means than `plapreg.solver`'s: sigma_0 by bisection of Phi in a bracket
    where every cell slope lies below or above the mean slope, each cell
    slope by Newton in log r, warm from the last sigma_0.  The cell of least
    |sigma| takes up the remainder, so u meets g at both ends."""
    ld = np.longdouble
    grid, p, eps = spec.grid, ld(spec.params.p), ld(spec.params.eps)
    h, k = ld(grid.h[0]), (p - 2) / 2
    S = np.concatenate(([ld(0)], np.cumsum((grid.quad_weights().astype(ld)
                                            * spec.f.values.astype(ld))[1:-1])))
    g_left, g_right = ld(spec.g.values[0]), ld(spec.g.values[-1])
    s = None  # log r per cell

    def slopes(sigma):
        nonlocal s
        la = np.log(np.maximum(np.abs(sigma), np.finfo(ld).tiny))
        if s is None:
            s = np.minimum(la - (p - 2) * np.log(eps), la / (p - 1))
        for _ in range(200):
            r2 = np.exp(2 * s)
            lg = np.log(eps * eps + r2)
            step = (s + k * lg - la) / (1 + (p - 2) * r2 / (eps * eps + r2))
            s = s - step
            if np.all(np.abs(step) <= 4e-19 * (np.abs(s) + np.abs(k * lg) + np.abs(la))):
                break
        return np.where(sigma == 0, ld(0), np.copysign(np.exp(s), sigma))

    mean = (g_right - g_left) / (h * len(S))
    flux = (eps * eps + mean * mean) ** k * mean
    lo, hi = flux - np.max(S), flux - np.min(S)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if h * np.sum(slopes(mid + S)) < g_right - g_left else (lo, mid)
    hc, m = h * slopes(lo + S), int(np.argmin(np.abs(lo + S)))
    u = np.empty(len(S) + 1, dtype=ld)
    u[0], u[-1] = g_left, g_right
    u[1:m + 1] = g_left + np.cumsum(hc[:m])
    u[m + 1:-1] = g_right - np.cumsum(hc[:m:-1])[::-1]
    return u


def line_exact_errors(cells):
    """max |u - u_ref| / max |u_ref| of `solve` on a line of `cells` cells
    against `line_minimizer_reference`, at p = 2, 3 and 10, eps = 1e-3, g
    standard normal at both ends: seeded sources of random sign and magnitude
    10^U(-10, 10) (three draws, one above 257 cells), and for cells <= 3 every
    choice of interior sources from {1e-10, -1e10, 1e10}."""
    rng = np.random.default_rng(cells)
    grid = Grid.line(0.0, 1.0, cells + 1)
    sources = [np.sign(rng.standard_normal(cells + 1)) * 10.0 ** rng.uniform(-10, 10, cells + 1)
               for _ in range(1 if cells > 257 else 3)]
    if cells <= 3:
        sources += [np.array([0.0, *f, 0.0])
                    for f in itertools.product((1e-10, -1e10, 1e10), repeat=cells - 1)]
    errors = []
    for p, f in itertools.product((2.0, 3.0, 10.0), sources):
        spec = ProblemSpec(grid, PLapParams(p=p, eps=1e-3), ScalarField(grid, f),
                           ScalarField(grid, rng.standard_normal(cells + 1)))
        ref = line_minimizer_reference(spec)
        errors.append(float(np.max(np.abs(solve(spec).u.values - ref)) / np.max(np.abs(ref))))
    return errors


BOX_LINE_CASES = [(nodes, p) for nodes in (33, 65) for p in (3.0, 10.0, 40.0)]


def box_line_gaps(nodes, p):
    """(u gap, energy gap) of the 2D solve of the x1-only torsion box at
    (p, eps = 1e-3), whose g is the line solve v extended in x2, against v:
    max |u - v| / (1 + max |v|) and |E_box - 2 E_line| / (1 + |E_box|), the
    box being 2 wide in x2."""
    line = solve(line_problem("torsion", p, 1e-3, nodes))
    box = solve(box_problem("torsion", p, 1e-3, nodes))
    assert box.converged and line.converged
    v = line.u.values[:, None]
    return (float(np.max(np.abs(box.u.values - v)) / (1.0 + np.max(np.abs(v)))),
            energy_gap(box, line))


def energy_gap(box, line):
    """|E_box - 2 E_line| / (1 + |E_box|) of an x1-only box solve 2 wide in x2
    against the solve of its line."""
    return abs(box.energy - 2.0 * line.energy) / (1.0 + abs(box.energy))


OFFCENTRE_EPS = (0.1, 0.03, 0.01, 0.003)
OFFCENTRE_BOX = (80.0, 1e-2, 129)


def offcentre_line(p, eps, nodes=4097):
    """f = 1 + x / 2 and g = 0.3 x on the line [-1, 1] of `nodes` nodes."""
    g = Grid.line(-1.0, 1.0, nodes)
    x = g.axis(0)
    return ProblemSpec(g, PLapParams(p=p, eps=eps), ScalarField(g, 1 + x / 2),
                       ScalarField(g, 0.3 * x))


def offcentre_box(p, eps, nodes):
    """(spec, line): the x1-only box [-1, 1]^2 of nodes^2 with f = 1 + x1 / 2
    and g the solve v of the off-centre line of `nodes` nodes, extended in
    x2, and that line solve.  v extended is the box's discrete minimizer and
    twice the line's energy its energy, the box being 2 wide in x2.  The
    tier-1 case is (p, eps, nodes) = `OFFCENTRE_BOX`."""
    line = solve(offcentre_line(p, eps, nodes))
    box = Grid.box((-1.0, -1.0), (1.0, 1.0), (nodes, nodes))
    return ProblemSpec(box, PLapParams(p=p, eps=eps),
                       ScalarField(box, 1 + box.coords()[..., 0] / 2),
                       ScalarField(box, np.repeat(line.u.values[:, None], nodes, axis=1))), line


def radial_box(p, eps, nodes, centre=(0.0, 0.0)):
    """(spec, u_c): f = 1 on the box [-1, 1]^2 of nodes^2 with g = u_c, and
    u_c at the nodes, u_c(x) = 2^(-1/(p-1)) |x - c|^p' / p' with p' = p /
    (p - 1) and c = centre.  The flux |grad u_c|^(p-2) grad u_c of u_c is
    (x - c) / 2, so u_c solves the p-Laplace equation with f = 1 (eps = 0),
    and its trace is not a sum of a function of x1 and one of x2."""
    box = Grid.box((-1.0, -1.0), (1.0, 1.0), (nodes, nodes))
    q = p / (p - 1.0)
    u_c = 2.0 ** (-1.0 / (p - 1.0)) * np.hypot(*np.moveaxis(box.coords() - centre, -1, 0)) ** q / q
    return ProblemSpec(box, PLapParams(p=p, eps=eps), ScalarField.constant(box, 1.0),
                       ScalarField(box, u_c)), u_c


def steep_line(p, eps):
    """f = 1 and g = 3 x on the 4097-node line [-1, 1]."""
    g = Grid.line(-1.0, 1.0, 4097)
    return ProblemSpec(g, PLapParams(p=p, eps=eps), ScalarField.constant(g, 1.0),
                       ScalarField(g, 3.0 * g.axis(0)))


WARNING_CASES = [(kind, p, eps) for kind in ("torsion", "sharp", "offcentre")
                 for p in (2.0, 17.3, 80.0, 200.0) for eps in (1e-2, 1e-6, 1e-12)
                 if not (kind == "sharp" and p < 3.0)]


def warning_case(kind, p, eps):
    """A 4097-node line problem of `WARNING_CASES`."""
    return offcentre_line(p, eps) if kind == "offcentre" else line_problem(kind, p, eps, 4097)
