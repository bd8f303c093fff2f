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
    "high_p_steps": Frozen(0, 40, 30, "Newton steps of the p = 20 and 40 solves"),
    "backtrack_trials": Frozen(0, 260, 223, "line-search trials of seven 4097-node solves, "
                               "p from 2 to 40 (halving took 393)"),
    "line_solve_rel": Frozen(0, 2e-14, 5.62e-15, "worst relative error of the 1D prefix-sum "
                             "solve, weights over 20 decades, n = 1, 2, 255, 4095"),
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
    return el_residual(oracle_problem(orc, g, eps=1e-4), ScalarField.from_function(g, orc.u))


def energy_error(nodes):
    """|E_h(u) - E(u)| and h for u = g = sin(2 pi x), f = x on [0.5, 1.5],
    p = 3, eps 0.1, against adaptive quadrature."""
    p, eps = 3.0, 0.1
    du = lambda x: 2 * np.pi * np.cos(2 * np.pi * x)
    exact = (quad(lambda x: (eps**2 + du(x) ** 2) ** (p / 2) / p, 0.5, 1.5, limit=400)[0]
             + quad(lambda x: np.sin(2 * np.pi * x) * x, 0.5, 1.5, limit=400)[0])
    g = Grid.line(0.5, 1.5, nodes)
    u = ScalarField.from_function(g, lambda x: np.sin(2 * np.pi * x))
    spec = ProblemSpec(g, PLapParams(p=p, eps=eps), ScalarField.from_function(g, lambda x: x), u)
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
    V = VectorField.from_function(g, lambda x, y: (np.sin(x) * np.sin(y), 0.0 * x))
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


def high_p_solve(problem, p, eps):
    """The torsion or sharp-oracle problem at (p, eps) on 1025 nodes, and its solve."""
    spec = line_problem(problem, p, eps, 1025)
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
    4097 nodes, in total."""
    with line_search_steps() as searches:
        for case in LINE_SEARCH_CASES:
            solve(line_problem(*case, 4097))
    return sum(map(len, searches))


def line_reference(t, rhs):
    """K^{-1} rhs for the 1D K_II of cell weights t (diagonal t[:-1] + t[1:],
    off-diagonals -t[1:-1]) by LDL^T elimination in long double.  Pivot i is
    t[i + 1] plus the series conductance of cells 0..i, a sum of positive
    terms, so no weight ratio costs accuracy to cancellation."""
    t, r = t.astype(np.longdouble), rhs.astype(np.longdouble)
    n = len(r)
    pivot, z, x = (np.empty(n, np.longdouble) for _ in range(3))
    q = t[0]
    for i in range(n):
        q = q if i == 0 else 1 / (1 / q + 1 / t[i])
        pivot[i] = q + t[i + 1]
        z[i] = r[i] + (t[i] * z[i - 1] / pivot[i - 1] if i else 0)
    for i in range(n - 1, -1, -1):
        x[i] = (z[i] + (t[i + 1] * x[i + 1] if i < n - 1 else 0)) / pivot[i]
    return x


def line_solve_errors(n):
    """max |x - x_ref| / max |x_ref| of `_LinearSolves.direct` on a 1D K with
    n unknowns against `line_reference`, rhs standard normal: five seeded
    draws of weights 10^U(-10, 10) with 1e-10 and 1e10 at two random cells,
    and for n <= 2 every choice of weights from {1e-10, 1, 1e10}, the
    stiff-soft-stiff line (1e10, 1e-10, 1e10) among them."""
    from plapreg.solver import _LinearSolves

    rng = np.random.default_rng(n)
    cases = []
    for _ in range(5):
        exponent = rng.uniform(-10.0, 10.0, n + 1)
        exponent[rng.permutation(n + 1)[:2]] = (-10.0, 10.0)
        cases.append(10.0**exponent)
    if n <= 2:
        cases += [np.array(t) for t in itertools.product((1e-10, 1.0, 1e10), repeat=n + 1)]
    errors = []
    for t in cases:
        rhs = rng.standard_normal(n)
        ref = line_reference(t, rhs)
        x = _LinearSolves().direct(t, rhs)
        errors.append(float(np.max(np.abs(x - ref)) / np.max(np.abs(ref))))
    return errors
