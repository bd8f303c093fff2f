"""Verification harness: exact oracle, exponent table, eps sweeps, scaling.

The workhorse is a closed-form degenerate problem on (-1, 1): the profile
u(x) = |x1|^{p'} / p' with p' = p/(p-1) has flux |grad u|^{p-2} grad u
whose first component is exactly x1, so u solves the p-Laplace equation
with constant source f = 1 while grad u has a genuine power-law kink at
x1 = 0.  Every regularity exponent of interest can be read off this
profile, which makes it a sharp end-to-end oracle for the solver, the
difference-quotient estimators, and the composition bound.

Reports carry one verdict string per claim: "pass" / "fail" for
adjudicated cells, "inconclusive" when the fit diagnostics are too weak
to judge (r^2 below 0.98), "endpoint" for borderline cells that are
reported but deliberately not adjudicated, and "outside-theorem" for
parameter choices no claim covers.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, replace
from pathlib import Path
import math

import numpy as np

from .defaults import (
    DEFAULT_DELTA_EXPONENTS, DEFAULT_DELTA_SWEEP, DEFAULT_EPS_SWEEP, DEFAULT_NODES_1D,
    SolverError,
)
from .fields import (
    Grid, ProblemSpec, ScalarField, VectorField, gradient, interior_box, write_json,
    write_table,
)
from .pointwise import EPS_MAX, PLapParams, alpha_s
from .smoothness import (
    dyadic_shifts,
    fit_smoothness_exponent,
    sobolev_w12_norm,
    sobolev_w1p_norm,
)

__all__ = [
    "SharpnessOracle",
    "ExponentCell",
    "Theorem1Report",
    "SweepCell",
    "SweepResult",
    "ScalingReport",
    "oracle_fields",
    "oracle_problem",
    "table_exponent",
    "run_theorem1_check",
    "run_eps_sweep",
    "run_scaling_check",
    "write_theorem1_report",
    "write_sweep_result",
    "write_scaling_report",
    "R2_MIN",
]

R2_MIN = 0.98

EXPONENT_TOL = 0.05
THETA_LOWER_SLACK = 0.02
W1Q_MIN = 0.95
UNIFORMITY_FACTOR = 2.0
ALPHA_TOL = 1e-8


@dataclass(frozen=True)
class SharpnessOracle:
    """Closed forms for the degenerate profile u = |x1|^{p'}/p', f = 1, on
    a grid of either dimension.

    Construction verifies the defining identity |u'|^{p-2} u' = x1 on a
    sample of points, so a bad exponent wiring fails immediately rather
    than deep inside an experiment.
    """

    p: float

    def __post_init__(self):
        if not np.isfinite(self.p):
            raise ValueError(f"p must be finite, got {self.p}")
        if self.p < 3.0:
            raise ValueError("the sharpness profile requires p >= 3")
        x = np.linspace(-1.0, 1.0, 17)
        g = self.grad1(x)
        flux = np.abs(g) ** (self.p - 2.0) * g
        if not np.allclose(flux, x, rtol=1e-12, atol=1e-12):
            raise ValueError("flux identity |u'|^{p-2} u' = x1 failed")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    def u(self, x1: np.ndarray) -> np.ndarray:
        return np.abs(x1) ** self.p_prime / self.p_prime

    def grad1(self, x1: np.ndarray) -> np.ndarray:
        return np.abs(x1) ** (1.0 / (self.p - 1.0)) * np.sign(x1)


def oracle_fields(oracle: SharpnessOracle, grid: Grid):
    """Exact nodal (u, grad u, f) for the oracle; grad is analytic, not a stencil."""
    x1 = grid.coords()[..., 0]
    grad = np.zeros(grid.shape + (grid.dim,))
    grad[..., 0] = oracle.grad1(x1)
    return (ScalarField(grid, oracle.u(x1)), VectorField(grid, grad),
            ScalarField.constant(grid, 1.0))


def oracle_problem(oracle: SharpnessOracle, grid: Grid, eps: float) -> ProblemSpec:
    """The Dirichlet problem whose eps = 0 limit is the oracle profile, at s = p / 2."""
    u, _, f = oracle_fields(oracle, grid)
    params = PLapParams(p=oracle.p, eps=eps, s=oracle.p / 2.0, theta=2.0 / oracle.p)
    return ProblemSpec(grid, params, f, u)


def table_exponent(p: float, q: float) -> float:
    """Predicted difference-quotient growth rate of grad u at integrability q.

    Above the critical q_c = (p-1)/(p-2) the rate is 1/(p-1) + 1/q; below
    it the gradient is W^{1,q} and the rate saturates at 1.  q = inf gives
    the Hölder exponent 1/(p-1).
    """
    if not 2.0 < p < math.inf:
        raise ValueError("table requires finite p > 2")
    if not q >= 1.0:
        raise ValueError("q must be at least 1")
    if math.isinf(q):
        return 1.0 / (p - 1.0)
    qc = (p - 1.0) / (p - 2.0)
    if q > qc:
        return 1.0 / (p - 1.0) + 1.0 / q
    return 1.0


@dataclass(frozen=True)
class ExponentCell:
    p: float
    q: float
    kind: str           # "table" | "theta-target" | "w1q" | "holder" | "negative-control"
    theta_target: float
    theta_hat: float
    r2: float
    verdict: str
    theta: float | None = None   # the nominal theta for theta-target cells


@dataclass(frozen=True)
class Theorem1Report:
    p: float
    nodes: int
    delta: float
    cells: tuple
    passed: bool


def _cell_verdict(kind: str, p: float, q: float, target: float,
                  theta_hat: float, r2: float) -> str:
    if not math.isinf(q):
        qc = (p - 1.0) / (p - 2.0)
        if abs(q - qc) <= 1e-9:
            return "endpoint"
    if r2 < R2_MIN:
        return "inconclusive"
    if kind == "w1q":
        return "pass" if theta_hat >= W1Q_MIN else "fail"
    if kind == "negative-control":
        return "pass" if theta_hat <= target + EXPONENT_TOL else "fail"
    ok = abs(theta_hat - target) <= EXPONENT_TOL
    if kind == "theta-target":
        ok = ok and theta_hat >= 2.0 / p - THETA_LOWER_SLACK
    return "pass" if ok else "fail"


def run_theorem1_check(
    p: float,
    qs=None,
    *,
    nodes: int = DEFAULT_NODES_1D,
    delta: float = DEFAULT_DELTA_EXPONENTS,
    include_qinf: bool = False,
) -> Theorem1Report:
    """Fit smoothness exponents of the analytic oracle gradient.

    Builds a cell per requested integrability q (defaults reproduce the
    reference table row for p), plus cells at q = 2/theta for theta at the
    bottom and middle of the admissible range, a W^{1,q}-regime cell below
    the critical q, optionally the sup-norm cell, and the negative-control
    cell at q = 2(p-1).  No solves are involved: the gradient is exact, so
    what is tested is the exponent machinery plus the table itself.
    """
    oracle = SharpnessOracle(p=p)
    grid = Grid.line(-1.0, 1.0, nodes)
    _, grad, _ = oracle_fields(oracle, grid)
    shifts = dyadic_shifts(grid, delta)
    qc = (p - 1.0) / (p - 2.0)

    plan: list[tuple[str, float, float | None]] = []
    if qs is None:
        qs = (p - 1.0,) if p > 3.0 else (qc + 0.5,)
    for q in qs:
        plan.append(("table", float(q), None))
    for th in (2.0 / p, 0.5 * (2.0 / p + 2.0 / (p - 1.0))):
        plan.append(("theta-target", 2.0 / th, float(th)))
    plan.append(("w1q", 0.5 * (1.0 + qc), None))
    if include_qinf:
        plan.append(("holder", math.inf, None))
    plan.append(("negative-control", 2.0 * (p - 1.0), None))

    cells = []
    for kind, q, th in plan:
        rep = fit_smoothness_exponent(grad, q, shifts)
        target = table_exponent(p, q)
        verdict = _cell_verdict(kind, p, q, target, rep.fitted_theta, rep.fit_r2)
        cells.append(ExponentCell(
            p=p, q=q, kind=kind, theta_target=target,
            theta_hat=rep.fitted_theta, r2=rep.fit_r2, verdict=verdict, theta=th,
        ))
    passed = all(c.verdict != "fail" for c in cells)
    return Theorem1Report(p=p, nodes=nodes, delta=delta, cells=tuple(cells), passed=passed)


# ---------------------------------------------------------------------------
# eps sweep

@dataclass(frozen=True)
class SweepCell:
    eps: float
    w1p_norm: float
    alpha_w12: float
    el_residual: float
    iterations: int  # `SolveResult.iterations`: outer calls on a line, Newton steps on a box


@dataclass(frozen=True)
class SweepResult:
    p: float
    s: float
    delta: float
    eps_values: tuple
    cells: tuple
    mode: str               # "thm2" | "thm3" | "outside"
    uniformity_factor: float
    trend_factor: float
    verdict: str            # "pass" | "fail" | "inconclusive" | "outside-theorem"


def run_eps_sweep(
    template: ProblemSpec,
    eps_values=DEFAULT_EPS_SWEEP,
    delta: float = DEFAULT_DELTA_SWEEP,
) -> SweepResult:
    """Solve along decreasing eps and track the transformed-gradient norm.

    The template fixes the problem and (p, s, theta); only eps varies.
    Each cell records the W^{1,p} norm of the minimizer and the interior
    W^{1,2} norm of l_eps(grad u)^{s-1} grad u.  The uniformity verdict
    looks at the two smallest decades of eps: the claim under test is that
    the transformed norm neither blows up nor drifts by more than a factor
    of 2 once eps is below every resolved gradient scale.  With fewer than
    two eps values in that tail there is nothing to compare and the
    verdict is "inconclusive".  An unconverged solve aborts the sweep with
    the offending cell in the error message.
    """
    from .solver import solve

    eps_values = tuple(float(e) for e in eps_values)
    if not (eps_values and all(0.0 < e < math.inf for e in eps_values)):
        raise ValueError("eps values must be positive and finite")
    eps_values = tuple(sorted(set(eps_values), reverse=True))
    p, s = template.params.p, template.params.s
    mode = template.params.mode
    interior_box(template.grid, delta)  # an empty interior fails before any solve

    def run_cell(eps: float) -> SweepCell:
        result = solve(replace(template, params=replace(template.params, eps=eps)))
        if not result.converged:
            raise SolverError(
                f"sweep cell eps={eps:g} (p={p:g}, s={s:g}) failed to converge: "
                f"{result.stop_reason} after {result.iterations} iterations, "
                f"residual {result.el_residual:.3e}"
            )
        return SweepCell(
            eps=eps,
            w1p_norm=sobolev_w1p_norm(result.u, p),
            alpha_w12=_transformed_norm(template.grid, gradient(result.u).values, eps, s, delta),
            el_residual=result.el_residual,
            iterations=result.iterations,
        )

    cells = tuple(run_cell(e) for e in eps_values)

    eps_floor = eps_values[-1]
    tail = [c for c in cells if c.eps <= 100.0 * eps_floor * (1.0 + 1e-9)]
    tail_norms = [c.alpha_w12 for c in tail]
    uniformity = max(tail_norms) / min(tail_norms)
    trend = cells[-1].alpha_w12 / cells[0].alpha_w12
    if mode == "outside":
        verdict = "outside-theorem"
    elif len(tail) < 2:
        verdict = "inconclusive"
    elif uniformity < UNIFORMITY_FACTOR and trend < UNIFORMITY_FACTOR:
        verdict = "pass"
    else:
        verdict = "fail"
    return SweepResult(
        p=p, s=s, delta=delta, eps_values=eps_values, cells=cells, mode=mode,
        uniformity_factor=float(uniformity), trend_factor=float(trend),
        verdict=verdict,
    )


def _transformed_norm(grid: Grid, w: np.ndarray, eps: float, s: float,
                      delta: float | None = None) -> float:
    """The W^{1,2} norm of alpha_s(w) = l_eps(w)^(s-1) w on grid, over the
    delta-interior if delta is given.  An s that takes alpha_s or its norm
    out of floating-point range, to inf or to 0, is a usage error, and the
    message names s."""
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        alpha = alpha_s(w, eps, s)
        finite = np.isfinite(alpha).all()
        norm = sobolev_w12_norm(VectorField(grid, alpha), delta) if finite else math.inf
    if not 0.0 < norm < math.inf:
        raise ValueError(f"s = {s:g} takes l_eps(grad u)^(s-1) grad u out of "
                         "floating-point range")
    return norm


# ---------------------------------------------------------------------------
# scaling

@dataclass(frozen=True)
class ScalingReport:
    lam: float
    p: float
    s: float
    u_gap: float
    u_tol: float
    alpha_rel_gap: float
    alpha_tol: float
    passed: bool


def run_scaling_check(spec: ProblemSpec, lam: float) -> ScalingReport:
    """Verify the exact model rescaling on the discrete problem.

    Scaling (g, f, eps) to (lam*g, lam^{p-1}*f, lam*eps) multiplies the
    minimizer by lam exactly, so the two independent solves must agree to
    solver accuracy; and the s-power transform of the scaled gradient must
    carry the factor lam^s to rounding precision (checked at eps = 0 on
    the same gradient array, pure algebra with no second solve involved).
    A lam or s that takes lam^s or a transformed norm out of floating-point
    range, to inf or to 0, raises ValueError: the check would be vacuous.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"lambda must be positive and finite, got {lam:g}")
    p, s = spec.params.p, spec.params.s
    with np.errstate(over="ignore", invalid="ignore"):  # caught by the check below
        f = np.float64(lam) ** (p - 1.0) * spec.f.values
        eps, g = lam * spec.params.eps, lam * spec.g.values
        # the squares that `residual_tolerance` sums
        f_sq = np.sum(spec.grid.quad_weights() * f**2)
    if not (eps <= EPS_MAX and np.isfinite(f_sq) and np.isfinite(g).all()):
        raise ValueError(f"lambda = {lam:g} scales the problem out of floating-point range: "
                         f"lambda^(p-1) f, the sum of its squares and lambda g must be "
                         f"finite, lambda eps at most {EPS_MAX:.4g}")
    from .solver import residual_tolerance, solve

    base = solve(spec)
    scaled_spec = ProblemSpec(spec.grid, replace(spec.params, eps=eps),
                              ScalarField(spec.grid, f), ScalarField(spec.grid, g))
    scaled = solve(scaled_spec)
    u_gap = float(np.max(np.abs(scaled.u.values - lam * base.u.values)))
    u_tol = 10.0 * residual_tolerance(scaled_spec)

    w = gradient(base.u).values
    rhs = _transformed_norm(spec.grid, w, 0.0, s)
    with np.errstate(over="ignore"):  # caught by the check below
        lam_s = float(np.float64(lam) ** s)
    if not 0.0 < lam_s < math.inf:
        raise ValueError(f"lambda = {lam:g} and s = {s:g} take lambda^s out of "
                         "floating-point range")
    rhs *= lam_s
    with np.errstate(over="ignore"):  # an infinite lam * w fails the transform's check
        lam_w = lam * w
    try:
        lhs = _transformed_norm(spec.grid, lam_w, 0.0, s)
    except ValueError:  # s alone passed on grad u above: lambda is at fault too
        raise ValueError(f"lambda = {lam:g} and s = {s:g} take l_eps(lambda grad u)^(s-1) "
                         "lambda grad u out of floating-point range") from None
    alpha_gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)

    passed = (base.converged and scaled.converged
              and u_gap <= u_tol and alpha_gap <= ALPHA_TOL)
    return ScalingReport(lam=lam, p=p, s=s, u_gap=u_gap, u_tol=u_tol,
                         alpha_rel_gap=float(alpha_gap), alpha_tol=ALPHA_TOL,
                         passed=passed)


# ---------------------------------------------------------------------------
# report serialization

def write_theorem1_report(report: Theorem1Report, outdir):
    outdir = Path(outdir)
    write_json(report, outdir / "theorem1.json")
    write_table(outdir / "theorem1.csv",
                ["p", "q", "kind", "theta_target", "theta_hat", "r2", "verdict"],
                ([c.p, c.q, c.kind, c.theta_target, c.theta_hat, c.r2, c.verdict]
                 for c in report.cells))


def write_sweep_result(result: SweepResult, outdir):
    outdir = Path(outdir)
    write_json(result, outdir / "sweep.json")
    write_table(outdir / "sweep.csv",
                ["eps", "w1p_norm", "alpha_w12", "el_residual", "iterations"],
                map(astuple, result.cells))


def write_scaling_report(report: ScalingReport, outdir):
    write_json(report, Path(outdir) / "scaling.json")
