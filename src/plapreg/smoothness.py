"""Translate-difference seminorms and smoothness-exponent estimation.

A field u has fractional smoothness theta in the L^q scale if the norm of
u(. + v) - u over the |v|-interior grows no faster than |v|^theta.  This
module measures those difference norms over a dyadic family of lattice
shifts, forms the max quotient (the discrete seminorm), and fits the
growth exponent by log-log regression.

Integrals here are plain Riemann sums: every node in the active region
carries weight h^n.  The active region is the whole box or an interior
box, so its measure is exactly (node count) * (cell volume) and shifted
and unshifted sums stay directly comparable.  Each sum runs over the
region's nodes in C order.  The trapezoid weights used for the energy
live in the solver and are not used here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import math

import numpy as np

from .fields import (
    Grid, ScalarField, VectorField, gradient, interior_box, write_json, write_table,
)
from .pointwise import beta_theta, sq_norm

__all__ = [
    "SeminormReport",
    "dyadic_shifts",
    "shift_difference_norm",
    "nikolskii_seminorm",
    "fit_smoothness_exponent",
    "sobolev_w12_seminorm",
    "sobolev_w12_norm",
    "sobolev_w1p_norm",
    "composition_bound_check",
    "COMPOSITION_C",
    "HOLDER_M",
    "write_seminorm_report",
]

# Frozen constants for the composition bound rhs.  The Hölder constant of
# the beta map is exact; the dimensional constants were calibrated once on
# smooth band-limited fields plus the power-law profiles exercised by the
# verification suite (scripts/calibrate_tolerances.py reproduces them) and
# include a safety margin over the worst observed ratio.
HOLDER_M = 2.0
COMPOSITION_C = {1: 1.6, 2: 1.6}

_R2_DEGENERATE = 1.0  # r^2 reported when the fit has no variance to explain


@dataclass(frozen=True)
class SeminormReport:
    """Per-shift difference norms plus the fitted growth exponent.

    flag is "ok", "constant-like" (all differences vanish), or "clipped"
    (raw slope fell outside [0, 1]; fitted_theta is the clipped value and
    raw_slope keeps the unclipped one).  fallback is True when fewer than 3
    shifts fell inside the requested window and every shift with a nonzero
    norm was fitted instead; fit_window is then the span of those shifts.
    """

    q: float
    offsets: tuple          # lattice offsets, sorted by |v|
    v_mags: tuple           # Euclidean shift lengths
    per_shift_norm: tuple
    fitted_theta: float
    fitted_A: float
    fit_r2: float
    flag: str
    fit_window: tuple       # (vmin, vmax) actually used for the fit
    n_fit: int
    raw_slope: float
    fallback: bool = False


def dyadic_shifts(grid: Grid, delta: float) -> tuple:
    """Lattice offsets with dyadic lengths h*2^k up to delta.

    1D: (k,). 2D: (k,0), (0,k), (k,k) and (k,-k).
    Sorted by Euclidean length; the diagonal length is k*h*sqrt(2).
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    slack = 1.0 + 1e-12
    steps = [(1,)] if grid.dim == 1 else [(1, 0), (0, 1), (1, 1), (1, -1)]
    # no k past this fits a delta below the box diameter; doubling on for a
    # huge delta would overflow k * length
    reach = 2.0 * math.dist(grid.lower, grid.upper) / min(grid.h)
    out, k = [], 1
    while k <= reach and (fits := [tuple(k * o for o in step) for step in steps
                                   if k * _offset_length(grid, step) <= delta * slack]):
        out += fits
        k *= 2
    if not out:
        raise ValueError("no lattice shift fits below delta; refine the grid")
    return tuple(sorted(out, key=lambda o: _offset_length(grid, o)))


def _offset_length(grid: Grid, offset) -> float:
    return float(np.hypot.reduce([o * h for o, h in zip(offset, grid.h)]))


def _box(grid: Grid, delta: float | None):
    """Index of the delta-interior box, or of the whole grid for delta None."""
    return ... if delta is None else interior_box(grid, delta)


def _riemann_sum(values: np.ndarray, grid: Grid) -> float:
    """Sum of nodal values over a box of ``grid``, each node weighing h^n.

    The sum runs over ``values.ravel()``: the nodes in C order, as a boolean
    mask would select them, whatever the memory layout.  Summing a strided
    box directly can group the terms differently and differ in the last bit.
    """
    return float(np.sum(values.ravel()) * grid.cell_volume)


def _lq(field, values: np.ndarray, q: float) -> float:
    """Riemann-sum L^q norm of the nodewise magnitude of ``values``, a box
    of ``field``'s node values (vector fields keep their component axis).

    The magnitude is one new array, worked on in place: the square root of
    a vector field's `sq_norm`, or |values|.  An identically zero magnitude
    gives 0.0 before any power is taken (0**q costs about three times a
    power of positive values), unless a vector field's component squares
    underflowed: then it is taken of values / max |values|, scaled back.
    The power is taken in place with ``**=`` (numpy's ``**``, fast at q = 1
    and 2), and the nodes are summed in C order (`_riemann_sum`).
    """
    if not q >= 1.0:
        raise ValueError("q must be at least 1")
    if isinstance(field, VectorField):
        mag = sq_norm(values)
        np.sqrt(mag, out=mag)
    else:
        mag = np.abs(values)
    if not mag.any():
        if not (isinstance(field, VectorField) and values.any()):
            return 0.0
        s = float(np.max(np.abs(values)))  # the component squares underflowed
        mag = np.sqrt(sq_norm(values / s)) * s
    if np.isinf(q):
        return float(np.max(mag))
    with np.errstate(over="ignore"):  # caught by the check below
        mag **= q
        total = _riemann_sum(mag, field.grid)
    # mag is not 0, so a sum of 0 has underflowed
    if total == np.inf or total == 0.0:
        raise ValueError(f"q = {q:g} takes |u(. + v) - u|^q out of floating-point range")
    return total ** (1.0 / q)


def shift_difference_norm(field, offset, q: float) -> float:
    """L^q norm of u(. + v) - u over the |v|-interior, v = offset * h.

    q = inf gives the max over the interior nodes; vector fields use the
    Euclidean magnitude of the nodewise difference.
    """
    grid = field.grid
    if len(offset) != grid.dim:
        raise ValueError("offset dimension does not match the grid")
    if all(o == 0 for o in offset):
        raise ValueError("zero shift")
    box = interior_box(grid, _offset_length(grid, offset))
    shifted = tuple(slice(b.start + o, b.stop + o) for b, o in zip(box, offset))
    return _lq(field, field.values[shifted] - field.values[box], q)


def nikolskii_seminorm(field, q: float, theta: float, shifts) -> float:
    """Max over the shift family of ||u(.+v) - u||_q / |v|^theta.

    This is the sampled stand-in for the smallest admissible constant A;
    theta = 0 reduces it to the largest translate-difference L^q norm.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    shifts = tuple(shifts)
    if not shifts:
        raise ValueError("empty shift family")
    best = 0.0
    for off in shifts:
        nrm = shift_difference_norm(field, off, q)
        best = max(best, nrm / _offset_length(field.grid, off) ** theta)
    return best


def fit_smoothness_exponent(field, q: float, shifts) -> SeminormReport:
    """Log-log least-squares estimate of the difference-norm growth rate.

    The slope of log ||u(.+v) - u||_q against log |v| estimates the
    smoothness exponent; the intercept gives the prefactor A.  Only shifts
    with |v| in the fit window [4*max(h), vmax/2] participate:
    shorter shifts measure stencil error, longer ones starve the interior.
    Shifts with vanishing norm are excluded; if every norm vanishes the
    field is flat and the report says so instead of fitting.
    """
    if not q >= 1.0:
        raise ValueError("q must be at least 1")
    shifts = sorted(tuple(shifts), key=lambda o: _offset_length(field.grid, o))
    if len({_offset_length(field.grid, o) for o in shifts}) < 3:
        raise ValueError("need at least 3 distinct shift lengths")
    mags = np.array([_offset_length(field.grid, o) for o in shifts])
    norms = np.array([shift_difference_norm(field, o, q) for o in shifts])

    lo, hi = 4.0 * max(field.grid.h), float(mags[-1]) / 2.0
    slack = 1.0 + 1e-12
    scale = 1.0 + float(np.max(np.abs(field.values)))
    usable = (norms > 1e-13 * scale) & (mags >= lo / slack) & (mags <= hi * slack)

    common = dict(
        q=q,
        offsets=tuple(tuple(o) for o in shifts),
        v_mags=tuple(float(m) for m in mags),
        per_shift_norm=tuple(float(n) for n in norms),
    )
    if not np.any(norms > 1e-13 * scale):
        return SeminormReport(
            fitted_theta=1.0, fitted_A=0.0, fit_r2=_R2_DEGENERATE,
            flag="constant-like", n_fit=0, raw_slope=1.0,
            fit_window=(float(lo), float(hi)), **common,
        )
    fallback = np.count_nonzero(usable) < 3
    if fallback:
        # window too narrow for this family: fit every nonzero shift instead
        usable = norms > 1e-13 * scale
        lo, hi = mags[usable].min(), mags[usable].max()
    if np.count_nonzero(usable) < 2:
        raise ValueError(
            "fewer than 2 shifts carry signal; cannot fit a growth rate"
        )
    x = np.log(mags[usable])
    y = np.log(norms[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sstot = float(np.sum((y - y.mean()) ** 2))
    r2 = _R2_DEGENERATE if sstot == 0.0 else 1.0 - float(np.sum(resid**2)) / sstot
    theta_hat = float(np.clip(slope, 0.0, 1.0))
    flag = "ok" if theta_hat == slope else "clipped"
    return SeminormReport(
        fitted_theta=theta_hat,
        fitted_A=float(np.exp(intercept)),
        fit_r2=r2,
        flag=flag,
        n_fit=int(np.count_nonzero(usable)),
        raw_slope=float(slope),
        fit_window=(float(lo), float(hi)),
        fallback=bool(fallback),
        **common,
    )


# ---------------------------------------------------------------------------
# Sobolev-scale norms (same Riemann-sum convention)

def _jacobian_sq(V: VectorField) -> np.ndarray:
    """Squared Frobenius norm of the nodewise Jacobian of V."""
    out = np.zeros(V.grid.shape)
    for j in range(V.grid.dim):
        comp = gradient(ScalarField(V.grid, V.values[..., j]))
        out += sq_norm(comp.values)
    return out


def sobolev_w12_seminorm(V: VectorField, delta: float | None = None) -> float:
    """L^2 norm of the discrete Jacobian, over the delta-interior box or the whole box."""
    return float(np.sqrt(_riemann_sum(_jacobian_sq(V)[_box(V.grid, delta)], V.grid)))


def sobolev_w12_norm(V: VectorField, delta: float | None = None) -> float:
    vals = sq_norm(V.values) + _jacobian_sq(V)
    return float(np.sqrt(_riemann_sum(vals[_box(V.grid, delta)], V.grid)))


def sobolev_w1p_norm(u: ScalarField, p: float) -> float:
    """(sum (|u|^p + |grad u|^p) h^n)^(1/p)."""
    if not p >= 1.0:
        raise ValueError("p must be at least 1")
    gmag = np.sqrt(sq_norm(gradient(u).values))
    vals = np.abs(u.values) ** p + gmag**p
    return _riemann_sum(vals, u.grid) ** (1.0 / p)


def composition_bound_check(V: VectorField, theta: float) -> tuple[float, float]:
    """Check the transfer of W^{1,2} control through the beta map.

    Returns (lhs, rhs) with lhs the N^{theta, 2/theta} seminorm of
    beta_theta(V) over the dyadic shifts up to a quarter of the shortest
    box side and rhs = C * HOLDER_M times the full-domain W^{1,2}
    seminorm of V raised to theta.  The contract is lhs <= rhs: HOLDER_M
    = 2 is a Hölder constant for beta, and C = COMPOSITION_C[dim] is the
    frozen dimensional constant.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    grid = V.grid
    shifts = dyadic_shifts(grid, min(u - l for l, u in zip(grid.lower, grid.upper)) / 4.0)
    bV = VectorField(grid, beta_theta(V.values, theta))
    lhs = nikolskii_seminorm(bV, 2.0 / theta, theta, shifts)
    rhs = COMPOSITION_C[grid.dim] * HOLDER_M * sobolev_w12_seminorm(V) ** theta
    return lhs, rhs


# ---------------------------------------------------------------------------
# serialization

def write_seminorm_report(report: SeminormReport, outdir):
    """Write seminorm.json and the per-shift table seminorm.csv."""
    outdir = Path(outdir)
    write_json(report, outdir / "seminorm.json")
    dim = len(report.offsets[0]) if report.offsets else 1
    write_table(outdir / "seminorm.csv", ["v_mag", "vx", "vy"][: 1 + dim] + ["norm"],
                ([mag, *off, nrm] for off, mag, nrm
                 in zip(report.offsets, report.v_mags, report.per_shift_norm)))
