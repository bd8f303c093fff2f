#!/usr/bin/env python3
"""Regenerate every frozen numerical constant used by the test suite.

Run from the repository root:

    python3 scripts/calibrate_tolerances.py

Each section prints the measured quantity next to the constant frozen in
the tests (and, for the composition constant, in the package itself), so
a change in discretization or solver behavior shows up as a drifted
number rather than a silent test failure.
"""

import numpy as np
from scipy.integrate import quad

from plapreg.fields import (
    Grid,
    ProblemSpec,
    ScalarField,
    VectorField,
    gradient,
)
from plapreg.pointwise import PLapParams, alpha_s
from plapreg.smoothness import (
    HOLDER_M,
    composition_bound_check,
    dyadic_shifts,
    fit_smoothness_exponent,
    sobolev_w12_seminorm,
)
from plapreg.solver import el_residual, energy, solve
from plapreg.experiments import SharpnessOracle, oracle_fields, oracle_problem


def section(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def calibrate_oracle_solve():
    section("oracle solve error (frozen: sup err <= 2e-6 at 4097, ratio <= 0.5)")
    orc = SharpnessOracle(p=3.0)
    prev = None
    for nodes in (1025, 2049, 4097):
        g = Grid.line(-1.0, 1.0, nodes)
        r = solve(oracle_problem(orc, g, eps=1e-4))
        err = float(np.max(np.abs(r.u.values - orc.u(g.axis(0)))))
        ratio = "" if prev is None else f"  ratio={err / prev:.3f}"
        print(f"  nodes={nodes:5d}  sup err={err:.3e}  iters={r.iterations}{ratio}")
        prev = err


def calibrate_interpolant_residual():
    section("interpolant EL residual (frozen: 3.94e-3 at 1025, ratio ~ 0.707)")
    orc = SharpnessOracle(p=3.0)
    prev = None
    for nodes in (513, 1025, 2049):
        g = Grid.line(-1.0, 1.0, nodes)
        spec = oracle_problem(orc, g, eps=1e-4)
        res = el_residual(spec, ScalarField.from_function(g, orc.u))
        ratio = "" if prev is None else f"  ratio={res / prev:.4f}"
        print(f"  nodes={nodes:5d}  rms residual={res:.3e}{ratio}")
        prev = res


def calibrate_energy_quadrature():
    section("discrete energy vs adaptive quadrature (frozen: err <= 180 h^2)")
    p, eps = 3.0, 0.1
    du = lambda x: 2 * np.pi * np.cos(2 * np.pi * x)
    exact = (
        quad(lambda x: (eps**2 + du(x) ** 2) ** (p / 2) / p, 0.5, 1.5, limit=400)[0]
        + quad(lambda x: np.sin(2 * np.pi * x) * x, 0.5, 1.5, limit=400)[0]
    )
    for nodes in (129, 257, 513):
        g = Grid.line(0.5, 1.5, nodes)
        spec = ProblemSpec(
            g,
            PLapParams(p=p, eps=eps),
            ScalarField.from_function(g, lambda x: x),
            ScalarField.from_function(g, lambda x: np.sin(2 * np.pi * x)),
        )
        err = abs(energy(spec, ScalarField.from_function(g, lambda x: np.sin(2 * np.pi * x))) - exact)
        print(f"  nodes={nodes:4d}  err={err:.3e}  err/h^2={err / g.h[0] ** 2:.1f}")


def calibrate_gradient_stencil():
    section("gradient stencil on sin(2 pi x) (frozen: err <= 85 h^2)")
    for nodes in (101, 201, 401):
        g = Grid.line(0.0, 1.0, nodes)
        u = ScalarField.from_function(g, lambda x: np.sin(2 * np.pi * x))
        exact = 2 * np.pi * np.cos(2 * np.pi * g.axis(0))
        err = np.max(np.abs(gradient(u).values[:, 0] - exact))
        print(f"  nodes={nodes:4d}  err={err:.3e}  err/h^2={err / g.h[0] ** 2:.2f}")


def calibrate_composition_constant():
    section(f"composition constant (frozen: C = 1.6 per dim, M = {HOLDER_M:g})")
    worst = {1: 0.0, 2: 0.0}

    def probe(V, theta, label):
        lhs, _ = composition_bound_check(V, theta)
        denom = HOLDER_M * sobolev_w12_seminorm(V) ** theta
        if denom == 0.0:
            return
        ratio = lhs / denom
        dim = V.grid.dim
        if ratio > worst[dim]:
            worst[dim] = ratio
            print(f"  new worst dim={dim}: ratio={ratio:.4f}  ({label})")

    g1 = Grid.line(-1.0, 1.0, 2049)
    for p in (3.0, 4.0, 5.0):
        _, G, _ = oracle_fields(SharpnessOracle(p=p), g1)
        lo, hi = 2.0 / p, 2.0 / (p - 1.0)
        for theta in np.linspace(lo, hi, 6, endpoint=False):
            V = VectorField(g1, alpha_s(G.values, 0.0, 1.0 / theta))
            probe(V, float(theta), f"oracle p={p:g}")
    rng = np.random.default_rng(1)
    for trial in range(8):
        coef = rng.standard_normal((2, 6)) / np.arange(1, 7)
        def trig(x, a=coef):
            return (
                sum(a[0, k] * np.sin((k + 1) * np.pi * x) for k in range(6)),
            )
        V = VectorField.from_function(g1, trig)
        for theta in (0.3, 0.5, 0.7, 0.9):
            probe(V, theta, f"trig 1D #{trial}")
    V = VectorField.from_function(g1, lambda x: (0.8 * x + 0.1,))
    for theta in (0.3, 0.6, 0.9):
        probe(V, theta, "affine 1D")

    g2 = Grid.box((-1.0, -1.0), (1.0, 1.0), (129, 129))
    for trial in range(4):
        coef = rng.standard_normal((2, 3, 3)) / 3.0
        def trig2(x, y, a=coef):
            u = sum(
                a[0, j, k] * np.sin((j + 1) * np.pi * x) * np.sin((k + 1) * np.pi * y)
                for j in range(3) for k in range(3)
            )
            v = sum(
                a[1, j, k] * np.cos((j + 1) * np.pi * x) * np.sin((k + 1) * np.pi * y)
                for j in range(3) for k in range(3)
            )
            return (u, v)
        V = VectorField.from_function(g2, trig2)
        for theta in (0.4, 0.6, 0.8):
            probe(V, theta, f"trig 2D #{trial}")
    _, G2, _ = oracle_fields(SharpnessOracle(p=3.0), g2)
    for theta in (2.0 / 3.0, 0.8):
        V = VectorField(g2, alpha_s(G2.values, 0.0, 1.0 / theta))
        probe(V, float(theta), "oracle 2D p=3")
    print(f"  worst ratios: dim1={worst[1]:.4f}  dim2={worst[2]:.4f}  "
          f"(frozen C=1.6 covers both with margin)")


def calibrate_fit_behaviors():
    section("fit behaviors (frozen: affine 0.987, noise slope < 0 -> clipped)")
    g = Grid.line(-1.0, 1.0, 1025)
    sh = dyadic_shifts(g, 0.125)
    rep = fit_smoothness_exponent(
        ScalarField.from_function(g, lambda x: 0.7 * x + 0.1), 2.0, sh
    )
    print(f"  affine: theta_hat={rep.fitted_theta:.4f}  flag={rep.flag}")
    rep = fit_smoothness_exponent(
        ScalarField(g, np.random.default_rng(0).standard_normal(g.shape)), 2.0, sh
    )
    print(f"  iid noise (seed 0): raw={rep.raw_slope:.4f}  flag={rep.flag}")


def main():
    calibrate_oracle_solve()
    calibrate_interpolant_residual()
    calibrate_energy_quadrature()
    calibrate_gradient_stencil()
    calibrate_composition_constant()
    calibrate_fit_behaviors()
    print()


if __name__ == "__main__":
    main()
