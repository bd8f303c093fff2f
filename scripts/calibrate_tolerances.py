#!/usr/bin/env python3
"""Measure every frozen constant of the test suite against its interval.

Run from the repository root: ``PYTHONPATH=src python3 scripts/calibrate_tolerances.py``.
The constants live in one table, ``tests/frozen.py``, beside the measurement
functions the tests call.  Each entry prints a line with its measurement (the
point nearest an end of the interval), its frozen value and its [lo, hi]; the
script exits 1 when any measurement leaves its interval.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from plapreg.experiments import SharpnessOracle, oracle_fields
from plapreg.fields import Grid, VectorField
from plapreg.pointwise import alpha_s
from plapreg.smoothness import COMPOSITION_C, composition_bound_check
from plapreg.solver import solve

_spec = importlib.util.spec_from_file_location(
    "frozen", Path(__file__).resolve().parents[1] / "tests" / "frozen.py")
frozen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(frozen)


def composition_ratios():
    """The worst lhs / (M |V|_{W^{1,2}}^theta) of the composition bound per
    dimension, over the oracle's transformed gradients and seeded
    trigonometric fields."""
    worst = {1: 0.0, 2: 0.0}

    def probe(V, thetas):
        for theta in thetas:
            lhs, rhs = composition_bound_check(V, float(theta))
            if rhs > 0.0:  # rhs is C M |V|^theta
                worst[V.grid.dim] = max(worst[V.grid.dim], COMPOSITION_C[V.grid.dim] * lhs / rhs)

    g1 = Grid.line(-1.0, 1.0, 2049)
    for p in (3.0, 4.0, 5.0):
        _, G, _ = oracle_fields(SharpnessOracle(p=p), g1)
        for theta in np.linspace(2.0 / p, 2.0 / (p - 1.0), 6, endpoint=False):
            probe(VectorField(g1, alpha_s(G.values, 0.0, 1.0 / theta)), [theta])
    rng = np.random.default_rng(1)
    x = g1.axis(0)
    for _ in range(8):
        a = rng.standard_normal((2, 6)) / np.arange(1, 7)
        trig = sum(a[0, k] * np.sin((k + 1) * np.pi * x) for k in range(6))
        probe(VectorField(g1, trig[:, None]), (0.3, 0.5, 0.7, 0.9))
    probe(VectorField(g1, (0.8 * x + 0.1)[:, None]), (0.3, 0.6, 0.9))

    g2 = Grid.box((-1.0, -1.0), (1.0, 1.0), (129, 129))
    X, Y = np.moveaxis(g2.coords(), -1, 0)
    modes = [(j, k) for j in range(3) for k in range(3)]
    for _ in range(4):
        a = rng.standard_normal((2, 3, 3)) / 3.0
        u = sum(a[0, j, k] * np.sin((j + 1) * np.pi * X) * np.sin((k + 1) * np.pi * Y)
                for j, k in modes)
        v = sum(a[1, j, k] * np.cos((j + 1) * np.pi * X) * np.sin((k + 1) * np.pi * Y)
                for j, k in modes)
        probe(VectorField(g2, np.stack([u, v], axis=-1)), (0.4, 0.6, 0.8))
    _, G2, _ = oracle_fields(SharpnessOracle(p=3.0), g2)
    for theta in (2.0 / 3.0, 0.8):
        probe(VectorField(g2, alpha_s(G2.values, 0.0, 1.0 / theta)), [theta])
    return worst


def measure():
    """Each table entry's values, at the points the tests measure."""
    err = {n: frozen.oracle_solve(n)[2] for n in (1025, 2049, 4097)}
    res = {n: frozen.interpolant_residual(n) for n in (513, 1025, 2049)}
    energy = {n: frozen.energy_error(n) for n in (257, 513)}
    stencil = {n: frozen.stencil_error(n, 1) for n in (101, 201)}
    w12 = {n: frozen.w12_error(n) for n in (33, 65)}
    composition = composition_ratios()
    dyadic, dense = frozen.dyadic_and_dense()
    box_line = [frozen.box_line_gaps(*case) for case in frozen.BOX_LINE_CASES]
    offcentre_spec, offcentre_line = frozen.offcentre_box(*frozen.OFFCENTRE_BOX)
    return {
        "solve_err_4097": [err[4097]],
        "solve_ratio_4097": [err[4097] / err[2049]],
        "solve_err_1025": [err[1025]],
        "solve_ratio_2049": [err[2049] / err[1025]],
        "residual_1025": [res[1025]],
        "residual_ratio": [res[1025] / res[513], res[2049] / res[1025]],
        "energy_h2": [e / h**2 for e, h in energy.values()],
        "energy_ratio": [energy[513][0] / energy[257][0]],
        "stencil_h2": [e / h**2 for e, h in [*stencil.values(), frozen.stencil_error(65, 2)]],
        "stencil_ratio": [stencil[201][0] / stencil[101][0]],
        "composition_dim1": [composition[1]],
        "composition_dim2": [composition[2]],
        "fit_affine": [frozen.line_fit("affine").fitted_theta],
        "noise_slope": [frozen.line_fit("noise").raw_slope],
        "dyadic_to_dense": [dyadic / dense],
        "w12_h": [e / h for e, h in w12.values()],
        "w12_ratio": [w12[65][0] / w12[33][0]],
        "high_p_steps": [frozen.high_p_solve(*case)[1].iterations
                         for case in frozen.HIGH_P_CASES],
        "backtrack_trials": [frozen.line_search_trials()],
        "line_exact_rel": [max(e for n in (2, 3, 256, 257, 4096, 4097)
                               for e in frozen.line_exact_errors(n))],
        "box_line_u": [u_gap for u_gap, _ in box_line],
        "box_line_energy": [*(e_gap for _, e_gap in box_line),
                            frozen.energy_gap(solve(offcentre_spec), offcentre_line)],
        "offcentre_calls": [solve(frozen.offcentre_line(80.0, eps)).iterations
                            for eps in frozen.OFFCENTRE_EPS],
        "line_floor": [solve(frozen.steep_line(10.0, 1e-4)).el_residual],
        "line_calls": [solve(frozen.warning_case(*case)).iterations
                       for case in frozen.WARNING_CASES],
    }


def main():
    values, code = measure(), 0
    for name, (lo, hi, measured, bounds) in frozen.TABLE.items():
        nearest = min(values[name], key=lambda v: min(v - lo, hi - v))
        ok = frozen.within(name, *values[name])
        code = code if ok else 1
        print(f"{'ok   ' if ok else 'DRIFT'} {name:17s} measured {nearest:<10.4g} "
              f"frozen {measured:<10.4g} [{lo:.4g}, {hi:.4g}]  {bounds}")
    return code


if __name__ == "__main__":
    sys.exit(main())
