"""Acceptance gate: the ten primary checks, one pass/fail line each.

Each test prints a single PASS/FAIL line with the measured quantity, its
tolerance, and the elapsed time, then asserts both the check and the
runtime budget.  Run with -s (or read the captured output) to see the
lines.
"""

import time
from dataclasses import replace

import numpy as np

from frozen import TABLE, oracle_solve, within
from plapreg.fields import Grid, VectorField
from plapreg.pointwise import (
    alpha_s,
    beta_theta,
    coercivity_constant,
    grad_L_eps,
    hess_L_eps,
    integrand_lower_bound_check,
    l_eps,
    monotonicity_gap,
)
from plapreg.smoothness import composition_bound_check
from plapreg.experiments import (
    SharpnessOracle,
    oracle_fields,
    oracle_problem,
    run_eps_sweep,
    run_scaling_check,
    run_theorem1_check,
)


def _report(ok: bool, label: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"{status} {label} [{elapsed:.2f}s / budget {budget:.0f}s]")
    assert ok, label
    assert elapsed <= budget, f"over budget: {elapsed:.2f}s > {budget:.0f}s"


def test_01_hessian_matches_difference_quotients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 3))
        w = rng.uniform(-3, 3, n)
        eps = rng.uniform(0.01, 1.0)
        p = rng.uniform(2.0, 6.0)
        H = hess_L_eps(w, eps, p)
        step = 1e-5 * (1.0 + float(np.linalg.norm(w)))
        for k in range(n):
            e = np.zeros(n)
            e[k] = step
            fd = (grad_L_eps(w + e, eps, p) - grad_L_eps(w - e, eps, p)) / (2 * step)
            rel = np.max(np.abs(H[:, k] - fd) / (1.0 + np.abs(H[:, k])))
            worst = max(worst, float(rel))
    _report(worst < 1e-6, f"hessian-vs-fd: worst rel {worst:.2e} (tol 1e-06)",
            time.perf_counter() - t0, 1.0)


def test_02_hessian_rayleigh_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    ok = True
    worst_margin = np.inf
    for _ in range(10_000):
        n = int(rng.integers(1, 3))
        w = rng.uniform(-4, 4, n)
        xi = rng.uniform(-1, 1, n)
        nx = float(xi @ xi)
        if nx < 1e-12:
            continue
        eps = rng.uniform(1e-4, 2.0)
        p = rng.uniform(2.0, 6.0)
        H = hess_L_eps(w, eps, p)
        r = float(xi @ H @ xi) / nx
        lo = l_eps(w, eps) ** (p - 2.0)
        hi = (p - 1.0) * lo
        ok = ok and lo * (1 - 1e-10) <= r <= hi * (1 + 1e-10)
        worst_margin = min(worst_margin, r - lo * (1 - 1e-10), hi * (1 + 1e-10) - r)
    _report(ok, f"rayleigh-sandwich: 1e4 samples in [l^(p-2), (p-1)l^(p-2)], "
                f"margin {worst_margin:.2e}",
            time.perf_counter() - t0, 1.0)


def test_03_coercivity_identity_and_integrand_bound():
    t0 = time.perf_counter()
    worst_id = 0.0
    for p in np.linspace(2.0, 6.0, 100):
        for q in np.linspace(2.0, 3.0, 100, endpoint=False):
            other = min(1.0, 1.0 + (p - q) - (p - 2.0) * (q - 2.0))
            worst_id = max(worst_id, abs(coercivity_constant(p, q) - other))

    rng = np.random.default_rng(103)
    m = 100_000
    A = rng.uniform(-3, 3, (m, 2, 2))
    H = A + np.swapaxes(A, -1, -2)
    w = rng.uniform(-4, 4, (m, 2))
    p = rng.uniform(2.0, 6.0, m)
    q = rng.uniform(2.0, 3.0 - 1e-9, m)
    eps = rng.uniform(1e-3, 1.0, m)
    lhs, rhs = integrand_lower_bound_check(H, w, eps, p, q)
    scale = 1.0 + np.abs(lhs) + np.abs(rhs)
    worst_gap = float(np.min((lhs - rhs) / scale))
    ok = worst_id <= 1e-12 and worst_gap >= -1e-10
    _report(ok, f"coercivity: identity gap {worst_id:.2e} (tol 1e-12), "
                f"integrand margin {worst_gap:.2e} (tol -1e-10)",
            time.perf_counter() - t0, 5.0)


def test_04_transform_inequalities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    m = 100_000

    w = rng.uniform(-6, 6, (m, 2))
    v = rng.uniform(-6, 6, (m, 2))
    s = rng.uniform(1.0, 3.0, m)
    gap = monotonicity_gap(w, v, s)
    scale = 1.0 + np.linalg.norm(w, axis=-1) ** (s + 1) + np.linalg.norm(v, axis=-1) ** (s + 1)
    mono_margin = float(np.min(gap / scale))

    theta = rng.uniform(0.05, 1.0, m)
    dl = np.linalg.norm(beta_theta(w, theta) - beta_theta(v, theta), axis=-1)
    dr = 2.0 * np.linalg.norm(w - v, axis=-1) ** theta
    holder_margin = float(np.min(dr - dl))

    da = np.linalg.norm(alpha_s(w, 0.0, s) - alpha_s(v, 0.0, s), axis=-1)
    db = 2.0 ** (1.0 - s) * np.linalg.norm(w - v, axis=-1) ** s
    inv_margin = float(np.min(da - db * (1.0 - 1e-10)))

    ok = mono_margin >= -1e-12 and holder_margin >= -1e-10 and inv_margin >= -1e-12
    _report(ok, f"transforms: monotone {mono_margin:.2e}, hoelder {holder_margin:.2e}, "
                f"inverse {inv_margin:.2e}",
            time.perf_counter() - t0, 5.0)


def test_05_solver_tracks_degenerate_profile():
    t0 = time.perf_counter()
    errs = {}
    for nodes in (2049, 4097):
        _, r, errs[nodes] = oracle_solve(nodes)
        assert r.converged
    ratio = errs[4097] / errs[2049]
    ok = within("solve_err_4097", errs[4097]) and within("solve_ratio_4097", ratio)
    _report(ok, f"oracle-solve: sup err {errs[4097]:.2e} (tol {TABLE['solve_err_4097'].hi:g}), "
                f"refinement ratio {ratio:.3f} (tol {TABLE['solve_ratio_4097'].hi:g})",
            time.perf_counter() - t0, 30.0)


def test_06_exponent_table_recovered():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for p, q in ((3.0, 2.5), (4.0, 3.0), (5.0, 4.0)):
        rep = run_theorem1_check(p, qs=[q])
        table = [c for c in rep.cells if c.kind == "table"][0]
        w1q = [c for c in rep.cells if c.kind == "w1q"][0]
        ok = ok and abs(table.theta_hat - table.theta_target) <= 0.05
        ok = ok and w1q.theta_hat >= 0.95
        rows.append(f"p={p:g}: {table.theta_hat:.3f}/{table.theta_target:.3f}, "
                    f"w1q {w1q.theta_hat:.3f}")
    _report(ok, "exponent-table (tol 0.05, w1q >= 0.95): " + "; ".join(rows),
            time.perf_counter() - t0, 120.0)


def test_07_transformed_norms_uniform_in_eps():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for p in (3.0, 4.0):
        orc = SharpnessOracle(p=p)
        g = Grid.line(-1.0, 1.0, 4097)
        for s in (p / 2.0, (p - 1.0) / 2.0 + 0.1):
            template = oracle_problem(orc, g, eps=1e-2)
            template = replace(template, params=replace(template.params, s=s))
            res = run_eps_sweep(template, (1e-2, 1e-3, 1e-4))
            ok = ok and res.verdict == "pass" and res.uniformity_factor < 2.0
            rows.append(f"p={p:g},s={s:g}: x{res.uniformity_factor:.3f}")
    _report(ok, "eps-uniformity (factor < 2): " + "; ".join(rows),
            time.perf_counter() - t0, 180.0)


def test_08_exact_rescaling_invariance():
    t0 = time.perf_counter()
    orc = SharpnessOracle(p=3.0)
    g = Grid.line(-1.0, 1.0, 1025)
    spec = oracle_problem(orc, g, eps=1e-3)
    rows = []
    ok = True
    for lam in (0.5, 2.0):
        rep = run_scaling_check(spec, lam)
        ok = ok and rep.passed and rep.u_gap <= rep.u_tol and rep.alpha_rel_gap <= 1e-8
        rows.append(f"lam={lam:g}: gap {rep.u_gap:.1e}/{rep.u_tol:.1e}, "
                    f"alpha {rep.alpha_rel_gap:.1e}")
    _report(ok, "rescaling: " + "; ".join(rows), time.perf_counter() - t0, 60.0)


def test_09_composition_bound_holds():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for p in (3.0, 4.0):
        orc = SharpnessOracle(p=p)
        g = Grid.line(-1.0, 1.0, 4097)
        _, G, _ = oracle_fields(orc, g)
        for theta in (2.0 / p, 0.5 * (2.0 / p + 2.0 / (p - 1.0))):
            V = VectorField(g, alpha_s(G.values, 0.0, 1.0 / theta))
            lhs, rhs = composition_bound_check(V, theta)
            ok = ok and lhs <= rhs and lhs > 0.0
            rows.append(f"p={p:g},th={theta:.3f}: {lhs:.3f}<={rhs:.3f}")
    _report(ok, "composition-bound: " + "; ".join(rows),
            time.perf_counter() - t0, 60.0)


def test_10_negative_control_stays_one_sided():
    t0 = time.perf_counter()
    p = 4.0
    q = 2.0 * (p - 1.0)
    rep = run_theorem1_check(p, qs=[q])
    cell = rep.cells[0]
    bound = 1.0 / (p - 1.0) + 1.0 / q + 0.05
    ok = cell.theta_hat <= bound and cell.r2 >= 0.98
    _report(ok, f"negative-control p=4 q=6: theta_hat {cell.theta_hat:.3f} "
                f"<= {bound:.3f}",
            time.perf_counter() - t0, 60.0)
