#!/usr/bin/env python3
"""Solve the comparison sets and print what each solve did.

Run from the repository root:

    PYTHONPATH=src python3 scripts/solve_sets.py [--smoke]

The sets:

* ``boxes``: torsion (f = 1, g = 0) and the sharp oracle on 65^2 and 129^2,
  p in {3, 5, 10, 20, 40, 80}, eps in {1e-2, 1e-6}: 48 solves.
* ``x1only``: the off-centre x1-only boxes of ``tests/frozen.py``
  (``offcentre_box``: f = 1 + x1 / 2, g the line solve v for g = 0.3 x1,
  extended in x2) on 65^2 and 129^2, p in {3, 10, 40, 80}, eps in {1e-2,
  1e-6}: 16 solves.  Their exact discrete minimizer is v extended, whose
  energy is twice the line's.
* ``radial``: f = 1 with g = u_c = 2^(-1/(p-1)) |x - c|^p' / p', p' = p /
  (p - 1), the eps = 0 solution (``radial_box`` of ``tests/frozen.py``),
  whose trace is not a sum of a function of x1 and one of x2, on 65^2 and
  129^2, p in {3, 5, 10, 20, 40, 80}, eps in {1e-2, 1e-6}, c in {(0, 0),
  (0.00625, 0.2)}: 48 solves.
* ``torsion2d``: the benchmark's torsion2d problem (``perfbench/workloads.py``:
  257^2, p = 3, eps = 1e-3, f = 1 plus a seeded smooth perturbation, g = 0)
  for seeds 1 to 12.
* ``lines``: lines on [-1, 1] of 65, 1025 and 4097 nodes, p in {2.5, 3, 10,
  40, 80, 200}, eps in {1e-1, 1e-2, 1e-6, 1e-12}, four sources: f = 1 +
  x / 2 with g = 0.3 x, f = 1 with g = 3 x, f = cos 3x with g = x^3, and
  f = 1e-4 with g = 0: 288 solves.

``--smoke`` solves a quick subset instead: torsion and the sharp oracle on
33^2 and 65^2 at p = 3 and 40, the x1-only boxes there at p = 3 and 80,
and the radial boxes there at p = 3 and 40 with c = (0.00625, 0.2), eps in
{1e-2, 1e-6}; and the offcentre, cos and small lines of 65 and 4097 nodes
at p = 3 and 80, eps in {1e-2, 1e-12}.

One row per solve: its stop reason, its Newton steps per level (coarsest
first; a line's outer calls), factorizations, CG iterations, wall seconds
and energy; on an x1-only box also the algebraic error, (E - E*) / (1 +
|E*|) and max |u - u*| / (1 + max |u*|); on a radial box the sup error
max |u - u_c|, which is a discretization error, not an algebraic one.
Each set ends with its totals.
Every box solve of these sets is expected to converge; the script exits 1
when one does not, when a line of the smoke subset does not, or when an
x1-only box ends above E* by more than the bound of ``box_line_energy`` in
``tests/frozen.py``.  A line is solved exactly, and the g = 3 x lines at
p >= 10 on 1025 and 4097 nodes, and at p >= 40 on 65, stop ``stalled``:
their EL residual at the rounded minimizer is above its tolerance.
"""

import argparse
import functools
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from plapreg.experiments import SharpnessOracle, oracle_problem
from plapreg.fields import Grid, ProblemSpec, ScalarField
from plapreg.pointwise import PLapParams
from plapreg.solver import solve

ROOT = Path(__file__).resolve().parents[1]


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


frozen = load("frozen", "tests/frozen.py")


def box(problem, nodes, p, eps):
    """Torsion or the sharp oracle on [-1, 1]^2, and no exact answer."""
    grid = Grid.box((-1.0, -1.0), (1.0, 1.0), (nodes, nodes))
    return (frozen.torsion_spec(grid, p, eps) if problem == "torsion"
            else oracle_problem(SharpnessOracle(p=p), grid, eps=eps)), None


def x1only(nodes, p, eps):
    """The off-centre x1-only box, and its exact (u*, E*)."""
    spec, line = frozen.offcentre_box(p, eps, nodes)
    return spec, (line.u.values[:, None], 2.0 * line.energy)


def radial(nodes, p, eps, centre):
    """The radial box, and (u_c, None): u_c solves the continuous problem."""
    spec, u_c = frozen.radial_box(p, eps, nodes, centre)
    return spec, (u_c, None)


# the (f, g) of the ``lines`` set at the nodes x
LINE_SOURCES = {
    "offcentre": lambda x: (1 + x / 2, 0.3 * x),
    "steep": lambda x: (np.ones_like(x), 3.0 * x),
    "cos": lambda x: (np.cos(3 * x), x**3),
    "small": lambda x: (np.full_like(x, 1e-4), np.zeros_like(x)),
}


def line(source, nodes, p, eps):
    """A line of the ``lines`` set on [-1, 1], and no exact answer."""
    grid = Grid.line(-1.0, 1.0, nodes)
    f, g = LINE_SOURCES[source](grid.axis(0))
    return (ProblemSpec(grid, PLapParams(p=p, eps=eps), ScalarField(grid, f),
                        ScalarField(grid, g)), None)


def torsion2d(seed):
    """The benchmark's torsion2d problem for seed, and no exact answer."""
    workloads = load("workloads", "perfbench/workloads.py")
    return workloads.Torsion2D().setup(seed, ROOT, None, None)[0], None


def sets(smoke):
    """{set name: [(label, make)]}, make() giving (spec, exact): exact is
    None, the discrete minimizer's (u*, E*), or (u_c, None) for a u_c that
    solves the continuous problem."""
    nodes, ps, x1_ps, epss = (((33, 65), (3.0, 40.0), (3.0, 80.0), (1e-2, 1e-6)) if smoke else
                              ((65, 129), (3.0, 5.0, 10.0, 20.0, 40.0, 80.0),
                               (3.0, 10.0, 40.0, 80.0), (1e-2, 1e-6)))
    centres = ((0.00625, 0.2),) if smoke else ((0.0, 0.0), (0.00625, 0.2))
    out = {
        "boxes": [(f"{problem} {n}^2 p={p:g} eps={eps:g}",
                   functools.partial(box, problem, n, p, eps))
                  for problem in ("torsion", "sharp") for n in nodes for p in ps for eps in epss],
        "x1only": [(f"offcentre {n}^2 p={p:g} eps={eps:g}", functools.partial(x1only, n, p, eps))
                   for n in nodes for p in x1_ps for eps in epss],
        "radial": [(f"c={c[0]:g},{c[1]:g} {n}^2 p={p:g} eps={eps:g}",
                    functools.partial(radial, n, p, eps, c))
                   for c in centres for n in nodes for p in ps for eps in epss],
    }
    if not smoke:
        out["torsion2d"] = [(f"torsion2d seed {seed}", functools.partial(torsion2d, seed))
                            for seed in range(1, 13)]
    sources, line_nodes, line_ps, line_epss = (
        (("offcentre", "cos", "small"), (65, 4097), (3.0, 80.0), (1e-2, 1e-12)) if smoke else
        (LINE_SOURCES, (65, 1025, 4097), (2.5, 3.0, 10.0, 40.0, 80.0, 200.0),
         (1e-1, 1e-2, 1e-6, 1e-12)))
    out["lines"] = [(f"{source} {n} p={p:g} eps={eps:g}",
                     functools.partial(line, source, n, p, eps))
                    for source in sources for n in line_nodes for p in line_ps for eps in line_epss]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="solve the quick subset: 33^2 and 65^2 boxes, 65- and 4097-node lines")
    args = ap.parse_args(argv)
    e_bound = frozen.TABLE["box_line_energy"].hi
    code = 0
    print(f"{'set':9} {'solve':35} {'stop':10} {'steps per level':18} {'fact':>4} {'cg':>5} "
          f"{'secs':>8} {'energy':>24} {'E gap':>9} {'u gap':>9} {'sup err':>9}")
    for name, cases in sets(args.smoke).items():
        totals = np.zeros(4)
        for label, make in cases:
            spec, exact = make()
            start = time.perf_counter()
            r = solve(spec)
            secs = time.perf_counter() - start
            totals += (r.iterations, r.factorizations, r.cg_iterations, secs)
            gaps, bad = "", not r.converged and (spec.grid.dim == 2 or args.smoke)
            if exact is not None and exact[1] is None:
                gaps = f" {'':9} {'':9} {np.max(np.abs(r.u.values - exact[0])):9.3e}"
            elif exact is not None:
                u_star, e_star = exact
                e_gap = (r.energy - e_star) / (1.0 + abs(e_star))
                u_gap = np.max(np.abs(r.u.values - u_star)) / (1.0 + np.max(np.abs(u_star)))
                gaps, bad = f" {e_gap:9.2e} {u_gap:9.2e}", bad or e_gap > e_bound
            steps = ",".join(str(row[1]) for row in r.levels)
            print(f"{name:9} {label:35} {r.stop_reason:10} {steps:18} {r.factorizations:4d} "
                  f"{r.cg_iterations:5d} {secs:8.4f} {r.energy:24.17g}{gaps}"
                  f"{'  FAIL' if bad else ''}")
            code = 1 if bad else code
        print(f"{name:9} {f'total of {len(cases)}':35} {'':10} {int(totals[0]):<18d} "
              f"{int(totals[1]):4d} {int(totals[2]):5d} {totals[3]:8.4f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
