"""Desk-scale numerical lab for regularized p-Laplace minimization.

Each public name is imported from the submodule that defines it, e.g.
``from plapreg.solver import solve``; the package itself re-exports none.

Submodules:

* :mod:`plapreg.fields` - grids, scalar/vector fields, problem specs, the
  node gradient, interior boxes, and every JSON and CSV writer.
* :mod:`plapreg.pointwise` - the vector magnitude, the regularized length,
  energy density and derivatives, power transforms, algebraic certificates.
* :mod:`plapreg.solver` - minimization of the discrete energy: a line
  exactly, by the first integral of its Euler-Lagrange equation; a box by
  damped Newton, coarse to fine, along a (p, eps) continuation path.
* :mod:`plapreg.smoothness` - Nikol'skii and Sobolev seminorms, shift
  difference quotients, log-log exponent fits.
* :mod:`plapreg.experiments` - the exact kinked oracle |x1|^{p'}/p',
  exponent table verification, eps sweeps and scaling checks.
* :mod:`plapreg.defaults` - the commands' defaults and ``SolverError``, with
  no imports, so the CLI reads them before numpy loads.
* :mod:`plapreg.cli` - the ``plapreg`` command line front end.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
