"""Desk-scale numerical lab for regularized p-Laplace minimization.

Each public name is imported from the submodule that defines it, e.g.
``from plapreg.solver import solve``; the package itself re-exports none.

Submodules:

* :mod:`plapreg.fields` - grids, scalar/vector fields, problem specs, the
  node gradient, interior boxes, and every JSON and CSV writer.
* :mod:`plapreg.pointwise` - the vector magnitude, the regularized length,
  energy density and derivatives, power transforms, algebraic certificates.
* :mod:`plapreg.solver` - damped Newton minimization of the discrete
  energy with eps continuation.
* :mod:`plapreg.smoothness` - Nikol'skii and Sobolev seminorms, shift
  difference quotients, log-log exponent fits.
* :mod:`plapreg.experiments` - the exact torsion-type oracle, exponent
  table verification, eps sweeps and scaling checks.
* :mod:`plapreg.defaults` - the commands' defaults and ``SolverError``, with
  no imports, so the CLI reads them before numpy loads.
* :mod:`plapreg.cli` - the ``plapreg`` command line front end.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
