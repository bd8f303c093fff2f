"""The run defaults and the sweep's error, in a module that imports nothing.

:mod:`plapreg.experiments` takes its defaults and raises its error from
here, and :mod:`plapreg.cli` reads them before it has loaded numpy.
"""

__all__ = [
    "DEFAULT_NODES_1D",
    "DEFAULT_EPS_SWEEP",
    "DEFAULT_DELTA_EXPONENTS",
    "DEFAULT_DELTA_SWEEP",
    "SolverError",
]

DEFAULT_NODES_1D = 4097
DEFAULT_EPS_SWEEP = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_DELTA_EXPONENTS = 0.125
DEFAULT_DELTA_SWEEP = 0.25


class SolverError(RuntimeError):
    """A solve failed in a context that cannot continue (e.g. inside a sweep)."""
