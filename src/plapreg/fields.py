"""Uniform box grids, node-indexed fields and problems, the node gradient, interior boxes.

The domain is always a box in dimension 1 or 2, discretized by a uniform
lattice.  Scalar and vector fields store one value (or one n-vector) per
node.  The gradient uses central differences at interior nodes and
one-sided second-order stencils at boundary nodes, so it is exact on affine
data and second-order accurate everywhere else.  The delta-interior of the
box is again a box, indexed by one slice per axis.  A problem is data: a
grid, its exponents, a source and a Dirichlet trace.

Fields are value types: the constructor copies its input and the stored
array is marked read-only.  All operations here are pure functions.  The
module also owns the report format: every JSON artifact is written by
:func:`write_json` and every CSV table by :func:`write_table`.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from .pointwise import PLapParams

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "ProblemSpec",
    "gradient",
    "interior_box",
    "write_json",
    "write_table",
    "write_grid_json",
    "read_grid_json",
    "write_field_csv",
    "read_field_csv",
]

# Relative slack used when comparing node coordinates against box bounds.
_GEOM_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular lattice over a box, dim 1 or 2, >= 3 nodes per axis."""

    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    nodes: tuple[int, ...]

    def __post_init__(self):
        for name, kind in (("dim", numbers.Integral), ("lower", numbers.Real),
                           ("upper", numbers.Real), ("nodes", numbers.Integral)):
            value = getattr(self, name)
            # a bool passes isinstance as an Integral, and so as a Real
            if not all(isinstance(v, kind) and not isinstance(v, bool)
                       for v in ((value,) if name == "dim" else value)):
                raise ValueError(f"{name} must hold {kind.__name__.lower()} numbers, "
                                 f"got {value!r}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        nodes = tuple(int(n) for n in self.nodes)
        if not (len(lower) == len(upper) == len(nodes) == self.dim):
            raise ValueError("lower/upper/nodes must all have length dim")
        for lo, hi in zip(lower, upper):
            if not (hi > lo and math.isfinite(hi - lo)):
                raise ValueError(f"need finite lower < upper per axis, got [{lo}, {hi}]")
        for n in nodes:
            if n < 3:
                raise ValueError(f"need at least 3 nodes per axis, got {n}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def line(cls, lower: float, upper: float, nodes: int) -> "Grid":
        return cls(1, (lower,), (upper,), (nodes,))

    @classmethod
    def box(cls, lower, upper, nodes) -> "Grid":
        lower = tuple(lower)
        return cls(len(lower), lower, tuple(upper), tuple(nodes))

    # h and cell_volume are computed once per grid: cached_property writes the
    # instance __dict__, which a frozen dataclass leaves open, and stays out of
    # the fields that equality, hashing and `dataclasses.replace` read
    @functools.cached_property
    def h(self) -> tuple[float, ...]:
        """Spacing per axis, (upper - lower) / (nodes - 1)."""
        return tuple(
            (hi - lo) / (n - 1) for lo, hi, n in zip(self.lower, self.upper, self.nodes)
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return self.nodes

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.nodes))

    @functools.cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis(self, k: int) -> np.ndarray:
        return np.linspace(self.lower[k], self.upper[k], self.nodes[k])

    def axes(self) -> list[np.ndarray]:
        return [self.axis(k) for k in range(self.dim)]

    def coords(self) -> np.ndarray:
        """Node coordinates, shape ``grid.shape + (dim,)``."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def quad_weights(self) -> np.ndarray:
        """Tensor-product trapezoid weights, shape ``grid.shape``."""
        axes_w = []
        for k in range(self.dim):
            w = np.full(self.nodes[k], self.h[k])
            w[0] = w[-1] = 0.5 * self.h[k]
            axes_w.append(w)
        if self.dim == 1:
            return axes_w[0]
        return np.outer(axes_w[0], axes_w[1])

    def boundary_flags(self) -> np.ndarray:
        """Boolean array marking nodes on the box boundary: all but the interior box."""
        flags = np.ones(self.shape, dtype=bool)
        flags[(slice(1, -1),) * self.dim] = False
        return flags


@dataclass(frozen=True)
class _Field:
    """Node values on a grid, copied as float, checked finite and frozen.

    The values have shape ``grid.shape`` plus `_trailing` (``()`` for a
    scalar, ``(dim,)`` for a vector).
    """

    grid: Grid
    values: np.ndarray

    def _trailing(self) -> tuple[int, ...]:
        return ()

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        shape = self.grid.shape + self._trailing()
        if values.shape != shape:
            raise ValueError(f"values shape {values.shape} does not match {shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ScalarField(_Field):
    """One real value per grid node."""

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))


@dataclass(frozen=True)
class VectorField(_Field):
    """One n-vector per grid node, stored with a trailing component axis."""

    def _trailing(self) -> tuple[int, ...]:
        return (self.grid.dim,)


@dataclass(frozen=True)
class ProblemSpec:
    """Grid, exponents, source f and Dirichlet trace g (read on the boundary)."""

    grid: Grid
    params: PLapParams
    f: ScalarField
    g: ScalarField

    def __post_init__(self):
        if self.f.grid != self.grid or self.g.grid != self.grid:
            raise ValueError("f and g must live on the problem grid")


def interior_box(grid: Grid, delta: float) -> tuple[slice, ...]:
    """Index slices, one per axis, of the nodes x with [x - delta, x + delta]
    inside the box on every axis.

    The delta-interior of a box is itself a box, so ``values[box]`` selects
    it; ``values[box].ravel()`` lists its nodes in C order.  Raises
    ValueError when delta <= 0 or no node qualifies.
    """
    box = []
    for k in range(grid.dim):
        x = grid.axis(k)
        tol = _GEOM_RTOL * max(1.0, abs(grid.upper[k] - grid.lower[k]))
        (inside,) = np.nonzero(
            (x - delta >= grid.lower[k] - tol) & (x + delta <= grid.upper[k] + tol)
        )
        if delta <= 0 or inside.size == 0:
            raise ValueError(
                f"interior of radius {delta:g} is empty; the radius must be "
                "positive and below half of every box side"
            )
        box.append(slice(int(inside[0]), int(inside[-1]) + 1))
    return tuple(box)


def gradient(u: ScalarField) -> VectorField:
    """Discrete gradient: central differences inside, one-sided second order
    at the boundary.  Exact for affine (and per-axis quadratic) data."""
    grid = u.grid
    comps = [
        np.gradient(u.values, grid.h[k], axis=k, edge_order=2)
        for k in range(grid.dim)
    ]
    return VectorField(grid, np.stack(comps, axis=-1))


# ---------------------------------------------------------------------------
# serialization: JSON reports and CSV tables, CSV fields with a JSON grid sidecar

def _plain(obj):
    """obj as JSON data: dataclasses as dicts, tuples as lists, ±inf as "inf"/"-inf"."""
    if is_dataclass(obj):
        obj = asdict(obj)
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_json(payload, path) -> None:
    """Write a dict or dataclass with sorted keys, indent 2 and a trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n")


def write_table(path, header, rows) -> None:
    """Write a CSV table: the header row, then one row per item of ``rows``,
    floats as their repr (exact round trip) and everything else as is."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                     for row in rows)


def write_grid_json(grid: Grid, path) -> None:
    write_json(grid, path)


def read_grid_json(path) -> Grid:
    """Read a grid written by :func:`write_grid_json`; ValueError if malformed."""
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(f"{path}: not a JSON grid: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a grid must be a JSON object, not a "
                         f"{type(payload).__name__}")
    try:
        return Grid(payload["dim"], *(tuple(payload[k]) for k in ("lower", "upper", "nodes")))
    except KeyError as exc:
        raise ValueError(f"{path}: grid has no {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:  # e.g. a number where a list belongs, 1.0 nodes
        raise ValueError(f"{path}: malformed grid: {exc}") from None


def write_field_csv(field: ScalarField | VectorField, path) -> None:
    """Row-major node order; header ``x1[,x2],value...``; floats as ``%.17g``.

    The bytes are those of ``np.savetxt`` with ``fmt="%.17g"`` and
    ``delimiter=","``, written one node of the leading axis at a time (the
    whole field in 1D): each axis's coordinates are formatted once, and
    only one block's values are held as Python floats.
    """
    grid = field.grid
    values = field.values.reshape(grid.shape + (-1,))
    if isinstance(field, ScalarField):
        names = ["value"]
    else:
        names = [f"value{k + 1}" for k in range(grid.dim)]
    header = ",".join([f"x{k + 1}" for k in range(grid.dim)] + names)
    *lead, last = [["%.17g," % x for x in grid.axis(k)] for k in range(grid.dim)]
    # one line per node of the last axis, its values left as %-slots
    lines = [x + ",".join(["%.17g"] * values.shape[-1]) for x in last]
    blocks = zip(lead[0], values) if lead else [("", values)]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for prefix, block in blocks:
            fmt = prefix + ("\n" + prefix).join(lines) + "\n"
            fh.write(fmt % tuple(block.ravel().tolist()))


def read_field_csv(path, grid: Grid) -> ScalarField | VectorField:
    """Read a field written by :func:`write_field_csv` back onto ``grid``.

    One value column is a ScalarField unless the header names it
    ``value1``, as a 1D VectorField is written; one value column per axis
    is a VectorField.
    """
    with open(path) as fh:
        names = fh.readline().strip().split(",")[grid.dim:]
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)  # faster than from fh
    if data.shape[0] != grid.num_nodes:
        raise ValueError(
            f"{path}: {data.shape[0]} rows, expected {grid.num_nodes} for grid"
        )
    ncols = data.shape[1] - grid.dim
    coords = grid.coords().reshape(-1, grid.dim)
    if not np.allclose(data[:, : grid.dim], coords, rtol=0, atol=1e-9):
        raise ValueError(f"{path}: node coordinates do not match grid")
    if ncols == 1 and names != [f"value{k + 1}" for k in range(grid.dim)]:
        return ScalarField(grid, data[:, grid.dim].reshape(grid.shape))
    if ncols == grid.dim:
        return VectorField(grid, data[:, grid.dim :].reshape(grid.shape + (grid.dim,)))
    raise ValueError(f"{path}: unexpected column count {data.shape[1]}")
