"""Grid geometry, the node gradient, interior boxes, and field serialization."""

import dataclasses
import json
import math

import numpy as np
import pytest

from frozen import stencil_error, within
from plapreg.fields import (
    Grid,
    ScalarField,
    VectorField,
    gradient,
    interior_box,
    read_field_csv,
    read_grid_json,
    write_field_csv,
    write_grid_json,
    write_json,
    write_table,
)


# ---------------------------------------------------------------------------
# grids


def test_grid_line_basic():
    g = Grid.line(-1.0, 1.0, 5)
    assert g.dim == 1
    assert g.h == (0.5,)
    assert g.num_nodes == 5
    assert g.cell_volume == 0.5
    np.testing.assert_allclose(g.axis(0), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_grid_box_basic():
    g = Grid.box((0.0, -1.0), (2.0, 1.0), (5, 3))
    assert g.dim == 2
    assert g.h == (0.5, 1.0)
    assert g.shape == (5, 3)
    assert g.num_nodes == 15
    coords = g.coords()
    assert coords.shape == (5, 3, 2)
    assert coords[0, 0, 0] == 0.0 and coords[-1, -1, 1] == 1.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(dim=3, lower=(0, 0, 0), upper=(1, 1, 1), nodes=(3, 3, 3)),
        dict(dim=1, lower=(1.0,), upper=(0.0,), nodes=(5,)),
        dict(dim=1, lower=(0.0,), upper=(1.0,), nodes=(2,)),
        dict(dim=2, lower=(0.0,), upper=(1.0, 1.0), nodes=(3, 3)),
    ],
)
def test_grid_rejects_bad_geometry(bad):
    with pytest.raises(ValueError):
        Grid(**bad)


def test_cached_spacing_leaves_equality_hashing_and_replace_as_they_were():
    """h and cell_volume are computed once per grid and kept outside its
    fields: a grid that has read them equals and hashes like a fresh one,
    and a grid made by `dataclasses.replace` computes its own."""
    g = Grid.box((0.0, -1.0), (2.0, 1.0), (5, 3))
    fresh = Grid.box((0.0, -1.0), (2.0, 1.0), (5, 3))
    assert (g.h, g.cell_volume) == ((0.5, 1.0), 0.5)
    assert g.h is g.h  # computed once
    assert g == fresh and hash(g) == hash(fresh) and {g: 1}[fresh] == 1
    assert dataclasses.astuple(g) == (2, (0.0, -1.0), (2.0, 1.0), (5, 3))
    finer = dataclasses.replace(g, nodes=(9, 5))
    assert (finer.h, finer.cell_volume) == ((0.25, 0.5), 0.125)
    assert finer != g and (g.h, g.cell_volume) == ((0.5, 1.0), 0.5)
    assert dataclasses.replace(g) == g and hash(dataclasses.replace(g)) == hash(g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.nodes = (9, 5)


def test_quad_weights_sum_to_volume():
    g1 = Grid.line(0.0, 3.0, 7)
    assert np.isclose(g1.quad_weights().sum(), 3.0, rtol=1e-14)
    g2 = Grid.box((0.0, 1.0), (2.0, 4.0), (9, 13))
    assert np.isclose(g2.quad_weights().sum(), 6.0, rtol=1e-14)


def test_boundary_flags_count():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (6, 4))
    flags = g.boundary_flags()
    # perimeter of a 6x4 lattice
    assert flags.sum() == 2 * 6 + 2 * 4 - 4
    assert not flags[2, 2]

    def two_faces_per_axis(grid):
        """The flags as set before they became the interior box's complement."""
        flags = np.zeros(grid.shape, dtype=bool)
        for k in range(grid.dim):
            for end in (0, -1):
                idx = [slice(None)] * grid.dim
                idx[k] = end
                flags[tuple(idx)] = True
        return flags

    for grid in (g, Grid.line(-0.5, 2.0, 3), Grid.line(0.0, 1.0, 8),
                 Grid.box((-1.0, 0.5), (2.0, 1.0), (3, 9)), Grid.box((0, 0), (1, 1), (17, 5))):
        np.testing.assert_array_equal(grid.boundary_flags(), two_faces_per_axis(grid))


# ---------------------------------------------------------------------------
# fields


def test_scalar_field_shape_and_freeze():
    g = Grid.line(0.0, 1.0, 4)
    u = ScalarField(g, [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros(5))
    with pytest.raises(ValueError):
        ScalarField(g, [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        u.values[0] = 9.0


def test_vector_field_shape_and_helpers():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (3, 3))
    x, y = np.moveaxis(g.coords(), -1, 0)
    V = VectorField(g, np.stack([y, -x], axis=-1))
    assert V.values.shape == (3, 3, 2)
    np.testing.assert_allclose(V.values[..., 0], g.coords()[..., 1])
    with pytest.raises(ValueError):
        VectorField(g, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# gradient


def test_gradient_exact_on_affine():
    g = Grid.box((0.0, 0.0), (1.0, 2.0), (9, 11))
    x, y = np.moveaxis(g.coords(), -1, 0)
    u = ScalarField(g, 3.0 * x - 2.0 * y + 0.5)
    G = gradient(u)
    np.testing.assert_allclose(G.values[..., 0], 3.0, atol=1e-13)
    np.testing.assert_allclose(G.values[..., 1], -2.0, atol=1e-13)


def test_gradient_exact_on_per_axis_quadratic():
    g = Grid.line(-1.0, 1.0, 9)
    u = ScalarField(g, g.axis(0) ** 2)
    np.testing.assert_allclose(gradient(u).values[:, 0], 2 * g.axis(0), atol=1e-13)


def test_gradient_second_order_on_sine_1d():
    errs = {nodes: stencil_error(nodes, 1) for nodes in (101, 201)}
    # one-sided boundary stencil dominates: constant ~ (2 pi)^3 / 3
    assert within("stencil_h2", *(err / h**2 for err, h in errs.values()))
    assert within("stencil_ratio", errs[201][0] / errs[101][0])


def test_gradient_second_order_on_sine_2d():
    err, h = stencil_error(65, 2)
    assert within("stencil_h2", err / h**2)


# ---------------------------------------------------------------------------
# interior boxes


def count(box):
    return int(np.prod([b.stop - b.start for b in box]))


def test_interior_box_tiny_delta_keeps_strict_interior():
    g = Grid.line(0.0, 1.0, 11)
    # delta within the geometric tolerance keeps the boundary nodes too
    assert count(interior_box(g, 1e-12)) == 11
    assert interior_box(g, 0.05) == (slice(1, 10),)


def test_interior_box_1d_geometry():
    g = Grid.line(-1.0, 1.0, 9)  # h = 0.25
    flags = np.zeros(g.shape, dtype=bool)
    flags[interior_box(g, 0.5)] = True
    np.testing.assert_array_equal(flags, np.abs(g.axis(0)) <= 0.5 + 1e-12)


def test_interior_box_empty_and_monotone():
    g = Grid.line(0.0, 1.0, 21)
    with pytest.raises(ValueError, match="interior.*empty"):
        interior_box(g, 0.6)
    prev = g.num_nodes + 1
    for delta in (0.05, 0.15, 0.3, 0.45):
        c = count(interior_box(g, delta))
        assert c < prev
        prev = c
    for delta in (0.0, -0.1):
        with pytest.raises(ValueError, match="interior.*empty"):
            interior_box(g, delta)


def test_interior_box_2d_counts():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (11, 11))
    # surviving nodes per axis: x in [0.2, 0.8] -> 7 of 11
    assert interior_box(g, 0.2) == (slice(2, 9), slice(2, 9))
    # only the short axis empties
    with pytest.raises(ValueError, match="interior.*empty"):
        interior_box(Grid.box((0.0, 0.0), (4.0, 1.0), (11, 11)), 0.6)


# ---------------------------------------------------------------------------
# serialization


def test_grid_json_roundtrip(tmp_path):
    g = Grid.box((0.0, -1.5), (2.0, 2.5), (9, 17))
    p = tmp_path / "grid.json"
    write_grid_json(g, p)
    assert read_grid_json(p) == g


@pytest.mark.parametrize("text, match", [
    ('{"dim": 1, "lower": [0.0], "upper": [1.0]}', "no 'nodes'"),
    ('[1, [0.0], [1.0], [5]]', "JSON object, not a list"),
    ('{"dim": 1, "lower": 0.0, "upper": [1.0], "nodes": [5]}', "malformed grid"),
    ('{"dim": 1, "lower": [0.0], "upper": [1.0], "nodes": [null]}', "malformed grid"),
    ('{"dim": 1.0, "lower": [0.0], "upper": [1.0], "nodes": [5]}', "dim must hold integral"),
    ('{"dim": true, "lower": [0.0], "upper": [1.0], "nodes": [5]}', "dim must hold integral"),
    ('{"dim": 1, "lower": [0.0], "upper": [1.0], "nodes": [5.7]}', "nodes must hold integral"),
    ('{"dim": 1, "lower": [0.0], "upper": [1.0], "nodes": ["5"]}', "nodes must hold integral"),
    ('{"dim": 1, "lower": ["0"], "upper": [1.0], "nodes": [5]}', "lower must hold real"),
    ('{"dim": 1, "lower": [0.0], "upper": [true], "nodes": [5]}', "upper must hold real"),
    ('{"dim": 1, "lower": [-Infinity], "upper": [1.0], "nodes": [5]}', "finite lower"),
])
def test_read_grid_json_rejects_malformed_sidecars(tmp_path, text, match):
    p = tmp_path / "grid.json"
    p.write_text(text)
    with pytest.raises(ValueError, match=match):
        read_grid_json(p)


def test_write_json_plain_data(tmp_path):
    p = tmp_path / "sub" / "x.json"
    payload = {"grid": Grid.line(0.0, 1.0, 5), "q": np.float64(np.inf), "lo": -math.inf,
               "pair": (1, 2.5)}
    write_json(payload, p)
    text = p.read_text()
    assert text.endswith("}\n") and text.splitlines()[1] == '  "grid": {'
    assert json.loads(text, parse_constant=_no_constant) == {
        "grid": {"dim": 1, "lower": [0.0], "upper": [1.0], "nodes": [5]},
        "q": "inf", "lo": "-inf", "pair": [1, 2.5],
    }


def _no_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_write_table_writes_floats_as_repr(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, ["a", "b", "c"], [[np.float64(0.1), 3, "x"], (math.inf, -1, 1 / 3)])
    assert p.read_bytes() == b"a,b,c\r\n0.1,3,x\r\ninf,-1,0.3333333333333333\r\n"


def test_field_csv_roundtrip_scalar(tmp_path):
    g = Grid.line(0.0, 1.0, 33)
    u = ScalarField(g, np.sin(3 * g.axis(0)))
    p = tmp_path / "u.csv"
    write_field_csv(u, p)
    assert p.read_text().splitlines()[0] == "x1,value"
    back = read_field_csv(p, g)
    assert isinstance(back, ScalarField)
    assert np.array_equal(back.values, u.values)


def test_field_csv_roundtrip_vector_2d(tmp_path):
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (5, 7))
    x, y = np.moveaxis(g.coords(), -1, 0)
    V = VectorField(g, np.stack([x * y, x - y], axis=-1))
    p = tmp_path / "v.csv"
    write_field_csv(V, p)
    assert p.read_text().splitlines()[0] == "x1,x2,value1,value2"
    back = read_field_csv(p, g)
    assert isinstance(back, VectorField)
    assert np.array_equal(back.values, V.values)


def test_field_csv_roundtrip_vector_1d(tmp_path):
    # one value column, as a scalar field has: the header tells them apart
    g = Grid.line(0.0, 1.0, 33)
    V = VectorField(g, np.cos(3 * g.coords()))
    p = tmp_path / "v.csv"
    write_field_csv(V, p)
    assert p.read_text().splitlines()[0] == "x1,value1"
    back = read_field_csv(p, g)
    assert isinstance(back, VectorField)
    assert np.array_equal(back.values, V.values)


@pytest.mark.parametrize("grid, kind, header", [
    (Grid.line(-0.3, 2.1, 9), ScalarField, "x1,value"),
    (Grid.line(-0.3, 2.1, 9), VectorField, "x1,value1"),
    (Grid.box((0.25, -3.0), (1.5, 0.5), (6, 4)), ScalarField, "x1,x2,value"),
    (Grid.box((0.25, -3.0), (1.5, 0.5), (6, 4)), VectorField, "x1,x2,value1,value2"),
], ids=["1d-scalar", "1d-vector", "2d-scalar", "2d-vector"])
def test_field_csv_bytes_match_savetxt(tmp_path, grid, kind, header):
    shape = grid.shape + ((grid.dim,) if kind is VectorField else ())
    values = np.random.default_rng(3).standard_normal(shape)
    values.ravel()[:4] = [-0.0, 5e-324, 1e300, 1 / 3]
    field = kind(grid, values)
    write_field_csv(field, tmp_path / "field.csv")
    rows = np.hstack([grid.coords().reshape(grid.num_nodes, grid.dim),
                      values.reshape(grid.num_nodes, -1)])
    np.savetxt(tmp_path / "ref.csv", rows, delimiter=",", header=header, comments="",
               fmt="%.17g")
    written = (tmp_path / "field.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    cells = [c for line in written.splitlines()[1:] for c in line.split(b",")[grid.dim:]]
    assert cells[:4] == [b"-0", b"4.9406564584124654e-324", b"1.0000000000000001e+300",
                         b"0.33333333333333331"]
    back = read_field_csv(tmp_path / "field.csv", grid)
    assert np.array_equal(back.values, field.values)
    assert np.signbit(back.values.ravel()[0])


def test_field_csv_rejects_wrong_grid(tmp_path):
    g = Grid.line(0.0, 1.0, 9)
    u = ScalarField.constant(g, 1.0)
    p = tmp_path / "u.csv"
    write_field_csv(u, p)
    with pytest.raises(ValueError, match="rows"):
        read_field_csv(p, Grid.line(0.0, 1.0, 11))
    with pytest.raises(ValueError, match="coordinates"):
        read_field_csv(p, Grid.line(0.0, 2.0, 9))
    # a NaN coordinate fails every comparison, and must fail the check too
    lines = p.read_text().splitlines()
    lines[3] = "nan," + lines[3].split(",", 1)[1]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="coordinates"):
        read_field_csv(p, g)
