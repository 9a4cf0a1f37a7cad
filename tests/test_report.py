"""CSV emission: the array path of ``report.csv_lines`` against the per-cell
formatter it replaced, on the rows of all three CSV writers."""

import tracemalloc

import numpy as np
import pytest

from hfstab import hill, report
from hfstab.collisions import secant_curve_data, trace_first_collision_vs_depth
from hfstab.models import bifurcation_speed, make_model
from hfstab.report import csv_blocks, csv_lines, format_float

EDGE = [-0.0, 5e-324, 1e308, 0.1, -1e308, -5e-324, 1.0, 2.0 ** -1074 * 3]


def per_cell_csv_lines(header, rows):
    """Reference: the former emitter, one cell at a time."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, bool) or isinstance(v, int):
                cells.append(str(v))
            elif isinstance(v, float):
                cells.append(format_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def per_point_rows(spectrum):
    """Reference: the former ``spectrum_to_csv_rows``, one tuple per point."""
    return [(mu, lam.real, lam.imag) for mu, vals in spectrum.slices
            for lam in vals.tolist()]


@pytest.fixture(scope="module")
def spectrum():
    model = make_model("fifth-order-scalar")
    c = bifurcation_speed(model, 1, 1)
    return hill.full_spectrum(model, hill.zero_wave(model, c),
                              [-0.4, -0.0, 0.1, 0.45], 6)


def test_spectrum_rows(spectrum):
    header = ["mu", "re_lambda", "im_lambda"]
    rows = hill.spectrum_to_csv_rows(spectrum)
    assert rows.shape == (4 * 13, 3)
    assert csv_lines(header, rows) == per_cell_csv_lines(
        header, per_point_rows(spectrum))


def test_edge_floats_in_an_array():
    rows = np.array(EDGE).reshape(-1, 2)
    assert csv_lines(["a", "b"], rows) == per_cell_csv_lines(
        ["a", "b"], [tuple(r) for r in rows.tolist()])
    assert "-0,4.9406564584124654e-324" in csv_lines(["a", "b"], rows)


@pytest.mark.parametrize("size", [report._BLOCK - 1, report._BLOCK,
                                  report._BLOCK + 1, 2 * report._BLOCK + 3])
def test_rows_across_block_boundaries(size):
    # repeated values (each formatted once per block), -0.0 beside +0.0 in
    # one column, distinct values in another, and integer cells
    rng = np.random.default_rng(size)
    repeated = rng.choice(np.array(EDGE + [0.0]), size=size)
    distinct = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    assert np.signbit(repeated[repeated == 0.0]).any()
    assert not np.signbit(repeated[repeated == 0.0]).all()
    rows = list(zip(range(-3, size - 3), repeated.tolist(), distinct.tolist()))
    header = ["i", "repeated", "distinct"]
    assert csv_lines(header, rows) == per_cell_csv_lines(header, rows)
    table = np.column_stack([repeated, distinct])
    assert csv_lines(header[1:], table) == per_cell_csv_lines(
        header[1:], [tuple(r) for r in table.tolist()])


def spectrum_table(rows):
    """A spectrum-like table: mu repeats per slice of 65, Re is mostly 0."""
    rng = np.random.default_rng(7)
    n = 65
    mus = np.repeat(np.linspace(-0.5, 0.5, rows // n + 1), n)[:rows]
    re = np.where(rng.random(mus.size) < 0.01, rng.random(mus.size) * 1e-4, 0.0)
    return np.column_stack([mus, re, rng.standard_normal(mus.size) * 30.0])


def test_peak_memory_is_bounded_by_the_text():
    # the text is grown in place, never held beside a second copy of itself
    table = spectrum_table(100_000)
    tracemalloc.start()
    try:
        text = csv_lines(["mu", "re_lambda", "im_lambda"], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 100_001
    assert peak <= 1.5 * len(text)


@pytest.mark.parametrize("blocks", [3, 30])
def test_streamed_blocks_hold_a_few_blocks_whatever_the_row_count(blocks):
    table = spectrum_table(blocks * report._BLOCK)
    longest = 0
    tracemalloc.start()
    try:
        for block in csv_blocks(["mu", "re_lambda", "im_lambda"], table):
            longest = max(longest, len(block))
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert longest > 100_000
    assert peak <= 6 * longest


def test_a_leading_run_across_a_block_boundary():
    # one mu on rows _BLOCK - 5 .. _BLOCK + 4, so its run is cut by a block
    mus = np.repeat([0.1, 0.2, 0.30000000000000004],
                    [report._BLOCK - 5, 10, 7])
    table = np.column_stack([mus, np.arange(mus.size) * 0.5])
    rows = [tuple(r) for r in table.tolist()]
    assert csv_lines(["mu", "x"], table) == per_cell_csv_lines(["mu", "x"],
                                                               rows)
    assert csv_lines(["mu", "x"], rows) == per_cell_csv_lines(["mu", "x"],
                                                              rows)


def test_negative_zero_beside_zero_in_the_leading_column():
    rows = [(0.0, 1.0), (-0.0, 2.0), (-0.0, 3.0), (0.0, 4.0), (-0.0, 5.0)]
    text = csv_lines(["mu", "x"], np.array(rows))
    assert text == per_cell_csv_lines(["mu", "x"], rows)
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == \
        ["0", "-0", "-0", "0", "-0"]
    assert csv_lines(["mu", "x"], rows) == text


def test_true_beside_one_in_an_object_leading_column():
    rows = [(True, 0.5), (1, 0.5), (1, 0.25), (True, 0.1), (False, 0.0),
            (0, 0.0)]
    text = csv_lines(["b", "x"], rows)
    assert text == per_cell_csv_lines(["b", "x"], rows)
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == \
        ["True", "1", "1", "True", "False", "0"]


def test_percent_in_a_string_leading_cell():
    rows = [("a%sb", 0.5), ("a%sb", 0.25), ("100%", 1.0), ("%d%%", 2.0),
            ("%d%%", 3.0)]
    assert csv_lines(["s", "x"], rows) == per_cell_csv_lines(["s", "x"], rows)


def test_curves_rows_keep_integer_cells():
    model = make_model("gkdv")
    c = bifurcation_speed(model, 1, 1)
    header = ["l", "n", "k", "Omega"]
    rows = secant_curve_data(model, c, range(-3, 4), np.linspace(-0.5, 0.5, 9))
    rows += [(1, -2, x, y) for x, y in zip(EDGE[::2], EDGE[1::2])]
    text = csv_lines(header, rows)
    assert text == per_cell_csv_lines(header, rows)
    assert text.splitlines()[1].startswith("1,-3,-0.5,")


def test_depth_rows():
    header = ["h", "im_lambda"]
    rows = trace_first_collision_vs_depth(1.0, [0.5, 1.0, 4.0])
    rows += list(zip(EDGE[::2], EDGE[1::2]))
    assert csv_lines(header, rows) == per_cell_csv_lines(header, rows)


def test_bool_and_string_cells_use_str():
    rows = [(True, "x", 0.1, 3), (False, "y z", -0.0, -4)]
    text = csv_lines(["b", "s", "f", "i"], rows)
    assert text == per_cell_csv_lines(["b", "s", "f", "i"], rows)
    assert text.splitlines()[1] == "True,x,0.10000000000000001,3"


@pytest.mark.parametrize("rows", [[], np.empty((0, 3))])
def test_empty_rows_give_the_header_only(rows):
    assert csv_lines(["mu", "re_lambda", "im_lambda"], rows) == \
        "mu,re_lambda,im_lambda\n"


def test_empty_spectrum_has_no_rows():
    empty = hill.SpectrumSet()
    assert hill.spectrum_to_csv_rows(empty).shape == (0, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_non_finite_float_raises(bad, column):
    rows = [[0.5, -0.25, 1.0], [0.1, 0.2, 0.3]]
    rows[1][column] = bad
    with pytest.raises(ValueError) as expected:
        per_cell_csv_lines(["a", "b", "c"], rows)
    for table in (rows, np.array(rows)):
        with pytest.raises(ValueError) as got:
            csv_lines(["a", "b", "c"], table)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_raises_beside_integer_cells(bad):
    rows = [(1, 2, 0.5, 0.25), (1, 3, 0.5, bad)]
    with pytest.raises(ValueError, match="non-finite"):
        csv_lines(["l", "n", "k", "Omega"], rows)
