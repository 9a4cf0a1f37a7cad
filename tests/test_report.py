"""CSV emission: ``report.csv_lines`` on float arrays, and on iterables of
them, against the per-cell formatter it replaced, on the rows of all three
CSV writers.  JSON emission: ``report.json_dumps`` against the writer it
replaced, on random nested values."""

import random
import tracemalloc

import numpy as np
import pytest

from hfstab import hill, report
from hfstab.collisions import secant_curve_data, trace_first_collision_vs_depth
from hfstab.models import bifurcation_speed, make_model
from hfstab.report import csv_blocks, csv_lines, format_float, json_dumps
from report_oracles import former_json_dumps

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


def assert_same_csv(got, expected):
    """Compare two CSV texts line by line and name the first line that
    differs: pytest's diff of two multi-kilorow texts runs for minutes."""
    got_lines, expected_lines = got.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got_lines, expected_lines)):
        if a != b:
            pytest.fail(f"line {i + 1} differs: {a!r} != {b!r}")
    if len(got_lines) != len(expected_lines):
        pytest.fail(f"{len(got_lines)} lines, expected {len(expected_lines)}")
    if got != expected:
        pytest.fail("the texts differ in their line ends")


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
    blocks = list(hill.spectrum_to_csv_rows(spectrum))
    assert [block.shape for block in blocks] == [(4 * 13, 3)]
    assert_same_csv(csv_lines(header, blocks),
                    per_cell_csv_lines(header, per_point_rows(spectrum)))


def zero_spectrum(slices, M):
    model = make_model("fifth-order-scalar")
    c = bifurcation_speed(model, 1, 1)
    return hill.full_spectrum(model, hill.zero_wave(model, c),
                              hill.MuGridSpec(count=slices), M)


def test_spectrum_blocks_hold_whole_slices():
    # 13 rows a slice: a block holds as many whole slices as fit in
    # _BLOCK rows, and the last block the rest
    s = zero_spectrum(700, 6)
    per = report._BLOCK // 13
    full, rest = divmod(700, per)
    assert rest
    header = ["mu", "re_lambda", "im_lambda"]
    blocks = list(hill.spectrum_to_csv_rows(s))
    assert [len(block) for block in blocks] == [per * 13] * full + [rest * 13]
    assert_same_csv(csv_lines(header, blocks),
                    per_cell_csv_lines(header, per_point_rows(s)))


def test_a_slice_longer_than_a_block_is_one_block(monkeypatch):
    # each block is one slice of 13 rows, which csv_blocks formats 5 at a time
    s = zero_spectrum(6, 6)
    monkeypatch.setattr(report, "_BLOCK", 5)
    header = ["mu", "re_lambda", "im_lambda"]
    blocks = list(hill.spectrum_to_csv_rows(s))
    assert [len(block) for block in blocks] == [13] * 6
    assert len(list(csv_blocks(header, blocks))) == 1 + 6 * 3
    assert_same_csv(csv_lines(header, blocks),
                    per_cell_csv_lines(header, per_point_rows(s)))


@pytest.mark.parametrize("slices", [1000, 10_000])
def test_streamed_spectrum_holds_a_few_blocks_whatever_the_slice_count(
        slices):
    # the rows are read from the spectrum a block at a time: no table of
    # every slice's rows is built beside ``values``
    s = zero_spectrum(slices, 6)
    longest = 0
    tracemalloc.start()
    try:
        for block in csv_blocks(["mu", "re_lambda", "im_lambda"],
                                hill.spectrum_to_csv_rows(s)):
            longest = max(longest, len(block))
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert longest > 24 * report._BLOCK
    assert peak <= 6 * longest


@pytest.mark.parametrize("name, M", [("fifth-order-scalar", 64),
                                     ("boussinesq-whitham", 32)])
def test_emitting_a_spectrum_holds_less_than_one_hill_stack(name, M):
    # the benchmark's matrix sizes: emission must not raise a run's peak
    # memory above what each solving thread's stack of Hill matrices sets
    model = make_model(name)
    c = bifurcation_speed(model, 1, 1)
    s = hill.full_spectrum(model, hill.zero_wave(model, c),
                           hill.MuGridSpec(count=400), M)
    n = s.values.shape[1]
    assert n in (129, 130)
    tracemalloc.start()
    try:
        for block in csv_blocks(["mu", "re_lambda", "im_lambda"],
                                hill.spectrum_to_csv_rows(s)):
            del block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < hill._stack_size(n) * n ** 2 * 8


def test_edge_floats_in_an_array():
    rows = np.array(EDGE).reshape(-1, 2)
    assert_same_csv(csv_lines(["a", "b"], rows), per_cell_csv_lines(
        ["a", "b"], [tuple(r) for r in rows.tolist()]))
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
    table = np.column_stack([np.arange(-3, size - 3), repeated, distinct])
    assert_same_csv(csv_lines(header, table), per_cell_csv_lines(header, rows))
    assert_same_csv(csv_lines(header[1:], table[:, 1:]), per_cell_csv_lines(
        header[1:], [tuple(r) for r in table[:, 1:].tolist()]))


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
    assert longest > 24 * report._BLOCK
    assert peak <= 6 * longest


def test_a_leading_run_across_a_block_boundary():
    # one mu on rows _BLOCK - 5 .. _BLOCK + 4, so its run is cut by a block
    mus = np.repeat([0.1, 0.2, 0.30000000000000004],
                    [report._BLOCK - 5, 10, 7])
    table = np.column_stack([mus, np.arange(mus.size) * 0.5])
    rows = [tuple(r) for r in table.tolist()]
    expected = per_cell_csv_lines(["mu", "x"], rows)
    assert_same_csv(csv_lines(["mu", "x"], table), expected)
    # the same run also cut where one array of an iterable ends
    parts = [table[:report._BLOCK - 2], table[report._BLOCK - 2:]]
    assert_same_csv(csv_lines(["mu", "x"], parts), expected)


def test_negative_zero_beside_zero_in_the_leading_column():
    rows = [(0.0, 1.0), (-0.0, 2.0), (-0.0, 3.0), (0.0, 4.0), (-0.0, 5.0)]
    text = csv_lines(["mu", "x"], np.array(rows))
    assert_same_csv(text, per_cell_csv_lines(["mu", "x"], rows))
    assert [line.split(",")[0] for line in text.splitlines()[1:]] == \
        ["0", "-0", "-0", "0", "-0"]
    assert_same_csv(csv_lines(["mu", "x"], [np.array(rows[:2]),
                                            np.array(rows[2:])]), text)


def test_curves_rows_keep_integer_cells():
    model = make_model("gkdv")
    c = bifurcation_speed(model, 1, 1)
    header = ["l", "n", "k", "Omega"]
    table = secant_curve_data(model, c, range(-3, 4),
                              np.linspace(-0.5, 0.5, 9))
    edge = [(1, -2, x, y) for x, y in zip(EDGE[::2], EDGE[1::2])]
    table = np.vstack([table, edge])
    # the oracle sees l and n as the integers the float cells must print as
    rows = [(int(l), int(n), k, om) for l, n, k, om in table.tolist()]
    text = csv_lines(header, table)
    assert_same_csv(text, per_cell_csv_lines(header, rows))
    assert text.splitlines()[1].startswith("1,-3,-0.5,")


def test_depth_rows():
    header = ["h", "im_lambda"]
    table = np.vstack([trace_first_collision_vs_depth(1.0, [0.5, 1.0, 4.0]),
                       np.reshape(EDGE, (-1, 2))])
    assert_same_csv(csv_lines(header, table), per_cell_csv_lines(
        header, [tuple(r) for r in table.tolist()]))


@pytest.mark.parametrize("rows", [[], np.empty((0, 3))])
def test_empty_rows_give_the_header_only(rows):
    assert_same_csv(csv_lines(["mu", "re_lambda", "im_lambda"], rows),
                    "mu,re_lambda,im_lambda\n")


def test_empty_spectrum_has_no_rows():
    assert list(hill.spectrum_to_csv_rows(hill.SpectrumSet())) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1, 2])
def test_non_finite_float_raises(bad, column):
    rows = [[0.5, -0.25, 1.0], [0.1, 0.2, 0.3]]
    rows[1][column] = bad
    with pytest.raises(ValueError) as expected:
        per_cell_csv_lines(["a", "b", "c"], rows)
    table = np.array(rows)
    for table in (table, [table[:1], table[1:]]):
        with pytest.raises(ValueError) as got:
            csv_lines(["a", "b", "c"], table)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float_raises_beside_integer_cells(bad):
    table = np.array([(1, 2, 0.5, 0.25), (1, 3, 0.5, bad)])
    with pytest.raises(ValueError, match="non-finite"):
        csv_lines(["l", "n", "k", "Omega"], table)


_SCALARS = [None, True, False, 0, -7, 2 ** 70, -2 ** 70, 0.0, -0.0, 1e-300,
            5e-324, -1.5e308, 0.1, 1 / 3, "", "mu", 'a "quoted" \\ word',
            "\u00e9\u03bb\u4e2d \U0001f600", "tab\tand\nnewline", "\x00\x1f"]


def _random_value(rng: random.Random, depth: int):
    """A scalar, or a list, tuple or dict of up to four random values."""
    kind = rng.randrange(5 if depth else 2)
    if kind == 0:
        return rng.choice(_SCALARS)
    if kind == 1:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-300, 300)
    items = [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 2:
        return items
    if kind == 3:
        return tuple(items)
    keys = [rng.choice(["n1", "mu", "λ", 'k"', 3, 2.5, None, True])
            for _ in items]
    return dict(zip(keys, items))


def test_json_is_written_as_by_the_former_writer():
    rng = random.Random(35)
    for _ in range(20_000):
        obj = _random_value(rng, rng.randint(0, 4))
        assert json_dumps(obj) == former_json_dumps(obj), repr(obj)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_json_value_raises(bad):
    with pytest.raises(ValueError, match="non-finite"):
        json_dumps({"a": [1, bad]})
