"""The compiled box/rows program against two row-by-row scanners.

:class:`repro.poly.vectorize.VectorProgram` unions boxes in closed form and
only materialises rows where it must; the scalar scanner
(:func:`repro.poly.codegen.compile_scanner`) and the AST interpreter of
:mod:`tests.poly.scan_oracle` emit every row, and
:func:`tests.poly.scan_oracle.merge_ranges` coalesces them. All three must
agree on the merged ranges *and* on the emission count, which drives
simulated host cost. Random unions of parametric boxes cover full- and
partial-width bands, single-column edge pieces, runs that touch across rows,
1-D arrays, triangular disjuncts, a 3-D nest and columns outside the row.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler.enumerators import Enumerator
from repro.compiler.strategy import Partition
from repro.cuda.dim3 import Dim3
from repro.poly import parse_set
from repro.poly.codegen import compile_scanner, prepare_scanner
from repro.poly.vectorize import vector_program
from repro.runtime.api import RunStats
from tests.poly.scan_oracle import interpreted_scanner, merge_ranges, row_scan, strides_of

PARAMS = ("p", "q", "r")
W_MAX = 7


def _check(text, bindings, shape):
    """The program against every emission of the compiled scalar scanner
    and of the interpreter, merged."""
    s = parse_set(text)
    program = vector_program(*prepare_scanner(s, PARAMS))
    oracles = (compile_scanner(s, PARAMS), interpreted_scanner(s, PARAMS))
    strides = strides_of(shape)
    for params in bindings:
        got = program.run(params, strides)
        for scanner in oracles:
            assert got == row_scan(scanner, params, strides), (text, params)
    return program.fn.__poly_source__


def _plus(name, k):
    return f"{name} + {k}" if k >= 0 else f"{name} - {-k}"


def _union(pieces, dims="y, x"):
    return "[p, q, r] -> { " + " ; ".join(f"[{dims}] : {c}" for c in pieces) + " }"


bindings = st.lists(
    st.tuples(st.integers(-3, 9), st.integers(-3, 9), st.integers(-3, 9)), min_size=1, max_size=6
)


@st.composite
def boxes(draw, width, cols=None):
    """One parametric box: rows between p/q offsets, columns fixed or on r."""
    if cols is None:
        cols = st.integers(0, width - 1)
    a, b = draw(cols), draw(cols)
    c0, c1 = min(a, b), max(a, b)
    lo = draw(st.sampled_from([f"{c0}", "r"]))
    return (
        f"{_plus('p', draw(st.integers(-2, 2)))} <= y <= {_plus('q', draw(st.integers(-2, 2)))} "
        f"and {lo} <= x <= {c1} and {c0} <= x"
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data(), width=st.integers(1, W_MAX), params=bindings)
def test_box_unions_inside_the_row(data, width, params):
    """Full- and partial-width bands, edge columns, runs touching across rows."""
    pieces = data.draw(st.lists(boxes(width), min_size=1, max_size=5))
    # A full-width band and single-column edge pieces, as a stencil has.
    if data.draw(st.booleans()):
        pieces.append(f"p <= y <= q and 0 <= x <= {width - 1}")
    if data.draw(st.booleans()):
        pieces.append(f"p - 1 <= y <= q + 1 and x = 0")
        pieces.append(f"p - 1 <= y <= q and x = {width - 1}")
    source = _check(_union(pieces), params, (12, width))
    assert "_boxes.append" in source and "_rows.append" not in source


@settings(max_examples=40, deadline=None)
@given(data=st.data(), width=st.integers(1, W_MAX), params=bindings)
def test_columns_outside_the_row(data, width, params):
    """Values that push columns past either edge materialise rows that call."""
    pieces = data.draw(
        st.lists(boxes(width, cols=st.integers(-3, width + 2)), min_size=1, max_size=4)
    )
    _check(_union(pieces), params, (12, width))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), width=st.integers(3, W_MAX), params=bindings)
def test_triangular_disjunct(data, width, params):
    """A row-dependent emit becomes numpy rows, merged with the boxes."""
    pieces = data.draw(st.lists(boxes(width), max_size=3))
    k = data.draw(st.integers(-2, 2))
    pieces.append(f"p <= y <= q and r <= x <= {_plus('y', k)} and 0 <= x <= {width - 1}")
    source = _check(_union(pieces), params, (12, width))
    assert "_np.arange" in source


@settings(max_examples=40, deadline=None)
@given(
    spans=st.lists(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.sampled_from(["p", "r", "0"])),
        min_size=1,
        max_size=4,
    ),
    params=bindings,
)
def test_one_dimensional(spans, params):
    pieces = [f"{_plus(lo, a)} <= i <= {_plus('q', b)}" for a, b, lo in spans]
    source = _check(_union(pieces, dims="i"), params, (16,))
    assert "_boxes.append((0, 0," in source


@settings(max_examples=25, deadline=None)
@given(data=st.data(), width=st.integers(1, 4), params=bindings)
def test_three_dimensional_nest(data, width, params):
    """Outer loops run as Python ``for``; the innermost loop as rows."""
    pieces = [
        f"p <= z <= q and {b} " for b in data.draw(st.lists(boxes(width), min_size=1, max_size=3))
    ]
    source = _check(_union(pieces, dims="z, y, x"), params, (5, 6, width))
    assert "for z in range(" in source and "_np.arange" in source


def test_runs_touching_across_rows_coalesce():
    # Row y's tail [5, 7] meets row y+1's head [0, 2]: one run per row pair.
    text = _union(["0 <= y <= 3 and 5 <= x <= 7", "1 <= y <= 4 and 0 <= x <= 2"])
    _check(text, [(0, 0, 0)], (6, 8))
    s = parse_set(text)
    ranges, count = vector_program(*prepare_scanner(s, PARAMS)).run((0, 0, 0), [8, 1])
    assert ranges == [(5, 11), (13, 19), (21, 27), (29, 35)]
    assert count == 8


def test_full_width_band_is_one_run_without_visiting_rows():
    text = _union(["p <= y <= q and 0 <= x <= 1023"])
    program = vector_program(*prepare_scanner(parse_set(text), PARAMS))
    # A million rows: the closed form returns one band and counts the rows.
    assert program.run((0, 999_999, 0), [1024, 1]) == ([(0, 1024 * 1_000_000)], 1_000_000)


def test_values_leaving_the_row_keep_the_program():
    """Columns leaving the row materialise rows per call: the same program
    serves every value."""
    s = parse_set("[n] -> { [y, x] : 0 <= y <= 3 and n <= x <= n + 2 }")
    enum = Enumerator(
        name="k__arg0__read",
        kernel_name="k",
        array="a",
        arg_index=0,
        mode="read",
        ndim=2,
        image=s,
        program=vector_program(*prepare_scanner(s, ("n",))),
        param_order=("n",),
        exact=True,
    )
    stats = RunStats()
    whole = Partition(z=(0, 1), y=(0, 1), x=(0, 1))
    block = grid = Dim3(x=1, y=1, z=1)
    for n, width in ((1, 8), (6, 8), (-2, 8), (2, 5)):
        ranges, count = enum.element_ranges(whole, block, grid, {"n": n}, (4, width), stats)
        want = merge_ranges([(y * width + n, y * width + n + 3) for y in range(4)])
        assert (ranges, count) == (want, 4)
    assert stats.enumerator_specialized == 4
