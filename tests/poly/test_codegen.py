"""Unit tests for scanner AST construction and code generation."""

import pytest

from repro.errors import PolyhedralError
from repro.poly import parse_basic_set, parse_set
from repro.poly.ast import AFor, AGuard, ASeq, EVar, EConst, EMax, EMin, ECDiv, EFDiv, EMul, EAdd
from repro.poly.astbuild import build_scan_ast, build_scan_ast_union
from repro.poly.codegen import compile_scanner, render_scanner_source
from tests.poly.scan_oracle import eval_expr, interpreted_scanner


def scan_all(scanner, params):
    out = []
    scanner(tuple(params), lambda row, lo, hi: out.append((row, lo, hi)))
    return out


def points_of(ranges):
    pts = set()
    for row, lo, hi in ranges:
        for v in range(lo, hi + 1):
            pts.add(row + (v,))
    return pts


class TestScannerCorrectness:
    def test_box_2d(self):
        s = parse_basic_set("[n] -> { [y, x] : 0 <= y < 3 and 0 <= x < n }")
        scanner = compile_scanner(s, ["n"])
        assert scan_all(scanner, [4]) == [((y,), 0, 3) for y in range(3)]

    def test_matches_enumerate_points(self):
        s = parse_basic_set("[n] -> { [y, x] : 0 <= y <= x and x < n }")
        scanner = compile_scanner(s, ["n"])
        got = points_of(scan_all(scanner, [6]))
        want = set(s.fix("n", 6).enumerate_points())
        assert got == want

    def test_triangular_dependence(self):
        s = parse_basic_set("{ [y, x] : 0 <= y < 5 and y <= x <= 2*y }")
        scanner = compile_scanner(s, [])
        assert scan_all(scanner, []) == [((y,), y, 2 * y) for y in range(5)]

    def test_empty_rows_skipped(self):
        s = parse_basic_set("[a] -> { [y, x] : 0 <= y < 3 and a <= x < 2 }")
        scanner = compile_scanner(s, ["a"])
        assert scan_all(scanner, [5]) == []  # a=5 -> empty x range

    def test_one_dimensional(self):
        s = parse_basic_set("[lo, hi] -> { [i] : lo <= i < hi }")
        scanner = compile_scanner(s, ["lo", "hi"])
        assert scan_all(scanner, [2, 9]) == [((), 2, 8)]

    def test_stride_equality(self):
        s = parse_basic_set("{ [y, x] : 3*x = y and 0 <= y <= 9 }")
        scanner = compile_scanner(s, [])
        assert scan_all(scanner, []) == [((y,), y // 3, y // 3) for y in (0, 3, 6, 9)]

    def test_union_scans_each_piece(self):
        u = parse_set("{ [y, x] : y = 0 and 0 <= x < 4 ; [y, x] : y = 2 and 1 <= x < 3 }")
        scanner = compile_scanner(u, [])
        assert sorted(scan_all(scanner, [])) == [((0,), 0, 3), ((2,), 1, 2)]

    def test_parameter_only_guard(self):
        # The row y = 0 exists only when p <= 0 (cf. stencil boundary pieces).
        s = parse_basic_set("[p] -> { [y, x] : y = 0 and p <= 0 and 0 <= x < 4 }")
        scanner = compile_scanner(s, ["p"])
        assert scan_all(scanner, [0]) == [((0,), 0, 3)]
        assert scan_all(scanner, [1]) == []

    def test_unbounded_raises_at_build(self):
        s = parse_basic_set("{ [x] : x >= 0 }")
        with pytest.raises(PolyhedralError):
            compile_scanner(s, [])


class TestInterpretedEquivalence:
    @pytest.mark.parametrize(
        "text,params,values",
        [
            ("[n] -> { [y, x] : 0 <= y <= x and x < n }", ["n"], [7]),
            ("[a, b] -> { [i] : a <= i < b }", ["a", "b"], [3, 11]),
            ("{ [y, x] : 0 <= y < 4 and y <= x <= y + 2 }", [], []),
        ],
    )
    def test_compiled_equals_interpreted(self, text, params, values):
        s = parse_basic_set(text)
        compiled = scan_all(compile_scanner(s, params), values)
        interp = scan_all(interpreted_scanner(s, params), values)
        assert compiled == interp


class TestSourceRendering:
    def test_source_is_valid_python(self):
        s = parse_basic_set("[n] -> { [y, x] : 0 <= y < n and y <= x < n }")
        scanner = compile_scanner(s, ["n"])
        src = scanner.__poly_source__
        compile(src, "<test>", "exec")  # must not raise
        assert "for " in src and "_emit" in src

    def test_dotted_names_sanitized(self):
        s = parse_basic_set("[blockDim.x] -> { [a0] : 0 <= a0 < blockDim.x }")
        scanner = compile_scanner(s, ["blockDim.x"])
        assert scan_all(scanner, [3]) == [((), 0, 2)]


class TestAstNodes:
    def test_eval_expr_all_ops(self):
        env = {"x": 7}
        assert eval_expr(EAdd((EConst(1), EVar("x"))), env) == 8
        assert eval_expr(EMul(-2, EVar("x")), env) == -14
        assert eval_expr(EFDiv(EVar("x"), 2), env) == 3
        assert eval_expr(ECDiv(EVar("x"), 2), env) == 4
        assert eval_expr(EMin((EConst(3), EVar("x"))), env) == 3
        assert eval_expr(EMax((EConst(3), EVar("x"))), env) == 7

    def test_guard_node_generated_for_param_constraint(self):
        s = parse_basic_set("[p] -> { [x] : 0 <= x < 4 and p >= 2 }")
        ast = build_scan_ast(s)
        assert isinstance(ast, AGuard)
