"""A recursive-descent parser for (a useful subset of) isl notation.

Supported syntax::

    [n, m] -> { [y, x] : 0 <= y <= x and x < n }
    { [y, x] -> [y + 1, x + 3] }
    { [i] : 0 <= i < 10 ; [i] : 20 <= i < 30 }      # unions via ';'

Output tuples of maps may contain affine expressions (as in Figure 1 of the
paper); fresh output dimension names ``o0, o1, ...`` are invented and bound
via equalities. Comparison chains (``0 <= y <= x``) expand to conjunctions;
``<`` and ``>`` are integer-strict.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from repro.errors import ParseError
from repro.poly.affine import Aff
from repro.poly.basic_set import BasicSet
from repro.poly.constraint import Constraint
from repro.poly.map_ import BasicMap, Map
from repro.poly.set_ import Set
from repro.poly.space import Space

__all__ = ["parse_set", "parse_map", "parse_basic_set", "parse_basic_map"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9.]*)"
    r"|(?P<op>->|<=|>=|=|<|>|[\[\]{}(),:;+\-*]))"
)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {text[pos:pos + 10]!r}")
            break
        tokens.append(m.group(m.lastgroup))  # type: ignore[arg-type]
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.space: Optional[Space] = None

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def accept(self, tok: str) -> bool:
        if self.peek() == tok:
            self.pos += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse(self, *, want_map: bool) -> Tuple[Space, List[List[Constraint]]]:
        params: Tuple[str, ...] = ()
        if self.peek() == "[":
            params = tuple(self._name_list())
            self.expect("->")
        self.expect("{")
        if self.peek() == "}":  # empty set "{ }"
            self.next()
            space = (
                Space.map_space((), (), params) if want_map else Space.set_space((), params)
            )
            self.space = space
            return space, []
        disjuncts: List[List[Constraint]] = []
        space: Optional[Space] = None
        while True:
            dspace, cons = self._disjunct(params, want_map)
            if space is None:
                space = dspace
                self.space = space
            elif space != dspace:
                raise ParseError(f"disjunct space mismatch: {space} vs {dspace}")
            disjuncts.append(cons)
            if self.accept(";"):
                continue
            break
        self.expect("}")
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        assert space is not None
        return space, disjuncts

    def _name_list(self) -> List[str]:
        self.expect("[")
        names: List[str] = []
        if self.peek() != "]":
            while True:
                names.append(self.next())
                if not self.accept(","):
                    break
        self.expect("]")
        return names

    def _disjunct(self, params: Tuple[str, ...], want_map: bool):
        in_names = self._name_list()
        out_exprs: Optional[List] = None
        if self.accept("->"):
            out_exprs = self._expr_tuple_raw()
        elif want_map:
            raise ParseError("expected a map ('->' after the input tuple)")

        extra_cons: List[Constraint] = []
        if out_exprs is None:
            space = Space.set_space(in_names, params)
        else:
            # Each output element is either a fresh plain name or an affine
            # expression over inputs; expressions bind fresh names o0, o1, ...
            out_names: List[str] = []
            exprs: List[Optional[List[str]]] = []
            for i, raw in enumerate(out_exprs):
                if len(raw) == 1 and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9.]*", raw[0]) and raw[
                    0
                ] not in in_names and raw[0] not in params:
                    out_names.append(raw[0])
                    exprs.append(None)
                else:
                    out_names.append(f"o{i}")
                    exprs.append(raw)
            space = Space.map_space(in_names, out_names, params)
            for name, raw in zip(out_names, exprs):
                if raw is not None:
                    aff = _eval_tokens(raw, space)
                    extra_cons.append(Constraint.eq(Aff.var(space, name) - aff))
        self.space = space

        cons = list(extra_cons)
        if self.accept(":"):
            cons.extend(self._conditions(space))
        return space, cons

    def _expr_tuple_raw(self) -> List[List[str]]:
        """Collect the raw tokens of each element of a '[...]' tuple."""
        self.expect("[")
        elements: List[List[str]] = []
        if self.peek() != "]":
            current: List[str] = []
            depth = 0
            while True:
                tok = self.peek()
                if tok is None:
                    raise ParseError("unterminated tuple")
                if tok == "(":
                    depth += 1
                elif tok == ")":
                    depth -= 1
                elif depth == 0 and tok in (",", "]"):
                    elements.append(current)
                    current = []
                    self.next()
                    if tok == "]":
                        return elements
                    continue
                current.append(self.next())
        self.expect("]")
        return elements

    def _conditions(self, space: Space) -> List[Constraint]:
        cons: List[Constraint] = []
        while True:
            cons.extend(self._comparison_chain(space))
            if not self.accept("and"):
                break
        return cons

    def _comparison_chain(self, space: Space) -> List[Constraint]:
        exprs = [self._expr(space)]
        ops: List[str] = []
        while self.peek() in ("<=", "<", ">=", ">", "="):
            ops.append(self.next())
            exprs.append(self._expr(space))
        if not ops:
            raise ParseError("expected a comparison")
        cons: List[Constraint] = []
        for lhs, op, rhs in zip(exprs, ops, exprs[1:]):
            if op == "=":
                cons.append(Constraint.eq(lhs - rhs))
            elif op == "<=":
                cons.append(Constraint.ineq(rhs - lhs))
            elif op == "<":
                cons.append(Constraint.ineq(rhs - lhs - 1))
            elif op == ">=":
                cons.append(Constraint.ineq(lhs - rhs))
            else:  # ">"
                cons.append(Constraint.ineq(lhs - rhs - 1))
        return cons

    # -- affine expressions --------------------------------------------------

    def _expr(self, space: Space) -> Aff:
        aff = self._term(space)
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self._term(space)
            aff = aff + rhs if op == "+" else aff - rhs
        return aff

    def _term(self, space: Space) -> Aff:
        aff = self._factor(space)
        while self.peek() == "*":
            self.next()
            rhs = self._factor(space)
            aff = aff * rhs  # NonAffineError if both symbolic
        return aff

    def _factor(self, space: Space) -> Aff:
        tok = self.next()
        if tok == "-":
            return -self._factor(space)
        if tok == "(":
            aff = self._expr(space)
            self.expect(")")
            return aff
        if tok.isdigit():
            return Aff.const(space, int(tok))
        if space.has(tok):
            return Aff.var(space, tok)
        raise ParseError(f"unknown name {tok!r} (declare parameters as '[p] -> ...')")


def _eval_tokens(tokens: Sequence[str], space: Space) -> Aff:
    sub = _Parser.__new__(_Parser)
    sub.tokens = list(tokens)
    sub.pos = 0
    sub.space = space
    aff = sub._expr(space)
    if sub.peek() is not None:
        raise ParseError(f"trailing tokens in tuple expression: {tokens}")
    return aff


def parse_basic_set(text: str) -> BasicSet:
    """Parse a single-disjunct set; raises :class:`ParseError` on unions."""
    space, disjuncts = _Parser(text).parse(want_map=False)
    if len(disjuncts) != 1:
        raise ParseError(f"expected exactly one disjunct, got {len(disjuncts)}")
    return BasicSet(space, disjuncts[0])


def parse_set(text: str) -> Set:
    """Parse a set (possibly a union, possibly empty)."""
    space, disjuncts = _Parser(text).parse(want_map=False)
    return Set(space, [BasicSet(space, cons) for cons in disjuncts])


def parse_basic_map(text: str) -> BasicMap:
    """Parse a single-disjunct map."""
    space, disjuncts = _Parser(text).parse(want_map=True)
    if len(disjuncts) != 1:
        raise ParseError(f"expected exactly one disjunct, got {len(disjuncts)}")
    return BasicMap(space, disjuncts[0])


def parse_map(text: str) -> Map:
    """Parse a map (possibly a union, possibly empty)."""
    space, disjuncts = _Parser(text).parse(want_map=True)
    return Map(space, [BasicMap(space, cons) for cons in disjuncts])
