"""Recursive-descent parser for coefficient expressions.

The grammar covers what coefficient functions in affine decompositions
need: numeric literals, parameter variables mu1..muP, the four arithmetic
operators with unary minus, and the functions cos, sin, exp, sqrt.  Parse
errors report the byte offset and the expected token set.  A :class:`Theta`
is the coefficient map mu -> R^Q of Q parsed expressions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["ParseError", "EvaluationError", "ThetaExpression", "Theta",
           "parse_theta", "compile_theta", "probe_expressions"]

PROBE_COUNT = 100   # random domain points probe_expressions evaluates at
PROBE_SEED = 0

_FUNCTIONS = {"cos": math.cos, "sin": math.sin, "exp": math.exp,
              "sqrt": math.sqrt}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/()])
""", re.VERBOSE)


class ParseError(ValueError):
    """Syntax error with byte offset and the tokens that would have fit."""

    def __init__(self, message, offset, expected=()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)
        self.offset = offset
        self.expected = tuple(sorted(expected))


class EvaluationError(ArithmeticError):
    """Domain error during evaluation (division by zero, sqrt of negative, a
    function that overflows or is given inf, a result that is not finite)."""


@dataclass(frozen=True)
class _Num:
    value: float
    offset: int


@dataclass(frozen=True)
class _Var:
    index: int  # zero-based parameter index
    offset: int


@dataclass(frozen=True)
class _Neg:
    arg: object
    offset: int


@dataclass(frozen=True)
class _BinOp:
    op: str
    left: object
    right: object
    offset: int


@dataclass(frozen=True)
class _Call:
    name: str
    arg: object
    offset: int


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos,
                             expected={"number", "identifier", "operator"})
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, n_params=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n_params = n_params

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"unexpected token {val!r}" if kind != "end"
                             else "unexpected end of input", off,
                             expected={repr(op)})
        return self.advance()

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing token {val!r}", off,
                             expected={"end of input", "'+'", "'-'", "'*'", "'/'"})
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = _BinOp(val, node, self.term(), off)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = _BinOp(val, node, self.unary(), off)
            else:
                return node

    def unary(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return _Neg(self.unary(), off)
        return self.primary()

    def primary(self):
        kind, val, off = self.advance()
        if kind == "num":
            return _Num(float(val), off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _Call(val, arg, off)
            var = re.fullmatch(r"mu([1-9]\d*)", val)
            if var:
                index = int(var.group(1)) - 1
                if self.n_params is not None and index >= self.n_params:
                    raise ParseError(
                        f"variable {val!r} exceeds parameter count "
                        f"{self.n_params}", off,
                        expected={f"mu1..mu{self.n_params}"})
                return _Var(index, off)
            raise ParseError(f"unknown identifier {val!r}", off,
                             expected={"mu<k>", *sorted(_FUNCTIONS)})
        raise ParseError("unexpected end of input" if kind == "end"
                         else f"unexpected token {val!r}", off,
                         expected={"number", "identifier", "'('", "'-'"})


def _eval(node, mu):
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return float(mu[node.index])
    if isinstance(node, _Neg):
        return -_eval(node.arg, mu)
    if isinstance(node, _Call):
        x = _eval(node.arg, mu)
        if node.name == "sqrt" and x < 0.0:
            raise EvaluationError(
                f"sqrt of negative value {x!r} at offset {node.offset}")
        try:
            return _FUNCTIONS[node.name](x)
        except (OverflowError, ValueError) as exc:   # exp(1000), cos(inf)
            raise EvaluationError(f"{node.name} of {x!r} at offset "
                                  f"{node.offset}: {exc}") from exc
    left = _eval(node.left, mu)
    right = _eval(node.right, mu)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0.0:
        raise EvaluationError(f"division by zero at offset {node.offset}")
    return left / right


@dataclass(frozen=True)
class ThetaExpression:
    """Parsed coefficient expression over parameters mu1..muP."""

    source: str
    ast: object

    def evaluate(self, mu):
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        value = _eval(self.ast, mu)
        if not math.isfinite(value):
            raise EvaluationError(
                f"expression {self.source!r} is not finite at mu={mu}")
        return value


def parse_theta(text, n_params=None):
    """Parse an expression; raises ParseError with offset and expected set."""
    parser = _Parser(text, n_params=n_params)
    return ThetaExpression(source=text, ast=parser.parse())


@dataclass(frozen=True)
class Theta:
    """The coefficient map of the parsed expressions ``exprs``; entry k
    fails as an EvaluationError ``theta[k] = '<source>': <reason>``."""

    exprs: tuple

    @property
    def sources(self):
        return tuple(e.source for e in self.exprs)

    def __call__(self, mu):
        values = []
        for k, ex in enumerate(self.exprs):
            try:
                values.append(ex.evaluate(mu))
            except EvaluationError as exc:
                raise EvaluationError(
                    f"theta[{k}] = {ex.source!r}: {exc}") from exc
        return np.array(values)


def compile_theta(sources, n_params):
    """The :class:`Theta` of expression strings over mu1..mu<n_params>."""
    return Theta(tuple(parse_theta(s, n_params=n_params) for s in sources))


def probe_expressions(theta, domain):
    """Evaluate the :class:`Theta` ``theta`` at PROBE_COUNT random domain
    points (drawn with PROBE_SEED) to surface domain errors: the first
    EvaluationError, naming its entry, propagates."""
    rng = np.random.default_rng(PROBE_SEED)
    dom = np.asarray(domain, dtype=float)
    pts = rng.uniform(dom[:, 0], dom[:, 1], size=(PROBE_COUNT, dom.shape[0]))
    for mu in pts:
        theta(mu)
