"""Expression language for user-defined potentials F(t, x).

Sources are parsed by recursive descent into a small AST over the fixed
variables t1..tp, x1..xn, the constant pi, the operators + - * / ^ and the
functions sin, cos, exp, sqrt.  Precedence, tightest first: ^ (right
associative), unary minus, * /, + - (left associative).

One tree walker evaluates F alone or, forward-mode on dual numbers whose
payloads are numpy arrays, F and the exact gradient grad_x F in the same
pass over a grid batch.  Only x-derivatives are propagated; t enters as a
constant for each evaluation, and tangents that are structurally zero
(constants, t-only subtrees) are skipped.  Every failure mode is a positioned
ExprError: lexical, syntactic, unknown identifier, or a numeric domain
error pointing at the offending AST node.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .potential import GrowthEnvelope, Potential

__all__ = [
    "ExprError",
    "EvalDomainError",
    "Token",
    "tokenize",
    "Const",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "parse",
    "Dual",
    "eval_dual",
    "eval_value",
    "pretty",
    "line_col",
    "ExpressionPotential",
]

FUNCTIONS = ("sin", "cos", "exp", "sqrt")

# ASCII digits only: str.isdigit also accepts superscripts and other
# scripts' digits, which float() and int() then reject or silently convert
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
_VARIABLE = re.compile(r"[tx][1-9][0-9]*")


class ExprError(ValueError):
    """Expression failure with a byte offset into the source."""

    def __init__(self, message: str, pos: int):
        self.message = message
        self.pos = pos
        super().__init__(f"{message} (offset {pos})")


class EvalDomainError(ExprError):
    """Numeric domain failure at an AST node; ``element`` is the flat index
    of the first offending batch element, if the evaluation was batched."""

    def __init__(self, message: str, pos: int, element: int | None = None):
        super().__init__(message, pos)
        self.element = element


def line_col(source: str, pos: int) -> tuple[int, int]:
    """1-based (line, column) of a byte offset."""
    prefix = source[:pos]
    return prefix.count("\n") + 1, pos - prefix.rfind("\n")


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | lparen | rparen | comma | end
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    """Full tokenization, or an ExprError carrying the offending offset."""
    tokens: list[Token] = []
    i = 0
    size = len(source)
    while i < size:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        number = _NUMBER.match(source, i)
        if number:
            text = number.group()
            if not math.isfinite(float(text)):
                raise ExprError(f"number literal {text!r} overflows", i)
            tokens.append(Token("number", text, i))
            i = number.end()
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < size and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], i))
            i = j
            continue
        if c in "+-*/^":
            tokens.append(Token("op", c, i))
        elif c == "(":
            tokens.append(Token("lparen", c, i))
        elif c == ")":
            tokens.append(Token("rparen", c, i))
        elif c == ",":
            tokens.append(Token("comma", c, i))
        else:
            raise ExprError(f"illegal character {c!r}", i)
        i += 1
    tokens.append(Token("end", "", size))
    return tokens


@dataclass(frozen=True)
class Const:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    kind: str  # "t" or "x"
    index: int  # 0-based
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"
    pos: int = field(default=0, compare=False)


Node = Const | Var | Neg | BinOp | Call


class _Parser:
    def __init__(self, tokens: list[Token], p: int, n: int):
        self.tokens = tokens
        self.i = 0
        self.p = p
        self.n = n

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        if self.cur.kind != kind:
            got = self.cur.text or "end of input"
            raise ExprError(f"expected {what}, found {got!r}", self.cur.pos)
        return self.advance()

    def expression(self) -> Node:
        node = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            tok = self.advance()
            node = BinOp(tok.text, node, self.term(), pos=tok.pos)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            tok = self.advance()
            node = BinOp(tok.text, node, self.unary(), pos=tok.pos)
        return node

    def unary(self) -> Node:
        if self.cur.kind == "op" and self.cur.text == "-":
            tok = self.advance()
            return Neg(self.unary(), pos=tok.pos)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            tok = self.advance()
            # exponent re-enters at unary level: right associative, and it
            # admits a leading minus (x^-2)
            return BinOp("^", base, self.unary(), pos=tok.pos)
        return base

    def atom(self) -> Node:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text), pos=tok.pos)
        if tok.kind == "lparen":
            self.advance()
            node = self.expression()
            self.expect("rparen", "')'")
            return node
        if tok.kind == "ident":
            self.advance()
            return self.identifier(tok)
        got = tok.text or "end of input"
        raise ExprError(f"expected a value, found {got!r}", tok.pos)

    def identifier(self, tok: Token) -> Node:
        name = tok.text
        if name == "pi":
            return Const(math.pi, pos=tok.pos)
        if name in FUNCTIONS:
            self.expect("lparen", f"'(' after {name}")
            arg = self.expression()
            if self.cur.kind == "comma":
                raise ExprError(f"{name} takes a single argument", self.cur.pos)
            self.expect("rparen", "')'")
            return Call(name, arg, pos=tok.pos)
        if _VARIABLE.fullmatch(name):
            index = int(name[1:])
            bound = self.p if name[0] == "t" else self.n
            if index > bound:
                raise ExprError(
                    f"variable {name!r} exceeds declared "
                    f"{'t1..t%d' % self.p if name[0] == 't' else 'x1..x%d' % self.n}",
                    tok.pos,
                )
            return Var(name[0], index - 1, pos=tok.pos)
        raise ExprError(f"unknown identifier {name!r}", tok.pos)


def parse(tokens: list[Token] | str, p: int, n: int) -> Node:
    """Parse a token stream (or source text) against p time and n space
    variables.  Raises ExprError with a position on any malformed input."""
    if isinstance(tokens, str):
        tokens = tokenize(tokens)
    parser = _Parser(tokens, p, n)
    node = parser.expression()
    if parser.cur.kind != "end":
        raise ExprError(f"unexpected {parser.cur.text!r} after expression", parser.cur.pos)
    return node


class Dual:
    """Forward-mode pair: ``value`` with shape (...) and ``partials`` with
    shape (..., n), the derivatives with respect to x1..xn."""

    __slots__ = ("value", "partials")

    def __init__(self, value: np.ndarray, partials: np.ndarray):
        self.value = value
        self.partials = partials


def _scale(tangent, slope):
    """Tangent times a value-shaped slope; None (structurally zero) stays None."""
    return None if tangent is None else tangent * np.asarray(slope)[..., np.newaxis]


def _sum(da, db, subtract: bool = False):
    """da + db, or da - db, where None is a structurally zero tangent."""
    if db is None:
        return da
    if da is None:
        return -db if subtract else db
    return da - db if subtract else da + db


class _Evaluator:
    """One tree walker for F and, with partials, grad_x F.

    A node evaluates to a pair (value, tangent).  Values keep the shape of
    what they depend on: a constant is a float, t_i is t[..., i] and x_i is
    x[..., i], so constant and t-only subtrees never reach the batch shape.
    A tangent is None when it is structurally zero (always, without
    partials), else an array broadcastable to (*value.shape, n).  A domain
    error broadcasts its mask to the batch, to report the flat index of the
    first offending batch element.
    """

    def __init__(self, t: np.ndarray, x: np.ndarray, with_partials: bool):
        self.t = np.asarray(t, dtype=np.float64)
        self.x = np.asarray(x, dtype=np.float64)
        self.batch = np.broadcast_shapes(self.t.shape[:-1], self.x.shape[:-1])
        self.eye = np.eye(self.x.shape[-1]) if with_partials else None

    def check(self, bad, message: str, node: Node) -> None:
        if np.any(bad):
            element = int(np.flatnonzero(np.broadcast_to(bad, self.batch))[0])
            raise EvalDomainError(message, node.pos, element)

    def full(self, value) -> np.ndarray:
        if isinstance(value, np.ndarray) and value.shape == self.batch:
            return value
        return np.broadcast_to(value, self.batch)

    def run(self, node: Node):
        return self.RULES[type(node)](self, node)

    def const(self, node: Const):
        return float(node.value), None

    def var(self, node: Var):
        if node.kind == "t":
            return self.t[..., node.index], None
        return self.x[..., node.index], None if self.eye is None else self.eye[node.index]

    def neg(self, node: Neg):
        a, da = self.run(node.arg)
        return -a, None if da is None else -da

    def exp(self, node: Node, arg):
        with np.errstate(over="ignore"):
            value = np.exp(arg)
        self.check(~np.isfinite(value), "non-finite result", node)
        return value

    def call(self, node: Call):
        a, da = self.run(node.arg)
        if node.fn == "sin":
            return np.sin(a), None if da is None else _scale(da, np.cos(a))
        if node.fn == "cos":
            return np.cos(a), None if da is None else _scale(da, -np.sin(a))
        if node.fn == "exp":
            value = self.exp(node, a)
            return value, _scale(da, value)
        # sqrt
        self.check(a < 0.0, "sqrt of a negative value", node)
        value = np.sqrt(a)
        if da is None:
            return value, None
        zero = a == 0.0
        if np.any(zero) and np.any(np.broadcast_to(da, np.shape(a) + da.shape[-1:])[zero] != 0.0):
            self.check(zero, "sqrt is not differentiable at zero", node)
        with np.errstate(divide="ignore"):
            slope = np.where(zero, 0.0, 0.5 / np.where(zero, 1.0, value))
        return value, _scale(da, slope)

    @staticmethod
    def product(a, da, b, db):
        return a * b, _sum(_scale(da, b), _scale(db, a))

    def binop(self, node: BinOp):
        if node.op == "^":
            return self.power(node)
        a, da = self.run(node.left)
        b, db = self.run(node.right)
        if node.op == "+":
            return a + b, _sum(da, db)
        if node.op == "-":
            return a - b, _sum(da, db, subtract=True)
        if node.op == "*":
            return self.product(a, da, b, db)
        # division
        self.check(b == 0.0, "division by zero", node)
        numerator = _sum(_scale(da, b), _scale(db, a), subtract=True)
        return a / b, None if numerator is None else numerator / np.square(b)[..., np.newaxis]

    @staticmethod
    def _const_int(node: Node) -> int | None:
        sign = 1
        while isinstance(node, Neg):
            sign = -sign
            node = node.arg
        if isinstance(node, Const) and float(node.value).is_integer() and abs(node.value) <= 128:
            return sign * int(node.value)
        return None

    def power(self, node: BinOp):
        base, dbase = self.run(node.left)
        k = self._const_int(node.right)
        if k is not None:
            return self.int_power(node, base, dbase, k)
        expo, dexpo = self.run(node.right)
        self.check(base <= 0.0, "'^' with a non-integer exponent needs a positive base", node)
        # a^b = exp(b log a)
        log_base = np.log(base)
        dlog = None if dbase is None else _scale(dbase, 1.0 / base)
        inner, dinner = self.product(expo, dexpo, log_base, dlog)
        value = self.exp(node, inner)
        return value, _scale(dinner, value)

    def int_power(self, node: BinOp, base, dbase, k: int):
        if k == 0:
            return 1.0, None
        if k < 0:
            self.check(base == 0.0, "zero base with a negative exponent", node)
        out, dout = base, dbase
        for _ in range(abs(k) - 1):
            out, dout = self.product(out, dout, base, dbase)
        if k > 0:
            return out, dout
        value = np.divide(1.0, out)
        return value, None if dout is None else -dout * np.square(value)[..., np.newaxis]

    RULES = {Const: const, Var: var, Neg: neg, Call: call, BinOp: binop}


def eval_dual(ast: Node, t: np.ndarray, x: np.ndarray) -> Dual:
    """Evaluate F and grad_x F together.

    ``t`` has shape (..., p) and ``x`` shape (..., n); the result carries
    ``value`` with the broadcast batch shape and ``partials`` with a
    trailing component axis, zeros where F does not depend on x.
    """
    ev = _Evaluator(t, x, with_partials=True)
    value, tangent = ev.run(ast)
    shape = ev.batch + ev.eye.shape[-1:]
    if tangent is None:
        partials = np.zeros(shape)
    elif tangent.shape != shape:
        partials = np.broadcast_to(tangent, shape).copy()
    else:
        partials = tangent
    return Dual(ev.full(value), partials)


def eval_value(ast: Node, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate F only (cheaper than eval_dual inside line searches)."""
    ev = _Evaluator(t, x, with_partials=False)
    return ev.full(ev.run(ast)[0])


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def pretty(node: Node) -> str:
    """Minimal-parentheses rendering; reparsing yields an equal AST."""
    if isinstance(node, Const):
        return "pi" if node.value == math.pi else repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}{node.index + 1}"
    if isinstance(node, Call):
        return f"{node.fn}({pretty(node.arg)})"
    if isinstance(node, Neg):
        inner = pretty(node.arg)
        if _prec(node.arg) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    mine = _PREC[node.op]
    left, right = pretty(node.left), pretty(node.right)
    if node.op == "^":
        if _prec(node.left) <= mine:
            left = f"({left})"
        if _prec(node.right) < mine:
            right = f"({right})"
    else:
        if _prec(node.left) < mine:
            left = f"({left})"
        if _prec(node.right) <= mine:
            right = f"({right})"
    return f"{left} {node.op} {right}"


class ExpressionPotential(Potential):
    """Potential defined by an expression over t1..tp, x1..xn."""

    name = "expr"

    def __init__(
        self,
        source: str,
        p: int,
        n: int,
        periods=None,
        positivity_claim: bool = False,
        growth: GrowthEnvelope | None = None,
    ):
        self.source = source
        self.ast = parse(tokenize(source), p, n)
        self.p = p
        self.n = n
        self.periods = None if periods is None else np.atleast_1d(
            np.asarray(periods, dtype=np.float64)
        )
        if self.periods is not None and self.periods.size != n:
            raise ValueError(f"expected {n} periods, got {self.periods.size}")
        self.positivity_claim = positivity_claim
        self.growth = growth

    def value(self, t, x):
        return eval_value(self.ast, t, x)

    def gradient(self, t, x):
        return eval_dual(self.ast, t, x).partials
