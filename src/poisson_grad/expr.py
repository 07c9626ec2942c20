"""Expression language for user-defined potentials F(t, x).

Sources are parsed by recursive descent into a small AST over the fixed
variables t1..tp, x1..xn, the constant pi, the operators + - * / ^ and the
functions sin, cos, exp, sqrt.  Precedence, tightest first: ^ (right
associative), unary minus, * /, + - (left associative).

Each AST compiles once into two straight-line programs over numpy arrays:
one evaluates F, the other F and, forward-mode, the exact gradient grad_x F,
both over a whole grid batch.  Only x-derivatives are propagated, one
component at a time; t enters as a constant for each evaluation, and
tangent components that are structurally zero (constants, t-only subtrees,
components a subtree does not depend on) cost nothing.  A program is
bound to t before it runs: the steps on constants and t alone run once, at
binding, so a potential bound to a grid's nodes computes them once per
solve, and one bound to a drawn sample once for all the sampled checks.
Every failure mode is a positioned ExprError: lexical, syntactic, unknown
identifier, or a numeric domain error pointing at the offending AST node.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .potential import BoundPotential, GrowthEnvelope, Potential

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
    "Program",
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


# ---------------------------------------------------------------------------
# compilation
#
# An AST compiles once into a straight-line program: a list of steps, each
# one numpy operation (or one domain check) on earlier registers.  Registers
# 0 and 1 hold t and x; each later register holds a constant or the
# result of one step.  The value+gradient program also carries each node's
# tangent, one register per x-component, or None when that component is
# structurally zero and so costs nothing.  Every value and tangent is
# computed by the same numpy operations, in the same order, as a recursive
# evaluation of the tree would; identical steps are emitted once, and the
# exact identities 1 * s = s and -(-a) = a save a step.  Compiling runs no
# step: binding a program to t (``_bind``) folds every step on constants
# and t alone.

_T, _X = 0, 1  # registers of t and x
_ONE = np.float64(1.0)  # seed tangent of x_i


class _Domain(Exception):
    """A failed domain check; the bound run turns it into a located EvalDomainError."""

    def __init__(self, bad, message: str, pos: int):
        super().__init__(message)
        self.bad = bad
        self.message = message
        self.pos = pos

    def located(self, t: np.ndarray, x: np.ndarray) -> EvalDomainError:
        batch = np.broadcast_shapes(t.shape[:-1], x.shape[:-1])
        element = int(np.flatnonzero(np.broadcast_to(self.bad, batch))[0])
        return EvalDomainError(self.message, self.pos, element)


def _any(mask) -> bool:
    return mask if mask is True or mask is False else bool(mask.any())


def _check(bad, message: str, pos: int) -> None:
    if _any(bad):
        raise _Domain(bad, message, pos)


# steps: the leading arguments are fixed at compile time, the others are registers

def _component(i: int, a):
    return a[..., i]


def _exp(pos: int, a):
    with np.errstate(over="ignore"):
        value = np.exp(a)
    finite = np.isfinite(value)
    if not finite.all():
        raise _Domain(~finite, "non-finite result", pos)
    return value


def _sqrt(pos: int, a):
    _check(a < 0.0, "sqrt of a negative value", pos)
    return np.sqrt(a)


def _sqrt_tangent_check(pos: int, a, d) -> None:
    """A tangent component that is nonzero where the sqrt argument is zero."""
    zero = a == 0.0
    if _any(zero) and _any(np.broadcast_to(d, np.shape(a))[zero] != 0.0):
        _check(zero, "sqrt is not differentiable at zero", pos)


def _sqrt_slope(a, value):
    # where a > 0 the square root is positive, so nothing divides by zero
    zero = a == 0.0
    return np.where(zero, 0.0, 0.5 / np.where(zero, 1.0, value))


def _quotient(pos: int, a, b):
    _check(b == 0.0, "division by zero", pos)
    return a / b


def _nonzero_base(pos: int, base) -> None:
    _check(base == 0.0, "zero base with a negative exponent", pos)


def _positive_base(pos: int, base) -> None:
    _check(base <= 0.0, "'^' with a non-integer exponent needs a positive base", pos)


def _const_int(node: Node) -> int | None:
    sign = 1
    while isinstance(node, Neg):
        sign = -sign
        node = node.arg
    if isinstance(node, Const) and float(node.value).is_integer() and abs(node.value) <= 128:
        return sign * int(node.value)
    return None


class _Builder:
    """Emits the steps of an expression and of its tangent in n components."""

    def __init__(self, n: int):
        self.n = n
        self.steps: list = [None, None]  # per register: (fn, fixed, args), None if known
        self.known: dict[int, object] = {}  # register -> constant
        self.memo: dict = {}
        self.one = self.constant(_ONE)

    def constant(self, value) -> int:
        # by bit pattern, so that 0.0 and -0.0 stay apart
        key = ("const", type(value), float(value).hex())
        if key not in self.memo:
            self.memo[key] = len(self.steps)
            self.known[len(self.steps)] = value
            self.steps.append(None)
        return self.memo[key]

    def emit(self, fn, *args: int, fixed: tuple = ()) -> int:
        """Register of the step ``fn(*fixed, *registers)``."""
        key = (fn, fixed, args)
        if key in self.memo:
            return self.memo[key]
        inner = self.steps[args[0]]
        if fn is operator.neg and inner and inner[0] is operator.neg:
            return inner[2][0]
        self.memo[key] = len(self.steps)
        self.steps.append((fn, fixed, args))
        return len(self.steps) - 1

    # tangents: None, or n registers with None for structurally zero components

    def scale(self, tangent, slope: int):
        if tangent is None:
            return None
        return [
            None if d is None else slope if d == self.one else self.emit(operator.mul, d, slope)
            for d in tangent
        ]

    def negate(self, tangent):
        if tangent is None:
            return None
        return [None if d is None else self.emit(operator.neg, d) for d in tangent]

    def sum(self, da, db, subtract: bool = False):
        if db is None:
            return da
        if da is None:
            return self.negate(db) if subtract else db
        op = operator.sub if subtract else operator.add
        return [
            a if b is None else (self.emit(operator.neg, b) if subtract else b) if a is None
            else self.emit(op, a, b)
            for a, b in zip(da, db)
        ]

    def product(self, a: int, da, b: int, db):
        return self.emit(operator.mul, a, b), self.sum(self.scale(da, b), self.scale(db, a))

    # nodes: (value register, tangent)

    def node(self, node: Node):
        return self.RULES[type(node)](self, node)

    def const(self, node: Const):
        return self.constant(float(node.value)), None

    def var(self, node: Var):
        reg = self.emit(_component, _T if node.kind == "t" else _X, fixed=(node.index,))
        if node.kind == "t":
            return reg, None
        seed = [None] * self.n
        seed[node.index] = self.one
        return reg, seed

    def neg(self, node: Neg):
        a, da = self.node(node.arg)
        return self.emit(operator.neg, a), self.negate(da)

    def call(self, node: Call):
        a, da = self.node(node.arg)
        pos = node.pos
        if node.fn == "sin":
            return self.emit(np.sin, a), da and self.scale(da, self.emit(np.cos, a))
        if node.fn == "cos":
            slope = da and self.emit(operator.neg, self.emit(np.sin, a))
            return self.emit(np.cos, a), self.scale(da, slope)
        if node.fn == "exp":
            value = self.emit(_exp, a, fixed=(pos,))
            return value, self.scale(da, value)
        value = self.emit(_sqrt, a, fixed=(pos,))
        if da is None:
            return value, None
        for d in da:
            if d is not None:
                self.emit(_sqrt_tangent_check, a, d, fixed=(pos,))
        return value, self.scale(da, self.emit(_sqrt_slope, a, value))

    def binop(self, node: BinOp):
        if node.op == "^":
            return self.power(node)
        a, da = self.node(node.left)
        b, db = self.node(node.right)
        if node.op == "+":
            return self.emit(operator.add, a, b), self.sum(da, db)
        if node.op == "-":
            return self.emit(operator.sub, a, b), self.sum(da, db, subtract=True)
        if node.op == "*":
            return self.product(a, da, b, db)
        value = self.emit(_quotient, a, b, fixed=(node.pos,))
        numerator = self.sum(self.scale(da, b), self.scale(db, a), subtract=True)
        if numerator is None:
            return value, None
        square = self.emit(np.square, b)
        return value, [
            None if d is None else self.emit(operator.truediv, d, square) for d in numerator
        ]

    def power(self, node: BinOp):
        base, dbase = self.node(node.left)
        k = _const_int(node.right)
        if k is not None:
            return self.int_power(node, base, dbase, k)
        expo, dexpo = self.node(node.right)
        self.emit(_positive_base, base, fixed=(node.pos,))
        # a^b = exp(b log a)
        log_base = self.emit(np.log, base)
        dlog = dbase and self.scale(dbase, self.emit(operator.truediv, self.constant(1.0), base))
        inner, dinner = self.product(expo, dexpo, log_base, dlog)
        value = self.emit(_exp, inner, fixed=(node.pos,))
        return value, self.scale(dinner, value)

    def int_power(self, node: BinOp, base: int, dbase, k: int):
        if k == 0:
            return self.constant(1.0), None
        if k < 0:
            self.emit(_nonzero_base, base, fixed=(node.pos,))
        out, dout = base, dbase
        for _ in range(abs(k) - 1):
            out, dout = self.product(out, dout, base, dbase)
        if k > 0:
            return out, dout
        value = self.emit(np.divide, self.constant(1.0), out)
        return value, self.scale(self.negate(dout), self.emit(np.square, value))

    RULES = {Const: const, Var: var, Neg: neg, Call: call, BinOp: binop}

    def program(self, outputs: list[int | None], checks, finish):
        """The program that runs, in emission order, the steps computing
        ``outputs`` (registers, or None for a structurally zero tangent
        component) or running one of the ``checks``: a function of t that
        returns the function of x (see ``_bind``) whose result is
        ``finish(F, tangent)``."""
        live = set(outputs)
        steps = []
        for r in range(len(self.steps) - 1, 1, -1):
            step = self.steps[r]
            if step and (r in live or step[0] in checks):
                fn, fixed, args = step
                live.update(args)
                call = functools.partial(fn, *fixed) if fixed else fn
                steps.append((call, args[0], args[1] if len(args) > 1 else None, r))
        steps.reverse()
        registers = [self.known.get(r) for r in range(len(self.steps))]
        return functools.partial(_bind, registers, {_T, *self.known}, steps, outputs, finish)


def _bind(registers: list, known: set, steps: list, outputs: list, finish, t):
    """The program at this t, as the function of x that returns
    ``finish(F, tangent)``: F broadcast to the batch shape of t and x, and
    the values of the other ``outputs``.  Each step that needs no x runs
    here, once, and is folded like a constant; a step that fails its domain
    check or raises a floating-point error is left in the program, with
    every step that uses it, so that it fails or warns at evaluation, in its
    place, where a failed check raises an EvalDomainError at its element."""
    t = np.asarray(t, dtype=np.float64)
    r = registers.copy()
    r[_T] = t
    known = known.copy()
    remaining = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for step in steps:
            call, a, b, out = step
            if a in known and (b is None or b in known):
                try:
                    value = call(r[a]) if b is None else call(r[a], r[b])
                except (_Domain, FloatingPointError):
                    pass
                else:
                    if isinstance(value, np.ndarray):
                        value.setflags(write=False)  # shared by every evaluation
                    r[out] = value
                    known.add(out)
                    continue
            remaining.append(step)

    def run(x):
        x = np.asarray(x, dtype=np.float64)
        regs = r.copy()
        regs[_X] = x
        try:
            for call, a, b, out in remaining:
                regs[out] = call(regs[a]) if b is None else call(regs[a], regs[b])
        except _Domain as err:
            raise err.located(t, x) from None
        value = regs[outputs[0]]
        batch = x.shape[:-1]
        if t.shape[:-1] != batch:
            batch = np.broadcast_shapes(t.shape[:-1], batch)
        if not (isinstance(value, np.ndarray) and value.shape == batch):
            value = np.broadcast_to(value, batch)
        return finish(value, [None if i is None else regs[i] for i in outputs[1:]])

    return run


_VALUE_CHECKS = frozenset((_exp, _sqrt, _quotient, _nonzero_base, _positive_base))
_DUAL_CHECKS = _VALUE_CHECKS | {_sqrt_tangent_check}


def _value(value: np.ndarray, tangent: list) -> np.ndarray:
    return value


def _dual(value: np.ndarray, tangent: list) -> Dual:
    partials = np.zeros(value.shape + (len(tangent),))
    for i, d in enumerate(tangent):
        if d is not None:
            partials[..., i] = d
    return Dual(value, partials)


class Program:
    """An expression compiled once into two straight-line programs, one for
    F and one for F and its n partials, each bound to t before it runs:
    ``value(t)(x)`` returns F and ``dual(t)(x)`` a Dual.  Binding runs what
    needs no x; the function it returns runs the rest."""

    __slots__ = ("value", "dual")

    def __init__(self, ast: Node, n: int):
        builder = _Builder(n)
        value, tangent = builder.node(ast)
        outputs = [value, *(tangent or [None] * n)]
        self.value = builder.program([value], _VALUE_CHECKS, _value)
        self.dual = builder.program(outputs, _DUAL_CHECKS, _dual)


def _compiled(program: Program | Node, x) -> Program:
    return program if isinstance(program, Program) else Program(program, np.shape(x)[-1])


def eval_dual(program: Program | Node, t: np.ndarray, x: np.ndarray) -> Dual:
    """Evaluate F and grad_x F together.

    ``program`` is a compiled Program or an AST, compiled on the spot.
    ``t`` has shape (..., p) and ``x`` shape (..., n); the result carries
    ``value`` with the broadcast batch shape and ``partials`` with a
    trailing component axis, zeros where F does not depend on x.
    """
    return _compiled(program, x).dual(t)(x)


def eval_value(program: Program | Node, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate F only (cheaper than eval_dual inside line searches)."""
    return _compiled(program, x).value(t)(x)


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
        self.program = Program(self.ast, n)
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
        return eval_value(self.program, t, x)

    def gradient(self, t, x):
        return eval_dual(self.program, t, x).partials

    def bind(self, t: np.ndarray) -> BoundPotential:
        """Both programs bound to ``t``: their steps that need no x run
        once, here (see ``_bind``); grad F is the partials of a Dual."""
        dual = self.program.dual(t)
        return BoundPotential(self.program.value(t), lambda x: dual(x).partials)
