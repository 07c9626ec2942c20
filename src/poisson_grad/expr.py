"""Expression language for user-defined potentials F(t, x).

Sources are parsed by recursive descent into a small AST over the fixed
variables t1..tp, x1..xn, the constant pi, the operators + - * / ^ and the
functions sin, cos, exp, sqrt.  Precedence, tightest first: ^ (right
associative), unary minus, * /, + - (left associative).  An integer
constant exponent of magnitude at most 128 unrolls into products, which
take any base; every other exponent needs a positive base.

Each AST compiles once into a straight-line program over numpy arrays that
evaluates F and, forward-mode, the exact gradient grad_x F, over a whole
grid batch; its steps for F alone, the value program, run where F alone is
needed, and its steps for grad F alone, the gradient program, where grad F
alone is, each with its domain checks in the full program's order.  Only
x-derivatives are propagated, one component at a time; t enters as a
constant for each evaluation, and tangent components that are structurally
zero (constants, t-only subtrees, components a subtree does not depend on)
cost nothing.  The bound potential is the program bound to
t: the steps on constants and t alone run once, at binding, so a potential
bound to a grid's nodes computes them once per solve, and one bound to a
drawn sample once for all the sampled checks, which take F and grad F from
one run at the draw and, at a point moved in x_i, re-run only the value
program's steps that x_i reaches.
Every failure mode is an ExprError positioned in its source: lexical,
syntactic, unknown identifier, or a numeric domain error at its AST node.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .potential import GrowthEnvelope, Potential, declared_periods

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
    """Expression failure at byte offset ``pos`` of ``source``, the text that
    an ExpressionPotential attaches, built or bound; None until then."""

    def __init__(self, message: str, pos: int):
        self.message = message
        self.pos = pos
        self.source: str | None = None
        super().__init__(f"{message} (offset {pos})")


class EvalDomainError(ExprError):
    """Numeric domain failure at an AST node, raised by the failed check in
    place with its mask ``bad``; the bound run that raised it sets
    ``element``, the flat index of the first offending batch element."""

    def __init__(self, message: str, pos: int, bad):
        super().__init__(message, pos)
        self.bad = bad
        self.element: int | None = None


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
    try:
        node = parser.expression()
    except RecursionError:
        raise ExprError("expression nested too deeply", parser.cur.pos) from None
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
# result of one step.  The program also carries each node's tangent, one
# register per x-component, or None when that component is structurally
# zero and so costs nothing; the steps F needs, with their checks, are the
# value program, and the steps the tangents need, with every check, the
# gradient program.  Every value and tangent is computed by the same numpy
# operations, in the same order, as a recursive evaluation of the tree
# would; identical steps are emitted once, and the exact identities
# 1 * s = s and -(-a) = a save a step.  Compiling runs no step: binding the
# program to t (``_Bound``) folds every step on constants and t alone.

_T, _X = 0, 1  # registers of t and x
_ONE = np.float64(1.0)  # seed tangent of x_i


def _any(mask) -> bool:
    # a check of a scalar, such as a constant divisor, costs no reduction
    return bool(mask) if type(mask) in (bool, np.bool_) else bool(mask.any())


def _check(bad, message: str, pos: int) -> None:
    if _any(bad):
        raise EvalDomainError(message, pos, bad)


# steps: the leading arguments are fixed at compile time, the others are registers

def _component(i: int, a):
    return a[..., i]


def _exp(pos: int, a):
    with np.errstate(over="ignore"):
        value = np.exp(a)
    finite = np.isfinite(value)
    if not finite.all():
        raise EvalDomainError("non-finite result", pos, ~finite)
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


def _positive_base(pos: int, exponent: str, base) -> None:
    _check(base <= 0.0, f"'^' with {exponent} needs a positive base", pos)


def _const_int(node: Node) -> int | None:
    sign = 1
    while isinstance(node, Neg):
        sign = -sign
        node = node.arg
    if isinstance(node, Const) and float(node.value).is_integer():
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
        if k is not None and abs(k) <= 128:
            return self.int_power(node, base, dbase, k)
        expo, dexpo = self.node(node.right)
        exponent = (
            "a non-integer exponent" if k is None else "an integer exponent beyond 128 in magnitude"
        )
        self.emit(_positive_base, base, fixed=(node.pos, exponent))
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

    def program(self, outputs: list[int | None], checks) -> list:
        """The steps, in emission order, that compute ``outputs`` (registers,
        or None for a structurally zero tangent component) or run one of the
        ``checks``, as (call, a, b, out): the registers of the arguments, b
        None for one, and of the result."""
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
        return steps


def _reach(steps: list, source: int | None) -> list:
    """The ``steps`` that compute register ``source`` or read it, directly or
    through other steps, in order."""
    reached = set() if source is None else {source}
    out = []
    for step in steps:
        if reached.intersection(step[1:]):
            reached.add(step[3])
            out.append(step)
    return out


_VALUE_CHECKS = frozenset((_exp, _sqrt, _quotient, _nonzero_base, _positive_base))
_DUAL_CHECKS = _VALUE_CHECKS | {_sqrt_tangent_check}


class _Bound:
    """The program bound to t, an expression's bound potential: it has the
    ``value``, ``gradient`` and ``sample`` of a BoundPotential, and called on
    x it returns a Dual.  Binding runs each step that needs no x, once, and
    folds it like a constant; a step that fails its domain check or raises a
    floating-point error is left in the program, with every step that uses
    it, so that it fails or warns at evaluation, in its place, where a
    failed check's EvalDomainError gets its element and ``source``.  The
    value program, F's steps with F's checks, and the gradient program,
    grad F's steps with every check, are the program's remaining steps that
    they hold, in their order."""

    __slots__ = ("t", "source", "registers", "steps", "value_steps", "gradient_steps",
                 "outputs", "moved", "kept")

    def __init__(self, registers, known, steps, value_regs, gradient_regs, outputs, moved, kept, t):
        self.t = t = np.asarray(t, dtype=np.float64)
        self.source = None
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
                    except (EvalDomainError, FloatingPointError):
                        pass
                    else:
                        if isinstance(value, np.ndarray):
                            value.setflags(write=False)  # shared by every evaluation
                        r[out] = value
                        known.add(out)
                        continue
                remaining.append(step)
        self.registers, self.steps, self.outputs, self.moved, self.kept = (
            r, remaining, outputs, moved, kept
        )
        self.value_steps, self.gradient_steps = (
            [step for step in remaining if step[3] in regs] for regs in (value_regs, gradient_regs)
        )

    def run(self, steps: list, x, registers: list | None = None):
        """The batch shape of t and x, and the registers after ``steps`` ran
        on a copy of ``registers`` (default: the bound ones)."""
        x = np.asarray(x, dtype=np.float64)
        regs = (self.registers if registers is None else registers).copy()
        regs[_X] = x
        batch = x.shape[:-1]
        if self.t.shape[:-1] != batch:
            batch = np.broadcast_shapes(self.t.shape[:-1], batch)
        try:
            for call, a, b, out in steps:
                regs[out] = call(regs[a]) if b is None else call(regs[a], regs[b])
        except EvalDomainError as err:
            err.element = int(np.flatnonzero(np.broadcast_to(err.bad, batch))[0])
            err.source = self.source
            raise
        return batch, regs

    def result(self, batch: tuple, regs: list) -> np.ndarray:
        """F from a run's registers, broadcast to its batch shape."""
        value = regs[self.outputs[0]]
        if not (isinstance(value, np.ndarray) and value.shape == batch):
            value = np.broadcast_to(value, batch)
        return value

    def partials(self, batch: tuple, regs: list) -> np.ndarray:
        """grad F from a run's registers, zeros where F does not depend on x."""
        partials = np.zeros(batch + (len(self.outputs) - 1,))
        for i, d in enumerate(self.outputs[1:]):
            if d is not None:
                partials[..., i] = regs[d]
        return partials

    def value(self, x) -> np.ndarray:
        return self.result(*self.run(self.value_steps, x))

    def gradient(self, x) -> np.ndarray:
        return self.partials(*self.run(self.gradient_steps, x))

    def __call__(self, x) -> Dual:
        batch, regs = self.run(self.steps, x)
        return Dual(self.result(batch, regs), self.partials(batch, regs))

    def sample(self, x):
        """F and grad F at ``x`` from one run, where F fails first, and the
        function (i, y) -> F(y) for y that differs from x in x_i alone.  It
        re-runs only the value program's steps that x_i reaches and reads
        the other registers from this run: the bits and errors of a full run."""
        try:
            batch, regs = self.run(self.steps, x)
        except (EvalDomainError, FloatingPointError):
            self.value(x)
            raise
        kept = [v if r in self.kept else None for r, v in enumerate(regs)]

        def moved(i, y):
            return self.result(*self.run(self.moved[i], y, kept))

        return self.result(batch, regs), self.partials(batch, regs), moved


class Program:
    """An expression compiled once into a straight-line program for F and its
    n partials; its steps for F, with their checks, are the value program,
    and its steps for the partials, with every check, the gradient program.
    ``dual(t)`` binds it to t (see ``_Bound``): a function of x returning a
    Dual, whose ``value(x)`` and ``gradient(x)`` run those programs alone."""

    __slots__ = ("dual",)

    def __init__(self, ast: Node, n: int):
        builder = _Builder(n)
        try:
            value, tangent = builder.node(ast)
        except RecursionError:
            # the compiler recurses once per operand, down each left-deep sum
            raise ExprError("expression nested too deeply to compile", ast.pos) from None
        outputs = [value, *(tangent or [None] * n)]
        value_steps = builder.program([value], _VALUE_CHECKS)
        gradient_steps = builder.program(outputs[1:], _DUAL_CHECKS)
        components = (builder.memo.get((_component, (i,), (_X,))) for i in range(n))
        moved = [_reach(value_steps, reg) for reg in components]
        kept = {value}  # the registers that a re-run reads and does not write
        for run in moved:
            kept.update({r for s in run for r in s[1:3]} - {s[3] for s in run})
        registers = [builder.known.get(r) for r in range(len(builder.steps))]
        self.dual = functools.partial(
            _Bound, registers, {_T, *builder.known}, builder.program(outputs, _DUAL_CHECKS),
            {s[3] for s in value_steps}, {s[3] for s in gradient_steps}, outputs, moved, kept,
        )


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
    """Evaluate F only, through the value program: no tangent is computed."""
    return _compiled(program, x).dual(t).value(x)


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
        growth: GrowthEnvelope | None = None,
    ):
        self.source = source
        try:
            self.ast = parse(tokenize(source), p, n)
            self.program = Program(self.ast, n)
        except ExprError as err:
            err.source = source
            raise
        self.p = p
        self.n = n
        self.periods = declared_periods(periods, n)
        self.growth = growth

    def value(self, t, x):
        return self.bind(t).value(x)

    def gradient(self, t, x):
        return self.bind(t).gradient(x)

    def bind(self, t: np.ndarray) -> _Bound:
        """The program bound to ``t``, once: its steps that need no x run
        here (see ``_Bound``) for F, grad F and a drawn sample alike."""
        bound = self.program.dual(t)
        bound.source = self.source
        return bound
