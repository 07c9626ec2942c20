"""Shared test utilities: independent oracles and corpus generators."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np

from poisson_grad import Field, GridSpec
from poisson_grad.expr import BinOp, Call, Const, Neg, Var
from poisson_grad.potential import Potential


class Unbound(Potential):
    """A potential seen through its unbound ``value(t, x)`` and
    ``gradient(t, x)``: the default ``bind``, which evaluates each in full."""

    def __init__(self, pot: Potential):
        self.pot, self.n, self.p, self.name = pot, pot.n, pot.p, pot.name
        self.periods, self.growth = pot.periods, pot.growth

    def value(self, t, x):
        return self.pot.value(t, x)

    def gradient(self, t, x):
        return self.pot.gradient(t, x)


def random_field(spec: GridSpec, rng, low: float = 0.0, high: float = 1.0) -> Field:
    return Field(spec, rng.uniform(low, high, spec.shape))


def gaussian_field(spec: GridSpec, rng, scale: float = 1.0) -> Field:
    return Field(spec, scale * rng.standard_normal(spec.shape))


def peak_transient(fn, *args) -> int:
    """Bytes allocated by fn(*args) at its peak, above what was allocated
    before the call, as traced by tracemalloc (numpy reports its arrays)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def action_fsum_oracle(field: Field, pot) -> float:
    """Action recomputed from scratch: explicit node loops, math.fsum
    accumulation, scalar potential calls.  Independent of the action module."""
    spec = field.spec
    terms = []
    for idx in itertools.product(*(range(k) for k in spec.nodes)):
        t = np.array([k * h for k, h in zip(idx, spec.spacings)])
        x = field.values[idx]
        kin = 0.0
        for axis in range(spec.p):
            neighbor = list(idx)
            neighbor[axis] = (neighbor[axis] + 1) % spec.nodes[axis]
            diff = (field.values[tuple(neighbor)] - x) / spec.spacings[axis]
            kin += 0.5 * float(np.dot(diff, diff))
        terms.append(kin + float(pot.value(t, x)))
    return spec.cell_volume * math.fsum(terms)


# ---------------------------------------------------------------------------
# seeded expression corpus
#
# Shapes are chosen so values and low-order derivatives stay O(10): division
# only by offsets bounded away from zero, exp only of damped arguments, sqrt
# only of 1 + (.)^2, integer powers only of bounded subtrees.  That keeps the
# central-difference probe of the dual-number gradients accurate to ~1e-9.

def _bounded(rng, p: int, n: int, depth: int):
    """Subtree with values in roughly [-2, 2]."""
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.integers(0, 3)
        if choice == 0:
            return Const(round(float(rng.uniform(0.1, 1.5)), 3))
        if choice == 1 and p > 0:
            return Call("sin", Var("t", int(rng.integers(0, p))))
        return Call("cos", Var("x", int(rng.integers(0, n))))
    kind = rng.integers(0, 4)
    if kind == 0:
        return Call("sin", _any(rng, p, n, depth - 1))
    if kind == 1:
        return Call("cos", _any(rng, p, n, depth - 1))
    if kind == 2:
        return BinOp("*", _bounded(rng, p, n, depth - 1), _bounded(rng, p, n, depth - 1))
    return Neg(_bounded(rng, p, n, depth - 1))


def _any(rng, p: int, n: int, depth: int):
    """Subtree with moderate values; may reference raw variables."""
    if depth <= 0:
        choice = rng.integers(0, 3)
        if choice == 0:
            return Const(round(float(rng.uniform(0.1, 2.0)), 3))
        if choice == 1 and p > 0:
            return Var("t", int(rng.integers(0, p)))
        return Var("x", int(rng.integers(0, n)))
    kind = rng.integers(0, 8)
    if kind in (0, 1):
        return BinOp(
            rng.choice(["+", "-"]), _any(rng, p, n, depth - 1), _any(rng, p, n, depth - 1)
        )
    if kind == 2:
        return BinOp("*", _any(rng, p, n, depth - 1), _bounded(rng, p, n, depth - 1))
    if kind == 3:
        # denominator bounded away from zero: 1.2 + bounded/2 >= 0.2
        den = BinOp(
            "+", Const(1.2), BinOp("*", Const(0.5), _bounded(rng, p, n, depth - 1))
        )
        return BinOp("/", _any(rng, p, n, depth - 1), den)
    if kind == 4:
        return BinOp("^", _bounded(rng, p, n, depth - 1), Const(float(rng.integers(2, 4))))
    if kind == 5:
        return Call("exp", BinOp("*", Const(0.4), _bounded(rng, p, n, depth - 1)))
    if kind == 6:
        inner = BinOp("^", _bounded(rng, p, n, depth - 1), Const(2.0))
        return Call("sqrt", BinOp("+", Const(1.0), inner))
    return Neg(_any(rng, p, n, depth - 1))


def expression_corpus(count: int, seed: int, p: int = 2, n: int = 2):
    """Deterministic list of generated ASTs."""
    rng = np.random.default_rng(seed)
    return [_any(rng, p, n, depth=3) for _ in range(count)]


def _domain_leaf(rng, p: int, n: int):
    choice = rng.integers(0, 3)
    pos = int(rng.integers(0, 64))
    if choice == 0:
        return Const(float(rng.choice([0.0, 0.5, 1.0, 2.0])), pos=pos)
    if choice == 1 and p > 0:
        return Var("t", int(rng.integers(0, p)), pos=pos)
    return Var("x", int(rng.integers(0, n)), pos=pos)


def _domain_tree(rng, p: int, n: int, depth: int):
    """Subtree that meets every domain check on DOMAIN_POINTS inputs: division
    by subtrees that vanish, sqrt and real powers of signed subtrees,
    negative integer powers of zero and exp of large arguments.  Values
    stay far from overflow, so evaluation raises no numpy warning."""
    if depth <= 0 or rng.random() < 0.2:
        return _domain_leaf(rng, p, n)
    pos = int(rng.integers(0, 64))
    kind = rng.integers(0, 9)
    sub = lambda: _domain_tree(rng, p, n, depth - 1)  # noqa: E731
    if kind <= 2:
        return BinOp(str(rng.choice(["+", "-", "*", "/"])), sub(), sub(), pos=pos)
    if kind == 3:
        k = int(rng.integers(-2, 4))
        exponent = Const(float(abs(k)))
        return BinOp("^", sub(), Neg(exponent) if k < 0 else exponent, pos=pos)
    if kind == 4:
        # a bounded exponent that runs its own checks before the base's
        if rng.random() < 0.5:
            return BinOp("^", sub(), Const(float(rng.choice([0.5, 1.5]))), pos=pos)
        return BinOp("^", sub(), Call("sin", sub()), pos=pos)
    if kind == 5:
        # 0 (underflow) below the threshold 1.5 and a non-finite result above
        shifted = BinOp("-", _domain_leaf(rng, p, n), Const(1.5))
        return Call("exp", BinOp("*", Const(1600.0), shifted), pos=pos)
    if kind == 6:
        return Neg(sub(), pos=pos)
    return Call(str(rng.choice(["sin", "cos", "sqrt"])), sub(), pos=pos)


DOMAIN_POINTS = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def domain_corpus(count: int, seed: int, p: int = 2, n: int = 2):
    """Deterministic list of ASTs that fail domain checks at some inputs
    drawn from DOMAIN_POINTS, each node at its own source position."""
    rng = np.random.default_rng(seed)
    return [_domain_tree(rng, p, n, depth=3) for _ in range(count)]


# ---------------------------------------------------------------------------
# scalar reference evaluator
#
# The expression language's semantics, one batch element at a time with the
# math module: children left to right, then the node's own domain check.  A
# batch fails at the first node, in that order, where any element fails, and
# reports the first such element.

class _ScalarDomainError(Exception):
    def __init__(self, order: int, message: str, pos: int):
        super().__init__(message)
        self.order = order
        self.message = message
        self.pos = pos


def _integer_exponent(node) -> int | None:
    """The exponent k of a constant integer exponent, of any magnitude."""
    sign = 1
    while isinstance(node, Neg):
        sign, node = -sign, node.arg
    if isinstance(node, Const) and float(node.value).is_integer():
        return sign * int(node.value)
    return None


def _finite_or_fail(value: float, order: int, pos: int) -> float:
    if not math.isfinite(value):
        raise _ScalarDomainError(order, "non-finite result", pos)
    return value


def _exp(arg: float) -> float:
    try:
        return math.exp(arg)
    except OverflowError:
        return math.inf


def _scalar(node, t, x, visited: list[int]) -> float:
    """F at one point; ``visited`` counts finished nodes, the failure order."""
    if isinstance(node, Const):
        value = float(node.value)
    elif isinstance(node, Var):
        value = float((t if node.kind == "t" else x)[node.index])
    elif isinstance(node, Neg):
        value = -_scalar(node.arg, t, x, visited)
    elif isinstance(node, Call):
        a = _scalar(node.arg, t, x, visited)
        if node.fn == "exp":
            value = _finite_or_fail(_exp(a), visited[0], node.pos)
        elif node.fn == "sqrt":
            if a < 0.0:
                raise _ScalarDomainError(visited[0], "sqrt of a negative value", node.pos)
            value = math.sqrt(a)
        else:
            value = getattr(math, node.fn)(a) if math.isfinite(a) else math.nan
    elif node.op == "^" and _integer_exponent(node.right) in range(-128, 129):
        k = _integer_exponent(node.right)
        base = _scalar(node.left, t, x, visited)
        if k < 0 and base == 0.0:
            raise _ScalarDomainError(visited[0], "zero base with a negative exponent", node.pos)
        try:
            value = 1.0 if k == 0 else math.pow(base, k)
        except OverflowError:
            value = math.copysign(math.inf, base if k % 2 else 1.0)
    else:
        a = _scalar(node.left, t, x, visited)
        b = _scalar(node.right, t, x, visited)
        if node.op == "^":
            if a <= 0.0:
                # integer exponents up to 128 in magnitude take the branch above
                rule = (
                    "a non-integer exponent"
                    if _integer_exponent(node.right) is None
                    else "an integer exponent beyond 128 in magnitude"
                )
                raise _ScalarDomainError(
                    visited[0], f"'^' with {rule} needs a positive base", node.pos
                )
            value = _finite_or_fail(_exp(b * math.log(a)), visited[0], node.pos)
        elif node.op == "/":
            if b == 0.0:
                raise _ScalarDomainError(visited[0], "division by zero", node.pos)
            value = a / b
        else:
            value = {"+": a + b, "-": a - b, "*": a * b}[node.op]
    visited[0] += 1
    return value


def reference_eval(ast, t: np.ndarray, x: np.ndarray):
    """F over a batch by scalar evaluation: ``("ok", values)`` with the
    broadcast batch shape, or ``("error", message, pos, element)``."""
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    batch = np.broadcast_shapes(t.shape[:-1], x.shape[:-1])
    ts = np.broadcast_to(t, batch + t.shape[-1:]).reshape(-1, t.shape[-1])
    xs = np.broadcast_to(x, batch + x.shape[-1:]).reshape(-1, x.shape[-1])
    values = []
    failure = None
    for element, (ti, xi) in enumerate(zip(ts, xs)):
        try:
            values.append(_scalar(ast, ti, xi, [0]))
        except _ScalarDomainError as err:
            if failure is None or err.order < failure[0]:
                failure = (err.order, err.message, err.pos, element)
    if failure is not None:
        return ("error",) + failure[1:]
    return "ok", np.array(values).reshape(batch)
