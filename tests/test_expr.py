import importlib
import math

import numpy as np
import numpy.testing as npt
import pytest

from poisson_grad.expr import (
    BinOp,
    Call,
    Const,
    EvalDomainError,
    ExprError,
    ExpressionPotential,
    Neg,
    Var,
    eval_dual,
    eval_value,
    line_col,
    parse,
    pretty,
    tokenize,
)

from poisson_grad.grid import GridSpec, node_coordinates
from poisson_grad.potential import Sample, SampleSpec, check_periodicity

from helpers import DOMAIN_POINTS, Unbound, domain_corpus, expression_corpus, reference_eval

expr = importlib.import_module("poisson_grad.expr")


class TestTokenize:
    def test_simple_stream(self):
        kinds = [(t.kind, t.text, t.pos) for t in tokenize("2*pi")]
        assert kinds == [
            ("number", "2", 0),
            ("op", "*", 1),
            ("ident", "pi", 2),
            ("end", "", 4),
        ]

    def test_empty_source(self):
        toks = tokenize("")
        assert [t.kind for t in toks] == ["end"]

    def test_illegal_character_position(self):
        with pytest.raises(ExprError) as err:
            tokenize("1 $ 2")
        assert err.value.pos == 2

    def test_numbers_with_fraction_and_exponent(self):
        toks = tokenize("1.5 2e3 7.25e-2")
        assert [t.text for t in toks[:-1]] == ["1.5", "2e3", "7.25e-2"]
        assert [float(t.text) for t in toks[:-1]] == [1.5, 2000.0, 0.0725]

    def test_positions_strictly_increase(self):
        toks = tokenize("sin(x1) + 2.5*t1^2")
        positions = [t.pos for t in toks]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_overflowing_literal_rejected(self):
        with pytest.raises(ExprError, match="overflows"):
            tokenize("1e999")


class TestParse:
    def test_subtraction_of_function(self):
        ast = parse("1 - cos(x1)", 0, 1)
        assert ast == BinOp("-", Const(1.0), Call("cos", Var("x", 0)))

    def test_power_binds_tighter_than_times(self):
        ast = parse("x1^2 + t1*x2", 1, 2)
        assert ast == BinOp(
            "+",
            BinOp("^", Var("x", 0), Const(2.0)),
            BinOp("*", Var("t", 0), Var("x", 1)),
        )

    def test_power_right_associative(self):
        ast = parse("x1^x2^2", 0, 2)
        assert ast == BinOp("^", Var("x", 0), BinOp("^", Var("x", 1), Const(2.0)))

    def test_unary_minus_below_power(self):
        assert parse("-x1^2", 0, 1) == Neg(BinOp("^", Var("x", 0), Const(2.0)))
        assert parse("x1^-2", 0, 1) == BinOp("^", Var("x", 0), Neg(Const(2.0)))

    def test_left_associativity(self):
        ast = parse("1 - 2 - 3", 0, 1)
        assert ast == BinOp("-", BinOp("-", Const(1.0), Const(2.0)), Const(3.0))

    def test_pi_constant(self):
        assert parse("pi", 0, 1) == Const(math.pi)

    @pytest.mark.parametrize(
        "source,pos",
        [
            ("1 + * 2", 4),
            ("cos(", 4),
            ("(1 + 2", 6),
            ("1 2", 2),
            ("", 0),
            ("sin 3", 4),
            ("sin(1, 2)", 5),
            # digits are ASCII only: float() and int() reject a superscript,
            # and would read the Arabic-Indic digits as 3 and 1
            ("1 + x1²", 4),
            ("2²", 1),
            ("٣*x1", 0),
            ("x١", 0),
        ],
    )
    def test_syntax_errors_are_positioned(self, source, pos):
        with pytest.raises(ExprError) as err:
            parse(source, 1, 1)
        assert err.value.pos == pos

    @pytest.mark.parametrize("name", ["y1", "t0", "x0", "foo", "t", "x", "t01"])
    def test_unknown_identifiers_rejected(self, name):
        with pytest.raises(ExprError):
            parse(name, 1, 1)

    def test_variable_index_bounds(self):
        parse("t2 + x3", 2, 3)
        with pytest.raises(ExprError, match="t1..t2"):
            parse("t3", 2, 3)
        with pytest.raises(ExprError, match="x1..x3"):
            parse("x4", 2, 3)

    def test_nesting_too_deep_to_parse_is_positioned(self):
        # the recursive descent takes five frames per parenthesis
        source = "1 + " + "(" * 5000 + "x1" + ")" * 5000
        with pytest.raises(ExprError, match="nested too deeply") as err:
            parse(source, 1, 1)
        assert source[err.value.pos] == "("

    def test_parse_is_total_on_junk(self):
        rng = np.random.default_rng(0)
        alphabet = list("xt123+-*/^()s incoe.,qr $#")
        for _ in range(300):
            source = "".join(rng.choice(alphabet, size=rng.integers(1, 24)))
            try:
                parse(source, 2, 2)
            except ExprError:
                pass  # positioned failure is the contract; crashes are not


class TestEval:
    def test_polynomial_with_time(self):
        d = eval_dual(parse("x1^2 + t1*x2", 1, 2), np.array([2.0]), np.array([3.0, 4.0]))
        assert d.value == pytest.approx(17.0, abs=0)
        npt.assert_allclose(d.partials, [6.0, 2.0], rtol=0, atol=0)

    def test_cos_well_at_origin(self):
        d = eval_dual(parse("1 - cos(x1)", 0, 1), np.zeros(0), np.zeros(1))
        assert d.value == 0.0
        npt.assert_array_equal(d.partials, [0.0])

    def test_division_by_zero_positioned(self):
        ast = parse("1 / (x1 - 1)", 0, 1)
        with pytest.raises(EvalDomainError) as err:
            eval_value(ast, np.zeros(0), np.array([1.0]))
        assert err.value.pos == 2

    def test_sqrt_negative_positioned(self):
        ast = parse("2 + sqrt(x1)", 0, 1)
        with pytest.raises(EvalDomainError) as err:
            eval_value(ast, np.zeros(0), np.array([-0.5]))
        assert err.value.pos == 4

    def test_domain_error_reports_first_bad_element(self):
        ast = parse("sqrt(x1)", 0, 1)
        x = np.array([[1.0], [4.0], [-1.0], [9.0]])
        with pytest.raises(EvalDomainError) as err:
            eval_value(ast, np.zeros((4, 0)), x)
        assert err.value.element == 2

    def test_sqrt_at_zero_needs_a_zero_tangent(self):
        t = np.zeros((4, 1))
        x = np.array([[1.0], [4.0], [0.0], [9.0]])
        npt.assert_array_equal(eval_value(parse("sqrt(x1)", 1, 1), t, x), [1.0, 2.0, 0.0, 3.0])
        with pytest.raises(EvalDomainError, match="not differentiable at zero") as err:
            eval_dual(parse("sqrt(x1) + t1", 1, 1), t, x)
        assert err.value.element == 2
        d = eval_dual(parse("sqrt(x1^2) + sqrt(t1)", 1, 1), t, x)
        npt.assert_array_equal(d.partials[:, 0], [1.0, 1.0, 0.0, 1.0])

    def test_negative_integer_power(self):
        d = eval_dual(parse("x1^-2", 0, 1), np.zeros(0), np.array([2.0]))
        assert d.value == pytest.approx(0.25)
        npt.assert_allclose(d.partials, [-2.0 / 8.0])

    def test_zero_base_negative_power_rejected(self):
        with pytest.raises(EvalDomainError):
            eval_value(parse("x1^-1", 0, 1), np.zeros(0), np.array([0.0]))

    def test_general_power_requires_positive_base(self):
        ast = parse("x1^x2", 0, 2)
        d = eval_dual(ast, np.zeros(0), np.array([2.0, 3.0]))
        assert d.value == pytest.approx(8.0)
        npt.assert_allclose(d.partials, [12.0, 8.0 * math.log(2.0)], rtol=1e-14)
        with pytest.raises(EvalDomainError, match="positive base"):
            eval_value(ast, np.zeros(0), np.array([-2.0, 3.0]))

    @pytest.mark.parametrize(
        "source, rule",
        [
            ("x1^129", "an integer exponent beyond 128 in magnitude"),
            ("x1^130", "an integer exponent beyond 128 in magnitude"),
            ("x1^-129", "an integer exponent beyond 128 in magnitude"),
            ("x1^--200", "an integer exponent beyond 128 in magnitude"),
            ("x1^1.5", "a non-integer exponent"),
            ("x1^x1", "a non-integer exponent"),
        ],
    )
    def test_power_with_a_negative_base_names_its_rule(self, source, rule):
        # an integer exponent up to 128 in magnitude unrolls into products,
        # and any other exponent goes through exp(b log a)
        ast, t, x = parse(source, 1, 1), np.zeros((2, 1)), np.array([[2.0], [-1.0]])
        expected = ("error", f"'^' with {rule} needs a positive base", 2, 1)
        assert reference_eval(ast, t, x) == expected
        for evaluate in (eval_value, eval_dual):
            with pytest.raises(EvalDomainError) as err:
                evaluate(ast, t, x)
            assert ("error", err.value.message, err.value.pos, err.value.element) == expected
        for k in (128, -128):
            npt.assert_array_equal(eval_value(parse(f"x1^{k}", 1, 1), t, x), [2.0**k, 1.0])

    def test_exp_overflow_positioned(self):
        with pytest.raises(EvalDomainError, match="non-finite"):
            eval_value(parse("exp(x1)", 0, 1), np.zeros(0), np.array([1e4]))

    def test_value_and_dual_paths_agree(self):
        rng = np.random.default_rng(3)
        for ast in expression_corpus(200, seed=17, p=2, n=2):
            t = rng.uniform(0.1, 1.9, (5, 2))
            x = rng.uniform(0.1, 1.9, (5, 2))
            npt.assert_array_equal(eval_value(ast, t, x), eval_dual(ast, t, x).value)

    @pytest.mark.parametrize(
        "source, message, bad_t",
        [
            ("sqrt(t1 - 0.5)*x1", "sqrt of a negative value", 0.25),
            ("x1 + 1/(t1 - 0.25)", "division by zero", 0.25),
            ("x1 * t1^-1", "zero base with a negative exponent", 0.0),
            ("exp(1000*(t1 - 0.95)) + x1", "non-finite result", 1.7),
        ],
    )
    @pytest.mark.parametrize("evaluate", [eval_value, eval_dual])
    def test_x_free_domain_error_reports_batch_element(self, source, message, bad_t, evaluate):
        # t varies along the first batch axis only, x along the second, so
        # the offending t row is the batch element (1, 0) = flat index 4
        ast = parse(source, 1, 1)
        t = np.array([[[0.75]], [[bad_t]], [[0.9]]])
        x = np.linspace(1.0, 2.0, 4).reshape(1, 4, 1)
        with pytest.raises(EvalDomainError, match=message) as err:
            evaluate(ast, t, x)
        assert err.value.element == 4

    @pytest.mark.parametrize("source", ["2*pi", "3", "sin(t2) + t1^2", "t1 / (2 + cos(t2))"])
    def test_x_free_expressions_fill_the_batch(self, source):
        ast = parse(source, 2, 2)
        t = np.array([[[0.1, 0.2]], [[0.3, 0.4]], [[0.5, 0.6]]])
        x = np.ones((1, 4, 2))
        value = eval_value(ast, t, x)
        d = eval_dual(ast, t, x)
        assert value.shape == d.value.shape == (3, 4)
        npt.assert_array_equal(d.value, value)
        npt.assert_array_equal(value, np.broadcast_to(value[:, :1], (3, 4)))
        assert d.partials.shape == (3, 4, 2)
        npt.assert_array_equal(d.partials, 0.0)

    def test_x_only_partials_fill_the_batch(self):
        d = eval_dual(parse("x1 - 2*x2", 1, 2), np.zeros((3, 1, 1)), np.ones((1, 4, 2)))
        assert d.value.shape == (3, 4)
        npt.assert_array_equal(d.partials, np.broadcast_to([1.0, -2.0], (3, 4, 2)))

    def test_mixed_expression_matches_central_differences(self):
        ast = parse("t1*x1 + sin(t2) - 3/x2", 2, 2)
        rng = np.random.default_rng(11)
        t = rng.uniform(0.1, 1.9, (6, 2))
        x = rng.uniform(0.5, 1.9, (6, 2))
        d = eval_dual(ast, t, x)
        npt.assert_allclose(d.value, t[:, 0] * x[:, 0] + np.sin(t[:, 1]) - 3 / x[:, 1])
        step = 1e-6
        for i in range(2):
            hi, lo = x.copy(), x.copy()
            hi[:, i] += step
            lo[:, i] -= step
            fd = (eval_value(ast, t, hi) - eval_value(ast, t, lo)) / (2 * step)
            npt.assert_allclose(d.partials[:, i], fd, rtol=1e-7)
        npt.assert_allclose(d.partials[:, 0], t[:, 0], rtol=0, atol=0)
        npt.assert_allclose(d.partials[:, 1], 3 / x[:, 1] ** 2, rtol=1e-15)


class TestPretty:
    @pytest.mark.parametrize(
        "source",
        [
            "1 - cos(x1)",
            "x1^2 + t1*x2",
            "-x1^2",
            "x1^-2",
            "(x1 + x2) * t1",
            "x1 - (x2 - t1)",
            "x1 / (1.5 + cos(x2))",
            "(x1^2)^3",
            "2*pi*x1",
            "-(x1 + x2)",
            "exp(0.5*sin(x1)) + sqrt(1 + x2^2)",
        ],
    )
    def test_round_trip_known_sources(self, source):
        ast = parse(source, 1, 2)
        assert parse(pretty(ast), 1, 2) == ast

    def test_round_trip_generated_corpus(self):
        for ast in expression_corpus(60, seed=23, p=2, n=2):
            assert parse(pretty(ast), 2, 2) == ast


class TestDualsAgainstFiniteDifferences:
    def test_corpus_gradients(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for ast in expression_corpus(40, seed=7, p=2, n=2):
            t = rng.uniform(0.1, 1.9, 2)
            x = rng.uniform(0.1, 1.9, 2)
            d = eval_dual(ast, t, x)
            step = 1e-6 * (1.0 + np.linalg.norm(x))
            for i in range(2):
                hi, lo = x.copy(), x.copy()
                hi[i] += step
                lo[i] -= step
                fd = (eval_value(ast, t, hi) - eval_value(ast, t, lo)) / (2 * step)
                worst = max(worst, abs(fd - d.partials[i]) / (1.0 + abs(d.partials[i])))
        assert worst <= 1e-7


class TestCompiledAgainstScalarReference:
    """The compiled programs against helpers.reference_eval, a scalar
    evaluation with the math module, on generated corpora."""

    SHAPES = [
        ((2,), (2,)),
        ((6, 2), (6, 2)),
        ((3, 1, 2), (1, 4, 2)),
        ((2,), (5, 2)),
        ((2, 2, 2), (2, 2, 2)),
        ((1, 2), (3, 2)),
    ]

    @staticmethod
    def evaluate(evaluate, ast, t, x):
        try:
            out = evaluate(ast, t, x)
        except EvalDomainError as err:
            return "error", err.message, err.pos, err.element
        return "ok", out.value if evaluate is eval_dual else out

    def check(self, corpus, draw):
        outcomes = set()
        for e, ast in enumerate(corpus):
            for s, (t_shape, x_shape) in enumerate(self.SHAPES):
                rng = np.random.default_rng([e, s])
                t, x = draw(rng, t_shape), draw(rng, x_shape)
                expected = reference_eval(ast, t, x)
                got = self.evaluate(eval_value, ast, t, x)
                if expected[0] == "error":
                    assert got == expected, pretty(ast)
                    outcomes.add(expected[1])
                else:
                    assert got[0] == "ok", (pretty(ast), got)
                    npt.assert_allclose(
                        got[1], expected[1], rtol=1e-12, atol=0, err_msg=pretty(ast)
                    )
                    outcomes.add("ok")
                # the value+gradient program evaluates the same values and
                # checks, plus the differentiability of sqrt at zero
                dual = self.evaluate(eval_dual, ast, t, x)
                if dual[0] == "ok":
                    assert got[0] == "ok", pretty(ast)
                    npt.assert_array_equal(dual[1], got[1])
                elif dual[1] != "sqrt is not differentiable at zero":
                    assert dual == got, pretty(ast)
        return outcomes

    def test_values_on_expression_corpus(self):
        outcomes = self.check(
            expression_corpus(200, seed=31), lambda rng, shape: rng.uniform(-2.0, 2.0, shape)
        )
        assert outcomes == {"ok"}

    def test_values_and_domain_errors_on_domain_corpus(self):
        outcomes = self.check(
            domain_corpus(300, seed=17), lambda rng, shape: rng.choice(DOMAIN_POINTS, shape)
        )
        assert outcomes == {
            "ok",
            "division by zero",
            "sqrt of a negative value",
            "zero base with a negative exponent",
            "'^' with a non-integer exponent needs a positive base",
            "non-finite result",
        }



class TestCompiledSteps:
    def test_failing_constant_is_not_folded(self):
        ast = parse("x1 + 1/(2 - 2)", 0, 1)
        program = expr.Program(ast, 1)
        with pytest.raises(EvalDomainError, match="division by zero") as err:
            eval_value(program, np.zeros((3, 0)), np.ones((3, 1)))
        assert (err.value.pos, err.value.element) == (6, 0)

    @pytest.mark.parametrize(
        "source,message",
        [
            # the left operand fails first, also against a constant right one
            ("sqrt(x1) + 1/0", "sqrt of a negative value"),
            # the exponent is evaluated before the base is checked
            ("x1^sqrt(x1)", "sqrt of a negative value"),
            # a check runs even where its result is not needed
            ("sqrt(x1)^0", "sqrt of a negative value"),
            ("exp(-x1*1000)^0", "non-finite result"),
        ],
    )
    def test_checks_keep_evaluation_order(self, source, message):
        x = np.array([[1.0], [-1.0]])
        for evaluate in (eval_value, eval_dual):
            with pytest.raises(EvalDomainError, match=message) as err:
                evaluate(parse(source, 0, 1), np.zeros((2, 0)), x)
            assert err.value.element == 1

    def test_folded_constants_keep_the_sign_of_zero(self):
        value = eval_value(parse("(0*x1 + 1) * (-0*x2)", 0, 2), np.zeros(0), np.ones(2))
        assert value == 0.0 and np.signbit(value)

    def test_constant_step_runs_once_per_binding(self, monkeypatch):
        sin, calls = np.sin, []
        monkeypatch.setattr(np, "sin", lambda a: calls.append(np.shape(a)) or sin(a))
        program = expr.Program(parse("x1 * sin(2)", 0, 1), 1)
        assert calls == []  # compiling runs no step
        t, x = np.zeros((3, 0)), np.array([[1.0], [2.0], [3.0]])
        bound = program.dual(t)
        assert calls == [()]
        # F alone, grad F alone, both as a Dual, and a sample's all run it
        # from the binding
        for run in (bound.value, bound.gradient, bound, bound.sample):
            for _ in range(3):
                run(x)
        assert calls == [()]
        npt.assert_array_equal(bound.value(x), x[:, 0] * sin(2.0))
        npt.assert_array_equal(bound.gradient(x), np.full((3, 1), sin(2.0)))
        npt.assert_array_equal(bound(x).partials, np.full((3, 1), sin(2.0)))

    def test_moved_component_reruns_only_the_steps_it_reaches(self, monkeypatch):
        calls = []
        for name in ("sin", "cos"):
            fn = getattr(np, name)
            monkeypatch.setattr(np, name, lambda a, f=fn, k=name: calls.append(k) or f(a))
        pot = ExpressionPotential(
            "0.1 + (1 - cos(x1)) + 0.5*(1 - cos(2*pi*x2/3)) + 0.2*sin(2*pi*t1)*sin(x1)",
            1,
            2,
            periods=[2 * math.pi, 3.0],
        )
        sample = Sample(pot, SampleSpec(count=50, seed=2))
        calls.clear()
        report = check_periodicity(sample)
        # x1's sin and cos (sin first, emitted for cos(x1)'s derivative),
        # then x2's cos; a full evaluation runs all three for each component
        assert calls == ["sin", "cos", "cos"]
        assert report == check_periodicity(Sample(Unbound(pot), SampleSpec(count=50, seed=2)))

    def test_sample_reports_the_error_of_f_first(self):
        # at x1 = x2 = 0 the value+gradient program fails first at sqrt's
        # derivative, and F at the division
        bound = ExpressionPotential("sqrt(x1) + 1/x2", 1, 2).bind(np.zeros((2, 1)))
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(EvalDomainError, match="sqrt is not differentiable"):
            bound.gradient(x)
        with pytest.raises(EvalDomainError, match="division by zero") as err:
            bound.sample(x)
        assert (err.value.pos, err.value.element) == (12, 1)
        # where numpy raises, at 1/x1's derivative, which divides by x1^2 = 0
        bound = ExpressionPotential("1/x1 + 1/x2", 1, 2).bind(np.zeros((1, 1)))
        x = np.array([[1e-200, 0.0]])
        with np.errstate(divide="raise"), pytest.raises(EvalDomainError, match="division"):
            bound.sample(x)


class TestGradientProgram:
    """``_Bound.gradient`` runs the dual program's steps for grad F and every
    check, in their order: the partials of a full run, bit for bit, and
    the same EvalDomainError where a check fails."""

    WELL = "0.1 + (1 - cos(x1)) + 0.5*(1 - cos(2*pi*x2/3)) + 0.2*sin(2*pi*t1)*sin(x1)"

    def test_value_only_steps_are_left_out(self):
        bound = ExpressionPotential(self.WELL, 1, 2).bind(np.linspace(0.0, 1.0, 12)[:, None])
        assert set(bound.gradient_steps) < set(bound.steps)
        assert [s for s in bound.steps if s in bound.gradient_steps] == bound.gradient_steps
        x = np.random.default_rng(4).uniform(-8.0, 8.0, (12, 2))
        assert bound.gradient(x).tobytes() == bound(x).partials.tobytes()

    @pytest.mark.parametrize(
        "source, bad, message",
        [
            ("x2 * sqrt(x1 - 1)", 0.5, "sqrt of a negative value"),
            ("x1*x2 + x2 / (x1 - 2)", 2.0, "division by zero"),
            ("x2^2 + exp(100 * x1)", 8.0, "non-finite result"),
            ("x2 + x1^-2", 0.0, "zero base with a negative exponent"),
        ],
    )
    def test_errors_of_a_full_run(self, source, bad, message):
        bound = ExpressionPotential(source, 1, 2).bind(np.zeros((4, 1)))
        x = np.array([[3.0, 1.0], [3.0, 2.0], [bad, 3.0], [bad, 4.0]])
        errors = []
        for run in (bound, bound.gradient):
            with pytest.raises(EvalDomainError, match=message) as err:
                run(x)
            errors.append((str(err.value), err.value.pos, err.value.element))
        assert errors[0] == errors[1] and errors[0][2] == 2
        x[2:, 0] = 3.0
        assert bound.gradient(x).tobytes() == bound(x).partials.tobytes()


class TestOnGrid:
    """ExpressionPotential.bind at the node coordinates, whose program runs
    its t-only steps once, and a sample of it at one base draw, whose F at a
    point moved in one component re-runs only the steps that component
    reaches, against eval_value and eval_dual."""

    GRIDS = {1: ((2.0,), (7,)), 2: ((1.5, 2.0), (4, 3)), 3: ((1.0, 2.0, 1.5), (3, 4, 3))}

    @staticmethod
    def outcome(evaluate, *args):
        try:
            out = np.asarray(evaluate(*args))
        except EvalDomainError as err:
            return "error", err.message, err.pos, err.element
        return "ok", out.shape, out.dtype, np.ascontiguousarray(out).tobytes()

    def check(self, corpus, p, draw, base_draw=None):
        spec = GridSpec(*self.GRIDS[p], n=2)
        t = node_coordinates(spec)
        outcomes, moves = set(), set()
        for e, ast in enumerate(corpus):
            pot = ExpressionPotential(pretty(ast), p, 2)
            bound = pot.bind(t)
            rng = np.random.default_rng([p, e])
            x = draw(rng, spec.shape)
            value = self.outcome(eval_value, pot.program, t, x)
            partials = self.outcome(lambda *a: eval_dual(*a).partials, pot.program, t, x)
            for _ in range(2):  # the steps run once are not changed by a call
                assert self.outcome(bound.value, x) == value, pretty(ast)
                assert self.outcome(bound.gradient, x) == partials, pretty(ast)
            outcomes.add(value[0] if value[0] == "ok" else value[1])
            # a sample at a base draw: F and grad F from one run, where F fails
            # first, then F at the base moved to x in one component, through
            # the steps that component reaches
            base = (base_draw or draw)(rng, spec.shape)
            base_value = self.outcome(eval_value, pot.program, t, base)
            base_partials = self.outcome(lambda *a: eval_dual(*a).partials, pot.program, t, base)
            try:
                f, grad, moved = bound.sample(base)
            except EvalDomainError as err:
                failed = base_value if base_value[0] == "error" else base_partials
                assert ("error", err.message, err.pos, err.element) == failed, pretty(ast)
                continue
            assert (self.outcome(lambda: f), self.outcome(lambda: grad)) == (
                base_value, base_partials
            )
            for i in range(2):
                y = base.copy()
                y[..., i] = x[..., i]
                full = self.outcome(eval_value, pot.program, t, y)
                assert self.outcome(moved, i, y) == full, pretty(ast)
                moves.add(full[0] if full[0] == "ok" else full[1])
        return outcomes, moves

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bit_for_bit_on_expression_corpus(self, p):
        corpus = expression_corpus(120, seed=50 + p, p=p, n=2)
        outcomes, moves = self.check(corpus, p, lambda rng, shape: rng.uniform(-2.0, 2.0, shape))
        assert outcomes == moves == {"ok"}

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_errors_and_values_on_domain_corpus(self, p):
        corpus = domain_corpus(150, seed=60 + p, p=p, n=2)
        outcomes, moves = self.check(
            corpus,
            p,
            lambda rng, shape: rng.choice(DOMAIN_POINTS, shape),
            lambda rng, shape: np.full(shape, 0.5),  # where F is mostly defined
        )
        assert outcomes == moves == {
            "ok",
            "division by zero",
            "sqrt of a negative value",
            "zero base with a negative exponent",
            "'^' with a non-integer exponent needs a positive base",
            "non-finite result",
        }


class TestLineCol:
    def test_single_line(self):
        assert line_col("1 + $", 4) == (1, 5)

    def test_multi_line(self):
        assert line_col("1 +\n2 * $", 8) == (2, 5)


class TestExpressionPotential:
    def test_behaves_like_cosine_well(self):
        pot = ExpressionPotential("0.1 + 1 - cos(x1)", 1, 1, periods=[2 * math.pi])
        t = np.zeros((4, 1))
        x = np.array([[0.0], [math.pi], [2 * math.pi], [1.0]])
        npt.assert_allclose(
            pot.value(t, x)[:3], [0.1, 2.1, 0.1], rtol=0, atol=1e-14
        )
        npt.assert_allclose(pot.gradient(t, x)[:, 0], np.sin(x[:, 0]), atol=1e-15)

    def test_period_length_validated(self):
        with pytest.raises(ValueError, match="periods"):
            ExpressionPotential("x1", 1, 1, periods=[1.0, 2.0])

    def test_compiles_once_at_construction(self, monkeypatch):
        compiled = []

        class CountingProgram(expr.Program):
            __slots__ = ()

            def __init__(self, ast, n):
                compiled.append(ast)
                super().__init__(ast, n)

        monkeypatch.setattr(expr, "Program", CountingProgram)
        pot = ExpressionPotential("x1^2 + sin(2*pi*t1)*x2", 1, 2)
        assert len(compiled) == 1
        t = np.zeros((5, 1))
        x = np.ones((5, 2))
        for _ in range(3):
            pot.value(t, x)
            pot.gradient(t, x)
        assert len(compiled) == 1

    def test_parse_errors_surface_at_construction(self):
        with pytest.raises(ExprError):
            ExpressionPotential("cos(", 1, 1)
