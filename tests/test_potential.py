import numpy as np
import numpy.testing as npt
import pytest

from poisson_grad import (
    CosineLattice,
    Field,
    GridSpec,
    GrowthEnvelope,
    LinearForcing,
    Sample,
    SampleSpec,
    ShiftedQuadratic,
    check_grad_consistency,
    check_gradient_growth,
    check_periodicity,
    check_positivity,
    minimize,
    node_coordinates,
)
from poisson_grad.action import action_gradient
from poisson_grad.potential import BoundPotential
from poisson_grad.solver import SolverConfig
from poisson_grad.verify import el_residual

TWO_PI = 2.0 * np.pi

SAMPLER = SampleSpec(count=1000, seed=0, t_extents=(1.0,))
BIG_SAMPLER = SampleSpec(count=10000, seed=1, t_extents=(1.0,))


def cosine(**kw):
    defaults = dict(amplitudes=[1.0], periods=[TWO_PI], floor=0.1, p=1)
    defaults.update(kw)
    return CosineLattice(**defaults)


class TestCosineLattice:
    def test_value_at_origin_is_floor(self):
        pot = cosine(floor=0.1)
        assert pot.value(np.zeros(1), np.zeros(1)) == pytest.approx(0.1, abs=0)

    def test_value_at_lattice_points_is_floor(self):
        pot = cosine()
        for k in (-2, -1, 1, 3):
            v = pot.value(np.zeros(1), np.array([k * TWO_PI]))
            assert v == pytest.approx(pot.floor, abs=1e-14)

    def test_floor_is_global_minimum_without_modulation(self):
        pot = cosine()
        rng = np.random.default_rng(2)
        x = rng.uniform(-20, 20, (500, 1))
        assert np.all(pot.value(np.zeros((500, 1)), x) >= pot.floor)

    def test_modulation_varies_in_time(self):
        pot = cosine(modulation=0.5, mod_axis=0, mod_extent=1.0)
        x = np.array([np.pi])
        hi = pot.value(np.array([0.0]), x)
        lo = pot.value(np.array([0.5]), x)
        assert hi == pytest.approx(0.1 + 1.5 * 2.0)
        assert lo == pytest.approx(0.1 + 0.5 * 2.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(floor=0.0),
            dict(floor=-1.0),
            dict(modulation=1.0),
            dict(amplitudes=[0.0]),
            dict(periods=[-1.0]),
            dict(amplitudes=[1.0, 2.0]),
        ],
    )
    def test_invalid_construction(self, kw):
        with pytest.raises(ValueError):
            cosine(**kw)


class TestChecks:
    def test_cosine_periodicity_passes(self):
        report = check_periodicity(cosine(), SAMPLER)
        assert report.passed and report.worst <= 1e-12

    def test_expression_style_periodic_by_value(self):
        # same content as a parsed "1 - cos(x1)" potential with P = 2 pi
        pot = cosine(floor=1e-9)
        report = check_periodicity(pot, SAMPLER)
        assert report.passed

    def test_wrongly_declared_periods_fail(self):
        quad = ShiftedQuadratic([0.0], floor=1.0)
        quad.periods = np.array([1.0])  # bogus claim
        report = check_periodicity(quad, SAMPLER)
        assert not report.passed and report.worst > 0.0

    def test_periodicity_requires_periods(self):
        with pytest.raises(ValueError, match="periods"):
            check_periodicity(ShiftedQuadratic([0.0]), SAMPLER)

    def test_positivity_cosine(self):
        report = check_positivity(cosine(floor=0.1), SAMPLER)
        assert report.passed and report.worst >= 0.1

    def test_positivity_linear_forcing_fails(self):
        spec = GridSpec((1.0,), (8,), n=1)
        t = node_coordinates(spec)[..., 0]
        pot = LinearForcing(Field(spec, 0.5 * np.sin(2 * np.pi * t)))
        report = check_positivity(pot, SAMPLER)
        assert not report.passed and report.worst < 0.0

    def test_positivity_quadratic(self):
        report = check_positivity(ShiftedQuadratic([0.5], floor=1.0), SAMPLER)
        assert report.passed and report.worst >= 1.0

    def test_growth_cosine_unit_envelope(self):
        report = check_gradient_growth(
            cosine(), GrowthEnvelope(m=0.0, g_max=1.0), SAMPLER
        )
        assert report.passed and report.worst <= 0.0

    def test_growth_quadratic(self):
        center = [3.0, -4.0]
        pot = ShiftedQuadratic(center, floor=1.0)
        report = check_gradient_growth(pot, GrowthEnvelope(m=1.0, g_max=5.0), SAMPLER)
        assert report.passed

    def test_growth_zero_envelope_fails(self):
        report = check_gradient_growth(
            cosine(), GrowthEnvelope(m=0.0, g_max=0.0), SAMPLER
        )
        assert not report.passed and "violations" in report.detail

    def test_grad_consistency_quadratic_tight(self):
        report = check_grad_consistency(ShiftedQuadratic([1.5], floor=1.0), SAMPLER)
        assert report.passed and report.worst <= 1e-7

    def test_grad_consistency_cosine(self):
        assert check_grad_consistency(cosine(), SAMPLER).passed

    def test_grad_consistency_detects_corruption(self):
        # the checks evaluate through bind: a built-in corrupts what its own
        # bind returns, a custom potential's gradient is what the base bind
        # calls
        class DoubledBound(CosineLattice):
            def bind(self, t):
                bound = super().bind(t)
                return BoundPotential(bound.value, lambda x: 2.0 * bound.gradient(x))

        class DoubledGradient(ShiftedQuadratic):
            def gradient(self, t, x):
                return 2.0 * super().gradient(t, x)

        for pot in (DoubledBound([1.0], [TWO_PI], p=1), DoubledGradient([1.5])):
            assert not check_grad_consistency(pot, SAMPLER).passed


class TestDeclaredEnvelopes:
    @pytest.mark.parametrize(
        "pot",
        [
            cosine(),
            cosine(amplitudes=[1.0, 0.5], periods=[TWO_PI, 4.0], modulation=0.3),
            ShiftedQuadratic([1.0, -2.0], floor=0.5),
        ],
        ids=["cosine", "cosine-modulated", "quadratic"],
    )
    def test_builtin_envelope_has_zero_violations(self, pot):
        report = check_gradient_growth(pot, pot.growth, BIG_SAMPLER)
        assert report.passed

    def test_linear_forcing_envelope(self):
        spec = GridSpec((1.0,), (16,), n=2)
        rng = np.random.default_rng(9)
        pot = LinearForcing(Field(spec, rng.standard_normal(spec.shape)))
        report = check_gradient_growth(pot, pot.growth, BIG_SAMPLER)
        assert report.passed

    @pytest.mark.parametrize(
        "pot",
        [cosine(modulation=0.4), ShiftedQuadratic([2.0], floor=1.0)],
        ids=["cosine", "quadratic"],
    )
    def test_builtin_gradients_match_fd(self, pot):
        report = check_grad_consistency(pot, SAMPLER)
        assert report.passed and report.worst <= 1e-5


class TestLinearForcing:
    def test_gradient_is_minus_forcing_at_nodes(self):
        spec = GridSpec((1.0,), (8,), n=2)
        rng = np.random.default_rng(4)
        f = Field(spec, rng.standard_normal(spec.shape))
        pot = LinearForcing(f)
        coords = node_coordinates(spec)
        npt.assert_array_equal(pot.gradient(coords, np.zeros(spec.shape)), -f.values)

    def test_value_is_minus_pairing(self):
        spec = GridSpec((1.0,), (8,), n=1)
        f = Field(spec, np.arange(8.0))
        pot = LinearForcing(f)
        x = np.full((8, 1), 2.0)
        npt.assert_allclose(
            pot.value(node_coordinates(spec), x), -2.0 * np.arange(8.0)
        )

    def test_nearest_node_snap(self):
        spec = GridSpec((1.0,), (4,), n=1)
        pot = LinearForcing(Field(spec, np.array([0.0, 1.0, 2.0, 3.0])))
        # t = 0.26 snaps to node 1 (t = 0.25)
        assert pot.value(np.array([0.26]), np.array([1.0])) == -1.0


def bits(a) -> tuple:
    a = np.asarray(a)
    return a.shape, a.dtype, np.ascontiguousarray(a).tobytes()


class TestOnGrid:
    """Potential.bind at a grid's node coordinates, and at a drawn sample's
    t, against value and gradient, bit for bit."""

    @pytest.mark.parametrize(
        "pot, spec",
        [
            (cosine(), GridSpec((1.0,), (12,), n=1)),
            (cosine(modulation=0.5), GridSpec((1.0,), (12,), n=1)),
            (
                CosineLattice(
                    [1.0, 3.0], [TWO_PI, 2.0], modulation=-0.3, mod_axis=1, mod_extent=2.0, p=2
                ),
                GridSpec((1.0, 2.0), (6, 5), n=2),
            ),
            (ShiftedQuadratic([0.5, -1.0], p=2), GridSpec((1.0, 1.0), (4, 3), n=2)),
        ],
    )
    def test_bound_evaluations_match_unbound_bit_for_bit(self, pot, spec):
        t = node_coordinates(spec)
        sample = Sample(pot, SampleSpec(count=50, seed=2, t_extents=spec.extents))
        x = np.random.default_rng(3).uniform(-4.0, 4.0, spec.shape)
        for t, x in ((t, x), (sample.t, sample.x)):
            bound = pot.bind(t)
            for _ in range(2):  # what is computed once is not changed by a call
                assert bits(bound.value(x)) == bits(pot.value(t, x))
                assert bits(bound.gradient(x)) == bits(pot.gradient(t, x))

    def test_linear_forcing_bound_matches_unbound_bit_for_bit(self):
        spec = GridSpec((1.0, 2.0), (5, 4), n=2)
        rng = np.random.default_rng(8)
        pot = LinearForcing(Field(spec, rng.standard_normal(spec.shape)))
        sample = Sample(pot, SampleSpec(count=50, seed=2, t_extents=spec.extents))
        x = rng.standard_normal(spec.shape)
        for t, x in ((node_coordinates(spec), x), (sample.t, sample.x)):
            bound = pot.bind(t)
            for _ in range(2):
                assert bits(bound.value(x)) == bits(pot.value(t, x))
                assert bits(bound.gradient(x)) == bits(pot.gradient(t, x))

    def test_linear_forcing_on_its_own_grid_is_the_forcing(self):
        spec = GridSpec((1.0, 1.0), (256, 256), n=2)
        forcing = Field(spec, np.random.default_rng(9).standard_normal(spec.shape))
        pot = LinearForcing(forcing)
        t = node_coordinates(spec)
        x = np.zeros(spec.shape)
        assert pot._forcing_at(t) is forcing.values
        assert bits(pot.bind(t).gradient(x)) == bits(-forcing.values)
        # another grid still looks the forcing up at its nodes
        half = GridSpec((1.0, 1.0), (128, 128), n=2)
        gradient = pot.bind(node_coordinates(half)).gradient(np.zeros(half.shape))
        assert bits(gradient) == bits(-forcing.values[::2, ::2])

    def test_subclass_overriding_only_gradient_is_called(self):
        calls = []

        class Counted(ShiftedQuadratic):
            def gradient(self, t, x):
                calls.append(np.shape(t))
                return super().gradient(t, x)

        spec = GridSpec((1.0,), (8,), n=1)
        pot = Counted([0.25], p=1)
        u = Field(spec, np.linspace(-1.0, 1.0, 8))
        action_gradient(u, pot)
        assert calls == [(8, 1)]
        el_residual(u, pot)
        assert len(calls) == 3  # each assembly evaluates grad F
        _, report = minimize(pot, u, SolverConfig(tol_residual=1e-8))
        assert report.converged
        assert len(calls) == 3 + len(report.iterations)


class TestGrowthEnvelope:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GrowthEnvelope(m=-1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GrowthEnvelope(g_max=np.inf)


class TestSampleSpec:
    def test_draw_is_deterministic_and_shaped(self):
        spec = SampleSpec(count=17, seed=5, t_extents=(1.0, 2.0))
        t1, x1 = spec.draw(4)
        t2, x2 = spec.draw(4)
        npt.assert_array_equal(t1, t2)
        npt.assert_array_equal(x1, x2)
        assert t1.shape == (17, 2) and x1.shape == (17, 4)
        assert np.all(t1[:, 0] < 1.0) and np.all(t1[:, 1] < 2.0)
        # x fills the fixed cube [-8, 8]^n
        assert np.all(np.abs(x1) <= 8.0) and np.abs(x1).max() > 7.0

    @pytest.mark.parametrize("kw", [{"count": 0}, {"count": -3}])
    def test_invalid_plan_rejected(self, kw):
        with pytest.raises(ValueError):
            SampleSpec(**kw)
