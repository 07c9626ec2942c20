import gc
import warnings
import weakref
from pathlib import Path

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
from poisson_grad import cli
from poisson_grad.cli import run_checks
from poisson_grad.potential import BoundPotential, declared_periods
from poisson_grad.solver import SolverConfig, random_init
from poisson_grad.verify import el_residual

from helpers import Unbound, peak_transient

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
            dict(periods=[0.0]),
            dict(periods=[np.inf]),
        ],
    )
    def test_invalid_construction(self, kw):
        with pytest.raises(ValueError):
            cosine(**kw)


BAD_PERIODS = [[0.0], [-1.0], [np.nan], [np.inf], [1.0, 2.0], [[1.0]]]


class TestDeclaredPeriods:
    @pytest.mark.parametrize("periods", BAD_PERIODS)
    def test_rejected(self, periods):
        with pytest.raises(ValueError, match="need 1 positive periods, got"):
            declared_periods(periods, 1)

    @pytest.mark.parametrize("periods", BAD_PERIODS)
    def test_random_init_rejects(self, periods):
        spec = GridSpec((1.0,), (8,), n=1)
        with pytest.raises(ValueError, match="need 1 positive periods, got"):
            random_init(spec, periods=periods, seed=0)

    def test_read_only_copy(self):
        given = np.array([TWO_PI, 3.0])
        periods = declared_periods(given, 2)
        assert periods.dtype == np.float64 and not periods.flags.writeable
        assert given.flags.writeable
        npt.assert_array_equal(periods, given)
        assert declared_periods(None, 2) is None


class TestChecks:
    def test_cosine_periodicity_passes(self):
        report = check_periodicity(Sample(cosine(), SAMPLER))
        assert report.passed and report.worst <= 1e-12

    def test_expression_style_periodic_by_value(self):
        # same content as a parsed "1 - cos(x1)" potential with P = 2 pi
        pot = cosine(floor=1e-9)
        report = check_periodicity(Sample(pot, SAMPLER))
        assert report.passed

    def test_wrongly_declared_periods_fail(self):
        quad = ShiftedQuadratic([0.0], floor=1.0, periods=[1.0])  # bogus claim
        report = check_periodicity(Sample(quad, SAMPLER))
        assert not report.passed and report.worst > 0.0

    def test_periodicity_requires_periods(self):
        with pytest.raises(ValueError, match="periods"):
            check_periodicity(Sample(ShiftedQuadratic([0.0]), SAMPLER))

    def test_positivity_cosine(self):
        report = check_positivity(Sample(cosine(floor=0.1), SAMPLER))
        assert report.passed and report.worst >= 0.1

    def test_positivity_linear_forcing_fails(self):
        spec = GridSpec((1.0,), (8,), n=1)
        t = node_coordinates(spec)[..., 0]
        pot = LinearForcing(Field(spec, 0.5 * np.sin(2 * np.pi * t)))
        report = check_positivity(Sample(pot, SAMPLER))
        assert not report.passed and report.worst < 0.0

    def test_positivity_quadratic(self):
        report = check_positivity(Sample(ShiftedQuadratic([0.5], floor=1.0), SAMPLER))
        assert report.passed and report.worst >= 1.0

    def test_growth_cosine_unit_envelope(self):
        pot = cosine()
        pot.growth = GrowthEnvelope(m=0.0, g_max=1.0)
        report = check_gradient_growth(Sample(pot, SAMPLER))
        assert report.passed and report.worst <= 0.0

    def test_growth_quadratic(self):
        center = [3.0, -4.0]
        pot = ShiftedQuadratic(center, floor=1.0)
        pot.growth = GrowthEnvelope(m=1.0, g_max=5.0)
        report = check_gradient_growth(Sample(pot, SAMPLER))
        assert report.passed

    def test_growth_zero_envelope_fails(self):
        pot = cosine()
        pot.growth = GrowthEnvelope(m=0.0, g_max=0.0)
        report = check_gradient_growth(Sample(pot, SAMPLER))
        assert not report.passed and "violations" in report.detail

    def test_growth_requires_envelope(self):
        pot = cosine()
        pot.growth = None
        with pytest.raises(ValueError, match="growth envelope"):
            check_gradient_growth(Sample(pot, SAMPLER))

    def test_grad_consistency_quadratic_tight(self):
        report = check_grad_consistency(Sample(ShiftedQuadratic([1.5], floor=1.0), SAMPLER))
        assert report.passed and report.worst <= 1e-7

    def test_grad_consistency_cosine(self):
        assert check_grad_consistency(Sample(cosine(), SAMPLER)).passed

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
            assert not check_grad_consistency(Sample(pot, SAMPLER)).passed

    def test_non_finite_samples_fail_every_check_that_reads_them(self):
        # where x1 > 6, F is +inf and grad F is nan; elsewhere every check
        # holds.  Each check fails, counts the samples whose quantity is not
        # finite and takes its worst over the others; the check phase
        # enters fp_policy, so numpy warns of none of the inf or nan
        class Spiked(ShiftedQuadratic):
            def value(self, t, x):
                return np.where(x[..., 0] > 6.0, np.inf, super().value(t, x))

            def gradient(self, t, x):
                return np.where(x[..., :1] > 6.0, np.nan, super().gradient(t, x))

        pot = Spiked([0.0], floor=1.0, periods=[1.0])
        pot.growth = GrowthEnvelope(m=1.0, g_max=0.0)
        reports, _ = run_checks(pot, SAMPLER)  # under fp_policy
        assert [r.name for r in reports] == [
            "periodicity", "positivity", "gradient_growth", "grad_consistency",
        ]
        x1 = SAMPLER.draw(pot.n)[1][:, 0]
        spiked = int(np.count_nonzero(x1 > 6.0))
        # the periodicity check also reads F at x1 + 1
        expected = [int(np.count_nonzero(x1 > 5.0)), spiked, spiked, spiked]
        assert spiked > 0
        for report, count in zip(reports, expected):
            assert not report.passed and np.isfinite(report.worst)
            assert report.detail.endswith(f"; {count} samples not finite")
        assert reports[1].worst == 1.0 + 0.5 * np.min(x1[x1 <= 6.0] ** 2)
        assert reports[2].detail.startswith("0 violations")


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
        report = check_gradient_growth(Sample(pot, BIG_SAMPLER))
        assert report.passed

    @pytest.mark.parametrize(
        "build, g_max",
        [
            (lambda: CosineLattice([1e160], [TWO_PI]), 1e160),
            (lambda: ShiftedQuadratic([1e200, 0.0]), 1e200),
        ],
        ids=["cosine", "quadratic"],
    )
    def test_envelope_where_the_squares_overflow(self, build, g_max):
        # the squares of the rates and of the center overflow, their norms
        # do not, and no overflow warning escapes the constructor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build().growth.g_max == g_max

    def test_linear_forcing_envelope(self):
        spec = GridSpec((1.0,), (16,), n=2)
        rng = np.random.default_rng(9)
        pot = LinearForcing(Field(spec, rng.standard_normal(spec.shape)))
        report = check_gradient_growth(Sample(pot, BIG_SAMPLER))
        assert report.passed

    @pytest.mark.parametrize(
        "pot",
        [cosine(modulation=0.4), ShiftedQuadratic([2.0], floor=1.0)],
        ids=["cosine", "quadratic"],
    )
    def test_builtin_gradients_match_fd(self, pot):
        report = check_grad_consistency(Sample(pot, SAMPLER))
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

    def test_growth_bound_is_the_largest_node_norm(self):
        # the plain norm, bit for bit, wherever its squares do not overflow
        spec = GridSpec((1.0, 1.0), (6, 5), n=3)
        f = np.random.default_rng(7).standard_normal(spec.shape) * 1e100
        pot = LinearForcing(Field(spec, f))
        assert pot.growth.g_max == float(np.sqrt(np.sum(f**2, axis=-1)).max())

    def test_growth_bound_where_the_squares_overflow(self):
        # the scaled norm at the nodes whose squares overflow: 5e200 and 1e160
        spec = GridSpec((1.0,), (3,), n=2)
        f = np.array([[1.0, 2.0], [3e200, -4e200], [0.0, -1e160]])
        npt.assert_allclose(LinearForcing(Field(spec, f)).growth.g_max, 5e200, rtol=1e-15)
        assert LinearForcing(Field(spec, f[[0, 2, 2]])).growth.g_max == 1e160

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


def shipped(name: str):
    """The potential and sampling plan of a shipped config."""
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    spec = cli.build_grid(cfg)
    return cli.build_potential(cfg, spec), cli.build_sampler(cfg, spec)


def built(name: str):
    """A potential of a kind that no shipped config uses, and a sampling plan."""
    spec = GridSpec((1.0, 2.0), (8, 6), n=2)
    sampler = SampleSpec(count=500, seed=3, t_extents=spec.extents)
    if name == "quadratic":
        return ShiftedQuadratic([0.5, -1.0], p=2, periods=[1.0, 2.0]), sampler
    forcing = np.random.default_rng(4).standard_normal(spec.shape)
    return LinearForcing(Field(spec, forcing)), sampler


class TestSampleEvaluation:
    @pytest.mark.parametrize(
        "name", ["pendulum", "expression_well", "stiff_cosine", "quadratic", "linear"]
    )
    def test_checks_equal_unbound_evaluation(self, name):
        # every bound potential answers sample: an expression's runs its
        # program once at the draw and, at a moved point, only the steps
        # that the moved component reaches, and a BoundPotential's evaluates
        # F and grad F in full
        pot, sampler = built(name) if name in ("quadratic", "linear") else shipped(name)
        assert run_checks(pot, sampler) == run_checks(Unbound(pot), sampler)

    def test_expression_check_phase_peak(self):
        # 200 000 samples of configs/expression_well.json, n = 2: the check
        # phase peaked at 16.0 times the draw's x bytes while every check
        # evaluated F in full, and at 21.5 times when a sample kept every
        # register of its run at the draw; it keeps only those that a moved
        # point reads, and peaks at 14.0 times
        pot, sampler = shipped("expression_well")
        big = SampleSpec(count=200_000, seed=sampler.seed, t_extents=sampler.t_extents)
        run_checks(pot, SampleSpec(count=10, t_extents=sampler.t_extents))
        peak = peak_transient(run_checks, pot, big)
        x_bytes = big.count * pot.n * 8
        assert peak <= 15.0 * x_bytes, peak / x_bytes

    @pytest.mark.parametrize("name", ["pendulum", "expression_well"])
    def test_sample_is_freed_without_the_cycle_collector(self, name):
        pot, sampler = shipped(name)
        gc.disable()
        try:
            sample = Sample(pot, sampler)
            check_periodicity(sample)
            freed = weakref.ref(sample)
            del sample
            assert freed() is None
        finally:
            gc.enable()
