"""Release acceptance suite.

Each test implements one criterion end to end at its stated tolerance and
prints a single PASS/FAIL line (run pytest with -s to see them inline).
"""

import json
import math
import time

import numpy as np
from poisson_grad import (
    CosineLattice,
    ExpressionPotential,
    Field,
    GridSpec,
    GrowthEnvelope,
    LinearForcing,
    action,
    action_gradient,
    check_minimizing_bounds,
    continuity_bound,
    el_residual,
    l2_inner,
    minimize,
    node_coordinates,
    solve_linear_poisson,
    split_mean,
    wirtinger_check,
    wirtinger_constant,
)
from poisson_grad.cli import main as cli_main
from poisson_grad.expr import ExprError, eval_dual, eval_value, parse, pretty
from poisson_grad.solver import SolverConfig

from helpers import expression_corpus, gaussian_field, random_field

TWO_PI = 2.0 * math.pi


def verdict(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_gradient_exactness():
    start = time.perf_counter()
    spec = GridSpec((1.0, 1.0), (8, 8), n=2)
    potentials = [
        CosineLattice(
            [1.0, 0.7], [TWO_PI, TWO_PI], floor=0.1, modulation=0.3,
            mod_axis=0, mod_extent=1.0, p=2,
        ),
        ExpressionPotential(
            "0.2 + (1 - cos(x1)) + 0.6*(1 - cos(x2)) "
            "+ 0.3*sin(2*pi*t1)*sin(x1) + 0.05*x2^2",
            2,
            2,
        ),
    ]
    rng = np.random.default_rng(2024)
    eps = 1e-6
    worst = 0.0
    pairs = 0
    for pot in potentials:
        for _ in range(25):
            u = random_field(spec, rng, 0.0, TWO_PI)
            direction = rng.standard_normal(spec.shape)
            direction /= np.sqrt(np.sum(direction**2))
            ip = l2_inner(action_gradient(u, pot), Field(spec, direction))
            fd = (
                action(Field(spec, u.values + eps * direction), pot).total
                - action(Field(spec, u.values - eps * direction), pot).total
            ) / (2.0 * eps)
            worst = max(worst, abs(fd - ip) / max(abs(ip), 1e-9))
            pairs += 1
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "gradient-exactness",
        worst <= 1e-6 and pairs == 50 and elapsed < 5.0,
        f"worst rel err {worst:.2e} over {pairs} pairs, {elapsed:.2f}s",
    )


def _solve_battery():
    """Solves run at tol_residual = 1e-8 for the certification criteria."""
    battery = []

    spec1 = GridSpec((1.0,), (32,), n=1)
    t1 = node_coordinates(spec1)[..., 0]
    f1 = Field(spec1, 0.01 * (np.sin(TWO_PI * t1) + 0.5 * np.cos(2 * TWO_PI * t1)))
    battery.append(("linear-p1", LinearForcing(f1), Field.zeros(spec1)))

    spec2 = GridSpec((1.0, 1.0), (16, 16), n=2)
    t2 = node_coordinates(spec2)
    f2 = Field(
        spec2,
        np.stack(
            [
                0.01 * (np.sin(TWO_PI * t2[..., 0]) + 0.3 * np.cos(2 * TWO_PI * t2[..., 1])),
                0.01 * (np.cos(TWO_PI * t2[..., 1]) - 0.5 * np.sin(TWO_PI * t2[..., 0])),
            ],
            axis=-1,
        ),
    )
    battery.append(("linear-p2", LinearForcing(f2), Field.zeros(spec2)))

    spec3 = GridSpec((1.0, 1.0), (16, 16), n=1)
    pot3 = CosineLattice([1.0], [TWO_PI], floor=0.1, p=2)
    battery.append(("pendulum", pot3, Field.constant(spec3, 0.6)))

    spec4 = GridSpec((1.0,), (16,), n=1)
    pot4 = CosineLattice([1.0], [TWO_PI], floor=1e-6, p=1)
    battery.append(("cosine-small-floor", pot4, Field.constant(spec4, 0.3)))

    cfg = SolverConfig(method="ncg", max_iters=20000, tol_residual=1e-8)
    runs = []
    for name, pot, init in battery:
        final, report = minimize(pot, init, cfg)
        runs.append((name, pot, final, report))
    return runs


def test_criterion_2_euler_lagrange_certification():
    runs = _solve_battery()
    converged = [r for r in runs if r[3].status == "converged"]
    ok = len(converged) >= 2
    detail = []
    worst_res = 0.0
    worst_gap = 0.0
    for name, pot, final, report in runs:
        residual, norms = el_residual(final, pot)
        grad = action_gradient(final, pot)
        gap = np.max(np.abs(residual.values + grad.values))
        scale = 1.0 + np.max(np.abs(grad.values))
        ok = ok and gap <= 1e-13 * scale
        worst_gap = max(worst_gap, gap / scale)
        if report.status == "converged":
            ok = ok and norms.l2 <= 1e-8 and report.final.residual_l2 <= 1e-8
            worst_res = max(worst_res, norms.l2)
        detail.append(f"{name}={report.status}")
    verdict(
        2,
        "euler-lagrange-certification",
        ok,
        f"{'; '.join(detail)}; worst converged residual {worst_res:.2e}, "
        f"worst residual/gradient gap {worst_gap:.2e}",
    )


def test_criterion_3_manufactured_solution():
    start = time.perf_counter()
    cfg = SolverConfig(method="ncg", max_iters=20000, tol_residual=1e-8)
    worst = 0.0
    for spec, modes in (
        (GridSpec((1.0,), (32,), n=1), 1),
        (GridSpec((1.0, 1.0), (16, 16), n=2), 2),
    ):
        t = node_coordinates(spec)
        if modes == 1:
            values = 0.01 * (np.sin(TWO_PI * t[..., 0]) + 0.5 * np.cos(2 * TWO_PI * t[..., 0]))
        else:
            values = np.stack(
                [
                    0.01 * np.sin(TWO_PI * t[..., 0]),
                    0.01 * np.cos(TWO_PI * t[..., 1]),
                ],
                axis=-1,
            )
        f = Field(spec, values)
        final, report = minimize(LinearForcing(f), Field.zeros(spec), cfg)
        oracle = solve_linear_poisson(Field(spec, -f.values))
        _, tilde = split_mean(final)
        worst = max(worst, float(np.max(np.abs(tilde.values - oracle.values))))
    elapsed = time.perf_counter() - start
    verdict(
        3,
        "manufactured-solution",
        worst <= 1e-6 and elapsed < 10.0,
        f"worst Linf distance to DFT oracle {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_direct_method_pipeline():
    start = time.perf_counter()
    spec = GridSpec((1.0, 1.0), (16, 16), n=1)
    pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=2)
    final, report = minimize(
        pot,
        Field.constant(spec, 0.6),
        SolverConfig(method="ncg", max_iters=20000, tol_residual=1e-8),
    )
    elapsed = time.perf_counter() - start
    target = 0.1 * spec.volume
    action_ok = abs(report.final.action_total - target) <= 1e-6 * target
    mean_ok = 0.0 <= report.final.mean[0] < TWO_PI
    audit = check_minimizing_bounds(report, spec, f_floor=0.0)
    totals = [r.action_total for r in report.iterations]
    monotone = all(b <= a for a, b in zip(totals, totals[1:]))
    ok = (
        action_ok
        and mean_ok
        and audit.energy_descent.passed
        and audit.wirtinger.passed
        and audit.mean_in_cell.passed
        and monotone
        and elapsed < 30.0
    )
    verdict(
        4,
        "direct-method-pipeline",
        ok,
        f"action {report.final.action_total:.12g} vs {target}, mean {report.final.mean[0]:.3e}, "
        f"audits {'pass' if audit.all_passed else 'fail'}, monotone {monotone}, {elapsed:.2f}s",
    )


def test_criterion_5_continuity_bound():
    spec = GridSpec((1.0,), (32,), n=1)
    pot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
    env = GrowthEnvelope(m=0.0, g_max=1.0)
    rng = np.random.default_rng(55)
    violations = 0
    for _ in range(200):
        u = random_field(spec, rng, 0.0, TWO_PI)
        v = random_field(spec, rng, 0.0, TWO_PI)
        if not continuity_bound(u, v, pot, env).passed:
            violations += 1
    v0 = random_field(spec, rng, 0.0, TWO_PI)
    delta = rng.standard_normal(spec.shape)
    previous = math.inf
    monotone = True
    dominated = True
    last = math.inf
    for k in range(40):
        u = Field(spec, v0.values + (0.5**k) * delta)
        bound = continuity_bound(u, v0, pot, env)
        monotone = monotone and bound.lhs <= previous
        dominated = dominated and bound.passed
        previous = bound.lhs
        last = bound.lhs
    ok = violations == 0 and monotone and dominated and last <= 1e-7
    verdict(
        5,
        "continuity-bound",
        ok,
        f"{violations} violations in 200 pairs; shrinking sequence monotone={monotone}, "
        f"dominated={dominated}, final gap {last:.2e}",
    )


def test_criterion_6_wirtinger_suite():
    spec = GridSpec((1.0, 1.0), (8, 8), n=2)
    rng = np.random.default_rng(66)
    all_pass = all(
        wirtinger_check(split_mean(gaussian_field(spec, rng))[1]).passed
        for _ in range(100)
    )
    # lowest mode on a single axis achieves the constant
    line = GridSpec((1.0,), (32,), n=1)
    t = node_coordinates(line)[..., 0]
    mode = wirtinger_check(Field(line, np.sin(TWO_PI * t)))
    equality_gap = abs(mode.lhs - mode.rhs) / mode.rhs
    envelope_ok = True
    worst_env = 0.0
    extent = 1.0
    for nodes in (8, 16, 32, 64):
        c_h = wirtinger_constant(GridSpec((extent,), (nodes,), n=1))
        gap = abs(c_h - extent / TWO_PI)
        cap = 1.1 * extent * math.pi / (12.0 * nodes**2)
        envelope_ok = envelope_ok and gap <= cap
        worst_env = max(worst_env, gap / cap)
    ok = all_pass and equality_gap <= 1e-12 and envelope_ok
    verdict(
        6,
        "wirtinger-suite",
        ok,
        f"100 random fields pass={all_pass}, lowest-mode equality gap {equality_gap:.2e}, "
        f"constant envelope worst ratio {worst_env:.2f}",
    )


def test_criterion_7_lattice_shift_invariance():
    spec = GridSpec((1.0,), (32,), n=2)
    pot = CosineLattice([1.0, 0.5], [TWO_PI, 4.0], floor=0.1, p=1)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        u = random_field(spec, rng, 0.0, 4.0)
        base = action(u, pot).total
        for i in range(2):
            offset = np.zeros(2)
            offset[i] = pot.periods[i]
            worst = max(worst, abs(action(u.shifted(offset), pot).total - base) / abs(base))
    # a run that genuinely canonicalizes: start below the cell so shifts fire
    line = GridSpec((1.0,), (16,), n=1)
    lpot = CosineLattice([1.0], [TWO_PI], floor=0.1, p=1)
    _, report = minimize(
        lpot, Field.constant(line, -0.4), SolverConfig(max_iters=5000)
    )
    shifted_iters = [r for r in report.iterations if r.shifts and any(r.shifts)]
    gauge_ok = all(
        r.gauge_dev <= 1e-12 * (1.0 + abs(r.action_total))
        for r in report.iterations
        if r.gauge_dev is not None
    )
    ok = worst <= 1e-12 and len(shifted_iters) >= 1 and gauge_ok
    verdict(
        7,
        "lattice-shift-invariance",
        ok,
        f"worst action deviation {worst:.2e} over 50 fields x 2 components; "
        f"{len(shifted_iters)} canonicalizing iterations, gauge ok={gauge_ok}",
    )


MALFORMED = [
    ("1 $ 2", 2),
    ("1 + * 2", 4),
    ("cos(", 4),
    ("(1 + 2", 6),
    ("1 2", 2),
    ("", 0),
    ("sin 3", 4),
    ("sin(1, 2)", 5),
    ("y1 + 2", 0),
    ("t3 * x1", 0),
    ("2 ^", 3),
    ("1e999", 0),
]


def test_criterion_8_expression_parser():
    corpus = expression_corpus(200, seed=808, p=2, n=2)
    rng = np.random.default_rng(909)
    worst = 0.0
    round_trip = True
    for ast in corpus:
        round_trip = round_trip and parse(pretty(ast), 2, 2) == ast
        t = rng.uniform(0.1, 1.9, 2)
        x = rng.uniform(0.1, 1.9, 2)
        d = eval_dual(ast, t, x)
        step = 1e-6 * (1.0 + np.linalg.norm(x))
        for i in range(2):
            hi, lo = x.copy(), x.copy()
            hi[i] += step
            lo[i] -= step
            fd = (eval_value(ast, t, hi) - eval_value(ast, t, lo)) / (2.0 * step)
            worst = max(worst, abs(fd - d.partials[i]) / (1.0 + abs(d.partials[i])))
    positioned = True
    for source, pos in MALFORMED:
        try:
            parse(source, 2, 2)
            positioned = False
        except ExprError as err:
            positioned = positioned and err.pos == pos
    ok = worst <= 1e-7 and round_trip and positioned
    verdict(
        8,
        "expression-parser",
        ok,
        f"200-expression corpus: worst gradient rel err {worst:.2e}, "
        f"round trip={round_trip}, {len(MALFORMED)} malformed all positioned={positioned}",
    )


def test_criterion_9_run_determinism(tmp_path, monkeypatch):
    config = {
        "grid": {"p": 2, "n": 1, "extents": [1.0, 1.0], "nodes": [16, 16]},
        "potential": {
            "kind": "cosine",
            "amplitudes": [1.0],
            "periods": [TWO_PI],
            "floor": 0.1,
        },
        "init": {"kind": "random", "seed": 7},
        "solver": {"method": "ncg", "max_iters": 500, "tol_residual": 1e-8},
        "output": {"field_csv": "field.csv", "report_json": "report.json"},
        "checks": {"samples": 500, "seed": 3},
    }
    outputs = []
    for sub in ("run_a", "run_b"):
        d = tmp_path / sub
        d.mkdir()
        (d / "config.json").write_text(json.dumps(config))
        monkeypatch.chdir(d)
        code = cli_main(["--quiet", "solve", "config.json"])
        assert code in (0, 2)
        outputs.append(
            ((d / "field.csv").read_bytes(), (d / "report.json").read_text())
        )
    fields_equal = outputs[0][0] == outputs[1][0]
    kept = []
    dropped = []
    for _, text in outputs:
        lines = text.splitlines()
        kept.append([ln for ln in lines if '"timestamp"' not in ln])
        dropped.append(len(lines) - len(kept[-1]))
    reports_equal = kept[0] == kept[1] and dropped == [1, 1]
    ok = fields_equal and reports_equal
    verdict(
        9,
        "run-determinism",
        ok,
        f"field CSVs identical={fields_equal}, reports identical modulo "
        f"timestamp={reports_equal}",
    )
