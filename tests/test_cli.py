import gzip
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from poisson_grad import Field, GridSpec, cli, expr, laplacian, node_coordinates, solver
from poisson_grad.cli import (
    FormatError,
    main,
    read_field_csv,
    write_field_csv,
)
from poisson_grad.potential import BoundPotential, CheckReport
from poisson_grad.solver import BoundAudit, BoundResult
from poisson_grad.verify import Certificate

from helpers import gaussian_field, peak_transient

TWO_PI = 2.0 * math.pi


def write_config(path, **overrides):
    cfg = {
        "grid": {"p": 2, "n": 1, "extents": [1.0, 1.0], "nodes": [16, 16]},
        "potential": {
            "kind": "cosine",
            "amplitudes": [1.0],
            "periods": [TWO_PI],
            "floor": 0.1,
        },
        "init": {"kind": "constant", "value": 0.6},
        "solver": {"method": "ncg", "max_iters": 20000, "tol_residual": 1e-8},
        "output": {
            "field_csv": str(path.parent / "field.csv"),
            "report_json": str(path.parent / "report.json"),
        },
        "checks": {"samples": 500, "seed": 1},
    }
    for key, value in overrides.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return cfg


def _cosine_series(terms):
    """F = 1 + sum of 0.001 k (1 - cos(k x1)) for k = 1..terms, one left-deep sum."""
    return "1 + " + " + ".join(
        f"{0.001 * (k + 1)}*(1 - cos({k + 1}*x1))" for k in range(terms)
    )


def reference_csv(spec, values):
    """The field CSV format spelled out one node and one cell at a time."""
    header = [f"t{a + 1}" for a in range(spec.p)] + [f"u{i + 1}" for i in range(spec.n)]
    lines = [",".join(header)]
    for idx in np.ndindex(*values.shape[:-1]):
        row = [k * h for k, h in zip(idx, spec.spacings)] + [float(v) for v in values[idx]]
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


# signed zero, the smallest subnormal, extreme exponents, and values that
# only round-trip with all 17 significant digits
GOLDEN_VALUES = [
    -0.0,
    5e-324,
    1e300,
    -1e300,
    0.1 + 0.2,
    1.0 / 3.0,
    float(np.nextafter(1.0, 2.0)),
    -2.2250738585072014e-308,
    123456789.12345678,
]


class TestConfigValidation:
    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json")]) == 3

    def test_not_json(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("nodes = [16]")
        assert main(["solve", str(cfg)]) == 3

    def test_unknown_section(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        body = json.loads(cfg.read_text())
        body["plotting"] = {}
        cfg.write_text(json.dumps(body))
        assert main(["solve", str(cfg)]) == 3

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8], "spacing": 0.1})
        assert main(["solve", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "section, key",
        [
            ({"solver": {"canonicalize_every": 1}}, "solver.canonicalize_every"),
            (
                {"potential": {"kind": "expr", "expr": "1", "growth": {"slope": 1.0}}},
                "potential.growth.slope",
            ),
            # solver constants, the fixed check list, and growth
            # coefficients that nothing read are not keys
            ({"solver": {"tol_action": 1e-16}}, "solver.tol_action"),
            ({"solver": {"armijo_c1": 1e-4}}, "solver.armijo_c1"),
            ({"solver": {"backtrack_factor": 0.5}}, "solver.backtrack_factor"),
            ({"checks": {"names": ["positivity"]}}, "checks.names"),
            *[
                (
                    {"potential": {"kind": "expr", "expr": "1", "growth": {key: 1.0}}},
                    f"potential.growth.{key}",
                )
                for key in ("a0", "a_slope", "b_max")
            ],
            # the line search's first step and the sampling box are constants
            ({"solver": {"initial_step": 1.0}}, "solver.initial_step"),
            ({"checks": {"x_radius": 8.0}}, "checks.x_radius"),
            # a random start reads its seed from --seed or init.seed alone
            ({"solver": {"rng_seed": 0}}, "solver.rng_seed"),
        ],
    )
    def test_unknown_solver_or_growth_key(self, tmp_path, capsys, section, key):
        cfg = tmp_path / "c.json"
        write_config(cfg, **section)
        assert main(["solve", str(cfg)]) == 3
        assert f"error: unknown config key {key}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, kind",
        [
            # a cosine lattice derives its own envelope
            ({"growth": {"m": 0.0, "g_max": 0.001}}, "cosine"),
            ({"floor": 0.1}, "expr"),
            ({"modulation": 0.5}, "expr"),
            ({"center": [0.0]}, "linear"),
        ],
    )
    def test_key_of_another_kind(self, tmp_path, capsys, extra, kind):
        potential = {
            "cosine": {"kind": "cosine", "periods": [TWO_PI]},
            "expr": {"kind": "expr", "expr": "1.1 - cos(x1)"},
            "linear": {"kind": "linear", "forcing_csv": str(tmp_path / "f.csv")},
        }[kind]
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        write_field_csv(tmp_path / "f.csv", Field.zeros(spec))
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={**potential, **extra})
        assert main(["check", str(cfg)]) == 3
        key = next(iter(extra))
        assert capsys.readouterr().err == (
            f"error: config key potential.{key} is not read by kind '{kind}'\n"
        )

    @pytest.mark.parametrize(
        "init, key, kind",
        [
            ({"kind": "constant", "value": 0.6, "seed": 7}, "seed", "constant"),
            ({"kind": "constant", "value": 0.6, "path": "x.csv"}, "path", "constant"),
            ({"kind": "random", "value": 0.6}, "value", "random"),
            ({"kind": "csv", "path": "u0.csv", "value": 0.6}, "value", "csv"),
            ({"value": 0.6}, "value", "random"),  # no kind reads as random
        ],
    )
    def test_init_key_of_another_kind(self, tmp_path, capsys, monkeypatch, init, key, kind):
        monkeypatch.chdir(tmp_path)
        write_field_csv(tmp_path / "u0.csv", Field.zeros(GridSpec((1.0, 1.0), (16, 16), n=1)))
        cfg = tmp_path / "c.json"
        write_config(cfg, init=init)
        assert main(["--quiet", "solve", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            f"error: config key init.{key} is not read by kind '{kind}'\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "u0.csv"]

    @pytest.mark.parametrize(
        "potential, key",
        [
            ({"kind": "cosine", "periods": [TWO_PI, TWO_PI]}, "periods"),
            ({"kind": "cosine", "periods": [TWO_PI], "amplitudes": [1.0, 2.0]}, "amplitudes"),
            ({"kind": "quadratic", "center": [0.0, 0.0]}, "center"),
            ({"kind": "expr", "expr": "1.1 - cos(x1)", "periods": [1.0, 2.0]}, "periods"),
        ],
    )
    def test_vector_of_another_length_than_grid_n(self, tmp_path, capsys, potential, key):
        cfg = tmp_path / "c.json"
        write_config(cfg, potential=potential)
        assert main(["check", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            f"error: potential.{key} must have length grid.n = 1\n"
        )

    def test_kind_reads_its_own_keys_first(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={"kind": "cosine", "growth": {"m": 0.0}})
        assert main(["check", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: missing config key potential.periods\n"

    def test_too_few_nodes(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [2]})
        assert main(["solve", str(cfg)]) == 3

    def test_length_mismatch(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 2, "n": 1, "extents": [1.0], "nodes": [8, 8]})
        assert main(["solve", str(cfg)]) == 3

    def test_missing_init_csv(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, init={"kind": "csv", "path": str(tmp_path / "ghost.csv")})
        assert main(["solve", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "reader", ["potential.forcing_csv", "init.path", "oracle-linear rhs_csv"]
    )
    def test_closed_csv_rejected_where_open_is_read(self, tmp_path, capsys, reader):
        closed = tmp_path / "closed.csv"
        zeros = Field.zeros(GridSpec((1.0, 1.0), (16, 16), n=1))
        write_field_csv(tmp_path / "open.csv", zeros, closed_path=closed)
        cfg = tmp_path / "c.json"
        argv = ["solve", str(cfg)]
        if reader == "potential.forcing_csv":
            write_config(cfg, potential={"kind": "linear", "forcing_csv": str(closed)})
        elif reader == "init.path":
            write_config(cfg, init={"kind": "csv", "path": str(closed)})
        else:
            write_config(cfg)
            argv = ["oracle-linear", str(closed), str(cfg)]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {reader} must be an open (wrapped) field CSV\n"

    @pytest.mark.parametrize(
        "reader", ["potential.forcing_csv", "init.path", "oracle-linear rhs_csv"]
    )
    def test_missing_csv_named_by_its_reader(self, tmp_path, capsys, reader):
        ghost = tmp_path / "ghost.csv"
        cfg = tmp_path / "c.json"
        argv = ["solve", str(cfg)]
        if reader == "potential.forcing_csv":
            write_config(cfg, potential={"kind": "linear", "forcing_csv": str(ghost)})
        elif reader == "init.path":
            write_config(cfg, init={"kind": "csv", "path": str(ghost)})
        else:
            write_config(cfg)
            argv = ["oracle-linear", str(ghost), str(cfg), "--output", str(tmp_path / "u.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {reader} does not exist: {ghost}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    def test_expression_error_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={"kind": "expr", "expr": "cos("})
        assert main(["solve", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "line 1, column 5" in err

    def test_expression_error_in_a_config_on_a_pipe_is_located(self, tmp_path):
        # the config is read once, from stdin; the position is found in the
        # expression's own text
        body = {
            "grid": {"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            "potential": {"kind": "expr", "expr": "1 +\n y1"},
        }
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "poisson_grad.cli", "check", "/dev/stdin"],
            input=json.dumps(body),
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr == "expression error at line 2, column 2: unknown identifier 'y1'\n"

    def test_sum_too_long_to_compile_exits_4(self, tmp_path, capsys):
        # the parser reads a sum in a loop, but the compiler recurses once
        # per term; the root's position is the last "+"
        source = _cosine_series(600)
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={"kind": "expr", "expr": source})
        assert main(["--quiet", "solve", str(cfg)]) == 4
        column = source.rindex("+") + 1
        assert capsys.readouterr().err == (
            f"expression error at line 1, column {column}: "
            "expression nested too deeply to compile\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    def test_long_sum_that_compiles_passes_the_checks(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "expr", "expr": _cosine_series(400)},
            checks=None,
        )
        assert main(["--quiet", "check", str(cfg)]) == 0

    def test_domain_error_at_a_moved_point_only_exits_4(self, tmp_path, capsys):
        # F is defined at every drawn x1, all in [-8, 8], and fails only where
        # the periodicity check moves x1 by its period past 8.5
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "expr", "expr": "1 + sqrt(8.5 - x1)", "periods": [1.0]},
            checks={"samples": 200, "seed": 0},
        )
        assert main(["--quiet", "check", str(cfg)]) == 4
        assert capsys.readouterr().err == (
            "expression error at line 1, column 5: sqrt of a negative value\n"
        )

    def test_config_nested_too_deeply_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"grid": ' + "[" * 100_000 + "}")
        assert main(["--quiet", "solve", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: config {cfg} is nested too deeply to parse\n"
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize(
        "source, column", [("1 + x1²", 5), ("2²", 2), ("٣*x1", 1), ("x١", 1)]
    )
    def test_non_ascii_digits_are_expression_errors(self, tmp_path, capsys, source, column):
        cfg = tmp_path / "c.json"
        write_config(cfg, potential={"kind": "expr", "expr": source})
        assert main(["solve", str(cfg)]) == 4
        assert f"expression error at line 1, column {column}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "checks, key",
        [
            ({"samples": 0}, "checks.samples = 0"),
            ({"samples": -5}, "checks.samples = -5"),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_invalid_sampling_plan_exits_3(self, tmp_path, capsys, checks, key, command):
        cfg = tmp_path / "c.json"
        write_config(cfg, checks=checks)
        assert main(["--quiet", command, str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid sampling plan") and key in err

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_modulation_axis_out_of_range(self, tmp_path, capsys, axis):
        cfg = tmp_path / "c.json"
        body = write_config(cfg)
        body["potential"].update(modulation=0.5, modulation_axis=axis)
        cfg.write_text(json.dumps(body))
        assert main(["--quiet", "check", str(cfg)]) == 3
        assert f"mod_axis {axis} out of range for p=2" in capsys.readouterr().err

    GRID_1D = {"p": 1, "n": 1, "extents": [1.0], "nodes": [16]}

    @pytest.mark.parametrize(
        "section, update, message, command",
        [
            ("grid", {"p": None}, "grid.p must be a number, got null", "check"),
            ("grid", {"n": None}, "grid.n must be a number, got null", "check"),
            ("grid", {"nodes": [None]}, "grid.nodes[0] must be a number, got null", "check"),
            ("grid", {"nodes": [8.5]}, "grid.nodes[0] must be an integer, got 8.5", "check"),
            ("grid", {"p": 1.7}, "grid.p must be an integer, got 1.7", "check"),
            (
                "potential",
                {"modulation_axis": None},
                "potential.modulation_axis must be a number, got null",
                "check",
            ),
            ("potential", {"floor": None}, "potential.floor must be a number, got null", "check"),
            (
                "potential",
                {"floor": 10**400},
                "potential.floor is out of range: int too large to convert to float",
                "check",
            ),
            ("checks", {"seed": None}, "checks.seed must be a number, got null", "check"),
            ("init", {"kind": "random", "seed": None}, "init.seed must be a number, got null", "solve"),
            ("solver", {"max_iters": 10.5}, "solver.max_iters must be an integer, got 10.5", "solve"),
            ("init", {"value": True}, "init.value must be a number, got true", "solve"),
            ("init", {"value": "0.5"}, 'init.value must be a number, got "0.5"', "solve"),
            ("init", {"value": None}, "init.value must be a number, got null", "solve"),
            ("init", {"value": [[0.6]]}, "init.value[0] must be a number, got [0.6]", "solve"),
            ("init", {"value": [0.6, "a"]}, 'init.value[1] must be a number, got "a"', "solve"),
            # number literals that overflow to infinity (written as 1e400)
            ("init", {"value": math.inf}, "init.value is out of range: Infinity", "solve"),
            ("potential", {"floor": math.inf}, "potential.floor is out of range: Infinity", "check"),
            (
                "potential",
                {"periods": [-math.inf]},
                "potential.periods[0] is out of range: -Infinity",
                "check",
            ),
            (
                "potential",
                {"kind": "expr", "expr": "1 + cos(x1)", "periods": [math.inf]},
                "potential.periods[0] is out of range: Infinity",
                "check",
            ),
            ("grid", {"extents": [math.inf]}, "grid.extents[0] is out of range: Infinity", "check"),
            ("init", {"value": math.nan}, "init.value must be a number, got NaN", "solve"),
            (
                "potential",
                {"kind": "expr", "expr": "1 + cos(x1)", "periods": [math.nan]},
                "potential.periods[0] must be a number, got NaN",
                "check",
            ),
            (
                "solver",
                {"tol_residual": True},
                "solver.tol_residual must be a number, got true",
                "solve",
            ),
            (
                "solver",
                {"tol_residual": "1e-8"},
                'solver.tol_residual must be a number, got "1e-8"',
                "solve",
            ),
            (
                "solver",
                {"tol_residual": math.inf},
                "solver.tol_residual is out of range: Infinity",
                "solve",
            ),
            # arrays of the wrong shape, values a library rejects, and kinds
            # that do not exist
            ("grid", {"extents": []}, "grid.extents must be a non-empty array of numbers", "check"),
            ("grid", {"extents": 1.0}, "grid.extents must be a non-empty array of numbers", "check"),
            ("grid", {"nodes": 16}, "grid.nodes must be an array of integers", "check"),
            ("init", {"value": [0.6, 0.7]}, "init.value must be a scalar or length 1", "solve"),
            (
                "potential",
                {"kind": "expr", "expr": "1", "growth": {"m": -1.0}},
                "invalid potential.growth: m must be finite and nonnegative, got -1.0",
                "check",
            ),
            (
                "solver",
                {"method": "lbfgs"},
                "invalid solver config: method must be 'ncg', got 'lbfgs'",
                "solve",
            ),
            ("solver", {"max_iters": 0}, "invalid solver config: max_iters must be >= 1", "solve"),
            (
                "potential",
                {"kind": "sine"},
                "potential.kind must be cosine|quadratic|linear|expr, got 'sine'",
                "check",
            ),
            ("init", {"kind": "zeros"}, "init.kind must be constant|random|csv, got 'zeros'", "solve"),
        ],
    )
    def test_mistyped_number_exits_3_naming_key(
        self, tmp_path, capsys, section, update, message, command
    ):
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        body[section].update(update)
        cfg.write_text(json.dumps(body).replace("Infinity", "1e400"))
        assert main(["--quiet", command, str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "config root must be an object"),
            ('{"grid": [1], "potential": {}}', "section 'grid' must be an object"),
            ('{"potential": {"kind": "expr", "growth": 1.0}}', "potential.growth must be an object"),
            ('{"grid": {"p": 1}}', "config section 'potential' is required"),
        ],
    )
    def test_malformed_config_layout_exits_3(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        assert main(["--quiet", "check", str(cfg)]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "section, update, flag, key, command",
        [
            ("checks", {"seed": -1}, [], "checks.seed", "check"),
            ("checks", {"seed": -1}, [], "checks.seed", "solve"),
            ("init", {"kind": "random", "seed": -1}, [], "init.seed", "solve"),
            # --seed is typed whether or not the start is random
            ("init", {"kind": "constant"}, ["--seed", "-1"], "--seed", "solve"),
            ("init", {"kind": "random"}, ["--seed", "-1"], "--seed", "solve"),
        ],
    )
    def test_negative_seed_exits_3_naming_key(
        self, tmp_path, capsys, section, update, flag, key, command
    ):
        # each seed is typed before any check line is printed
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        body[section] = {**body[section], **update}
        if body["init"]["kind"] == "random":
            body["init"].pop("value")
        cfg.write_text(json.dumps(body))
        assert main(["--quiet", *flag, command, str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {key} must be a non-negative integer, got -1\n"
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize(
        "section, update, message",
        [
            ("output", {"report_json": 12}, "output.report_json must be a string, got 12"),
            ("output", {"field_csv": 7.5}, "output.field_csv must be a string, got 7.5"),
            ("output", {"field_csv": ["a"]}, 'output.field_csv must be a string, got ["a"]'),
            ("potential", {"kind": "expr", "expr": 5}, "potential.expr must be a string, got 5"),
            (
                "potential",
                {"kind": "linear", "forcing_csv": 5},
                "potential.forcing_csv must be a string, got 5",
            ),
            ("init", {"kind": "csv", "path": 5}, "init.path must be a string, got 5"),
            (
                "output",
                {"closed_csv": "no"},
                'output.closed_csv must be true or false, got "no"',
            ),
            (
                "potential",
                {"kind": "expr", "expr": "1 + cos(x1)", "positive": "yes"},
                'potential.positive must be true or false, got "yes"',
            ),
        ],
    )
    def test_mistyped_text_or_flag_exits_3_naming_key(
        self, tmp_path, capsys, section, update, message
    ):
        # the output keys are read before the checks and the solve, so
        # nothing is written
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        body[section].update(update)
        cfg.write_text(json.dumps(body))
        assert main(["--quiet", "solve", str(cfg)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize("key", ["field_csv", "report_json"])
    def test_missing_output_directory_exits_3_before_checks(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def unreachable(*args):
            raise AssertionError("minimize must not run")

        monkeypatch.setattr(cli, "minimize", unreachable)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        body["output"].update({key: "missing_dir/f.csv", "closed_csv": True})
        cfg.write_text(json.dumps(body))
        assert main(["solve", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: output.{key}: directory missing_dir does not exist\n"
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    @pytest.mark.parametrize(
        "output, message",
        [
            (
                {"report_json": "f.csv"},
                "output.field_csv and output.report_json name the same file f.csv",
            ),
            (
                {"report_json": "out/../f.csv"},
                "output.field_csv and output.report_json name the same file out/../f.csv",
            ),
            (
                {"report_json": "f.closed.csv", "closed_csv": True},
                "output.closed_csv and output.report_json name the same file f.closed.csv",
            ),
            ({"field_csv": "out"}, "output.field_csv: out is a directory"),
            (
                {"field_csv": "out.csv", "closed_csv": True},
                "output.closed_csv: out.closed.csv is a directory",
            ),
            ({"report_json": "out"}, "output.report_json: out is a directory"),
            ({"report_json": "c.json"}, "config and output.report_json name the same file c.json"),
            (
                {"field_csv": "out/../c.json"},
                "config and output.field_csv name the same file out/../c.json",
            ),
        ],
        ids=[
            "report-is-field",
            "report-is-field-respelled",
            "report-is-closed",
            "field-is-dir",
            "closed-is-dir",
            "report-is-dir",
            "report-is-config",
            "field-is-config-respelled",
        ],
    )
    def test_unwritable_output_exits_3_before_checks(
        self, tmp_path, capsys, monkeypatch, output, message
    ):
        # the report would replace a field CSV, or the write would fail
        # only after the whole solve
        def unreachable(*args):
            raise AssertionError("minimize must not run")

        monkeypatch.setattr(cli, "minimize", unreachable)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out.closed.csv").mkdir()
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        body["output"] = {"field_csv": "f.csv", "report_json": "r.json", **output}
        cfg.write_text(json.dumps(body))
        assert main(["solve", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "c.json",
            "out",
            "out.closed.csv",
        ]
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("key", ["init.path", "potential.forcing_csv"])
    def test_output_naming_an_input_exits_3_before_checks(
        self, tmp_path, capsys, monkeypatch, key
    ):
        def unreachable(*args):
            raise AssertionError("minimize must not run")

        monkeypatch.setattr(cli, "minimize", unreachable)
        monkeypatch.chdir(tmp_path)
        spec = GridSpec((1.0,), (16,), n=1)
        t = node_coordinates(spec)[..., 0]
        write_field_csv(tmp_path / "in.csv", Field(spec, 0.01 * np.sin(TWO_PI * t)))
        before = (tmp_path / "in.csv").read_bytes()
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        if key == "init.path":
            body["init"] = {"kind": "csv", "path": "in.csv"}
        else:
            body["potential"] = {"kind": "linear", "forcing_csv": "in.csv"}
        body["output"] = {"field_csv": "f.csv", "report_json": "in.csv"}
        cfg.write_text(json.dumps(body))
        assert main(["solve", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {key} and output.report_json name the same file in.csv\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "in.csv"]
        assert (tmp_path / "in.csv").read_bytes() == before

    def test_report_linked_to_the_field_to_be_written_exits_3_before_checks(
        self, tmp_path, capsys, monkeypatch
    ):
        # a dangling symbolic link names the file that writing it creates
        def unreachable(*args):
            raise AssertionError("minimize must not run")

        monkeypatch.setattr(cli, "minimize", unreachable)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        body["output"] = {"field_csv": "f.csv", "report_json": "r.json"}
        cfg.write_text(json.dumps(body))
        (tmp_path / "r.json").symlink_to("f.csv")
        assert main(["solve", str(cfg)]) == 3
        assert capsys.readouterr() == (
            "", "error: output.field_csv and output.report_json name the same file r.json\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "r.json"]

    def test_report_hard_linked_to_the_config_exits_3_before_checks(
        self, tmp_path, capsys, monkeypatch
    ):
        # a hard link is another name for the config's own file, which no
        # spelling of a path reveals; the config must survive unchanged
        def unreachable(*args):
            raise AssertionError("minimize must not run")

        monkeypatch.setattr(cli, "minimize", unreachable)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        body["output"] = {"field_csv": "f.csv", "report_json": "r.json"}
        cfg.write_text(json.dumps(body))
        os.link(cfg, tmp_path / "r.json")
        before = cfg.read_bytes()
        assert main(["solve", str(cfg)]) == 3
        assert capsys.readouterr() == (
            "", "error: config and output.report_json name the same file r.json\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "r.json"]
        assert cfg.read_bytes() == before

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("period", [0.0, -1.0])
    @pytest.mark.parametrize(
        "potential, prefix",
        [
            ({"kind": "cosine", "amplitudes": [1.0]}, "invalid cosine potential: "),
            ({"kind": "quadratic", "center": [0.0]}, "invalid quadratic potential: "),
            ({"kind": "expr", "expr": "1 + cos(x1)"}, ""),
        ],
        ids=["cosine", "quadratic", "expr"],
    )
    def test_non_positive_period_exits_3_before_checks(
        self, tmp_path, capsys, potential, prefix, period, command
    ):
        # shifting x by a zero period changes nothing, so the periodicity
        # check would pass it; the potential rejects it when it is built
        cfg = tmp_path / "c.json"
        write_config(
            cfg, grid=dict(self.GRID_1D), potential={**potential, "periods": [period]}
        )
        assert main([command, str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {prefix}need 1 positive periods, got [{period:.0f}.]\n"
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]

    def test_boolean_field_csv_exits_3(self, tmp_path):
        # in its own process: open(True, "w") would be the process's stdout
        cfg = tmp_path / "c.json"
        body = write_config(cfg, grid=dict(self.GRID_1D))
        body["output"]["field_csv"] = True
        cfg.write_text(json.dumps(body))
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "poisson_grad.cli", "--quiet", "solve", str(cfg)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=env,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "error: output.field_csv must be a string, got true\n"
        assert [path.name for path in tmp_path.iterdir()] == ["c.json"]


class TestFieldCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = GridSpec((1.0, 1.3), (8, 6), n=2)
        field = gaussian_field(spec, np.random.default_rng(0), scale=3.0)
        path = tmp_path / "f.csv"
        write_field_csv(path, field)
        back, closed = read_field_csv(path, spec)
        assert not closed
        npt.assert_array_equal(back.values, field.values)

    def test_closed_round_trip(self, tmp_path):
        spec = GridSpec((1.0,), (8,), n=1)
        field = gaussian_field(spec, np.random.default_rng(1))
        path = tmp_path / "f.csv"
        write_field_csv(tmp_path / "open.csv", field, closed_path=path)
        values, closed = read_field_csv(path, spec)
        assert closed
        npt.assert_array_equal(values, field.closed_values())

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("x,y\n0,0\n")
        with pytest.raises(FormatError, match="header"):
            read_field_csv(path, GridSpec((1.0,), (8,), n=1))

    def test_wrong_row_count_rejected(self, tmp_path):
        spec = GridSpec((1.0,), (8,), n=1)
        path = tmp_path / "f.csv"
        write_field_csv(path, Field.zeros(spec))
        with pytest.raises(FormatError, match="rows"):
            read_field_csv(path, GridSpec((1.0,), (16,), n=1))

    def test_coordinate_mismatch_rejected(self, tmp_path):
        spec = GridSpec((1.0,), (4,), n=1)
        path = tmp_path / "f.csv"
        path.write_text("t1,u1\n0,1\n0.3,1\n0.5,1\n0.75,1\n")
        with pytest.raises(FormatError, match="coordinates"):
            read_field_csv(path, spec)

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize(
        "extents, nodes, n",
        [
            ((1.0,), (7,), 3),
            ((1.0, 1.3), (5, 4), 2),
            ((0.7, 3.0, TWO_PI), (3, 4, 3), 1),
        ],
    )
    def test_bytes_match_per_node_reference(self, tmp_path, extents, nodes, n, closed):
        spec = GridSpec(extents, nodes, n=n)
        values = np.random.default_rng(len(nodes)).standard_normal(spec.shape)
        values.reshape(-1)[: len(GOLDEN_VALUES)] = GOLDEN_VALUES
        field = Field(spec, values)
        expected = reference_csv(spec, field.values)
        path = tmp_path / "f.csv"
        write_field_csv(path, field)
        assert path.read_bytes() == expected.encode()
        if closed:
            # one formatting pass in closed node order writes both files;
            # the open one gets the same bytes as an open-only call
            both = tmp_path / "both.csv"
            write_field_csv(both, field, closed_path=tmp_path / "both.closed.csv")
            assert both.read_bytes() == expected.encode()
            closed_expected = reference_csv(spec, field.closed_values())
            assert (tmp_path / "both.closed.csv").read_bytes() == closed_expected.encode()
        cells = set(expected.replace("\n", ",").split(","))
        assert {
            "-0",
            "4.9406564584124654e-324",
            "1.0000000000000001e+300",
            "0.30000000000000004",
            "1.0000000000000002",
        } <= cells

    @pytest.mark.parametrize(
        "body",
        [
            "0,1\n0.25,x\n0.5,1\n0.75,1\n",  # non-numeric cell
            "0,1\n0.25\n0.5,1\n0.75,1\n",  # ragged row
            "0,1\n0.25,1,1\n0.5,1\n0.75,1\n",  # ragged row
            "0,1\n0.25,\n0.5,1\n0.75,1\n",  # empty cell
            "0,1\n#0.25,1\n0.5,1\n0.75,1\n",  # no comment syntax
            "0,1\n0.25,1_000\n0.5,1\n0.75,1\n",  # Python-only literal
        ],
    )
    def test_malformed_row_rejected(self, tmp_path, body):
        path = tmp_path / "f.csv"
        path.write_text("t1,u1\n" + body)
        with pytest.raises(FormatError, match="malformed"):
            read_field_csv(path, GridSpec((1.0,), (4,), n=1))

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell, closed):
        spec = GridSpec((1.0,), (4,), n=1)
        path = tmp_path / "f.csv"
        if closed:
            write_field_csv(tmp_path / "open.csv", Field.zeros(spec), closed_path=path)
        else:
            write_field_csv(path, Field.zeros(spec))
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].split(",")[0] + "," + cell
        path.write_text("\n".join(lines) + "\n")
        row = 5 if closed else 4
        with pytest.raises(FormatError, match=f"non-finite cell in data row {row}"):
            read_field_csv(path, spec)

    @pytest.mark.parametrize("text", ["t1,u1\n", "t1,u1", "\nt1,u1\n  \n\n"])
    def test_header_only_rejected_without_warning(self, tmp_path, text):
        path = tmp_path / "f.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="no data rows"):
                read_field_csv(path, GridSpec((1.0,), (4,), n=1))

    def test_crlf_blank_lines_and_padded_cells_accepted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(
            b"\r\n t1,u1 \r\n 0 , 1 \r\n   \r\n0.25,\t2\r\n\r\n"
            b"0.5 ,3e0\n \t \n0.75, +4.\n  "
        )
        field, closed = read_field_csv(path, GridSpec((1.0,), (4,), n=1))
        assert not closed
        npt.assert_array_equal(field.values[:, 0], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("closed", [False, True])
    @pytest.mark.parametrize(
        "extents, nodes, n",
        [((1.0,), (13,), 2), ((1.0, 1.3), (3, 5), 2), ((0.7, 3.0, TWO_PI), (3, 3, 4), 1)],
    )
    def test_blocks_match_per_node_reference(
        self, tmp_path, monkeypatch, extents, nodes, n, closed
    ):
        # every block size from 1 to rows + 1, so the row count is k*B - 1,
        # k*B and k*B + 1 for some block size B and each k that fits
        spec = GridSpec(extents, nodes, n=n)
        values = np.random.default_rng(len(nodes)).standard_normal(spec.shape)
        values.reshape(-1)[: len(GOLDEN_VALUES)] = GOLDEN_VALUES
        field = Field(spec, values)
        table = field.closed_values() if closed else field.values
        expected = reference_csv(spec, table).encode()
        open_expected = reference_csv(spec, field.values).encode()
        rows = math.prod(table.shape[:-1])
        path = tmp_path / "f.csv"
        open_path = tmp_path / "open.csv" if closed else path
        for block in range(1, rows + 2):
            monkeypatch.setattr(cli, "_BLOCK_ROWS", block)
            write_field_csv(open_path, field, closed_path=path if closed else None)
            assert path.read_bytes() == expected, block
            assert open_path.read_bytes() == open_expected, block
            back, was_closed = read_field_csv(path, spec)
            assert was_closed == closed
            npt.assert_array_equal(back if closed else back.values, table)

    def test_io_memory_follows_field_size(self, tmp_path):
        # a whole-file text costs about 16x the field's bytes in each
        # direction; the block writer stays near 1x, the reader near 3.3x
        # (the parsed table alone is 2x)
        spec = GridSpec((1.0, 1.0), (256, 256), n=2)
        field = gaussian_field(spec, np.random.default_rng(2))
        path = tmp_path / "f.csv"
        bound = 8 * field.values.nbytes
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            write_field_csv(path, field)
            written = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            back, _ = read_field_csv(path, spec)
            read = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        npt.assert_array_equal(back.values, field.values)
        assert written <= bound and read <= bound, (written, read, bound)

    @pytest.mark.parametrize("where", ["header", "first row", "beyond 8 KiB"])
    def test_undecodable_byte_names_the_file(self, tmp_path, where):
        path = write_undecodable_csv(tmp_path / "f.csv", where)
        with pytest.raises(FormatError) as caught:
            read_field_csv(path, UNDECODABLE_SPEC)
        assert str(caught.value).startswith(f"field CSV {path} cannot be decoded: ")
        assert "0xff" in str(caught.value)
        # the byte's offset in the file, not in the text decoder's chunk
        offset = path.read_bytes().index(0xFF)
        assert f"position {offset}:" in str(caught.value)


class TestCsvWriterMemory:
    """Peak transients of the field CSV writer on a 256^2, n = 2 field
    (1 MiB), in multiples of the field's bytes.  Writing the open and the
    closed file as two calls peaked at 2.08; the closed layout's padded copy
    of the values is 1.03 of that."""

    @pytest.fixture(scope="class")
    def field(self):
        spec = GridSpec((1.0, 1.0), (256, 256), n=2)
        return gaussian_field(spec, np.random.default_rng(2))

    def test_open_only(self, tmp_path, field):
        # coordinates are formatted once per axis, so one block of prefixes,
        # cells and text is all the writer holds: 1.07 while a block's text
        # was still held as the next one was formatted, 1.01 since
        peak = peak_transient(write_field_csv, tmp_path / "f.csv", field)
        assert peak <= 1.05 * field.values.nbytes

    def test_open_and_closed(self, tmp_path, field):
        # 2.11: the padded copy, one block of closed text, its lines and
        # the open text joined from them
        peak = peak_transient(
            write_field_csv, tmp_path / "f.csv", field, tmp_path / "f.closed.csv"
        )
        assert peak <= 2.2 * field.values.nbytes


# a grid whose field CSV is well over 8 KiB, the text buffer that the header
# scan decodes at once
UNDECODABLE_SPEC = GridSpec((1.0,), (1024,), n=1)


def write_undecodable_csv(path, where):
    """A field CSV on UNDECODABLE_SPEC with one 0xff byte, which no UTF-8
    text holds, in the header, in the first data row or past 8 KiB."""
    write_field_csv(path, gaussian_field(UNDECODABLE_SPEC, np.random.default_rng(5)))
    data = bytearray(path.read_bytes())
    at = {
        "header": 1,
        "first row": data.index(b"\n") + 3,
        "beyond 8 KiB": data.index(b"\n", 3 * 8192) + 3,
    }[where]
    data[at] = 0xFF
    path.write_bytes(bytes(data))
    return path


def padded_cells(text):
    """A field CSV's text with spaces and tabs around every data cell and
    spaces around the header."""
    header, *rows = text.splitlines()
    return " " + header + " \n" + "".join(
        " " + " ,\t".join(row.split(",")) + "  \n" for row in rows
    )


class TestFieldCsvFastPath:
    """numpy parses the rows from the path; Python re-reads them only when
    numpy rejects them."""

    SPEC = GridSpec((1.0, 1.3), (5, 4), n=2)

    @pytest.fixture
    def canonical(self, tmp_path):
        values = np.random.default_rng(9).standard_normal(self.SPEC.shape)
        values.reshape(-1)[: len(GOLDEN_VALUES)] = GOLDEN_VALUES
        path = tmp_path / "canonical.csv"
        write_field_csv(path, Field(self.SPEC, values))
        return path.read_text(), values

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def spy(source, *args, **kwargs):
            calls.append(source)
            return loadtxt(source, *args, **kwargs)

        monkeypatch.setattr(cli.np, "loadtxt", spy)
        return calls

    @pytest.mark.parametrize(
        "rewrite",
        [
            pytest.param(lambda text: text.encode(), id="canonical"),
            pytest.param(lambda text: text.replace("\n", "\r\n").encode(), id="crlf"),
            pytest.param(lambda text: text.replace("\n", "\r").encode(), id="cr"),
            pytest.param(lambda text: b"\n \t\n\r\n  \n" + text.encode(), id="lines-before-header"),
            pytest.param(
                lambda text: text.replace("\n", "\n\n").encode() + b"\n", id="empty-body-lines"
            ),
            pytest.param(lambda text: padded_cells(text).encode(), id="padded"),
        ],
    )
    def test_numpy_reads_the_path(self, tmp_path, canonical, loadtxt_calls, rewrite):
        text, values = canonical
        path = tmp_path / "f.csv"
        path.write_bytes(rewrite(text))
        field, closed = read_field_csv(path, self.SPEC)
        assert not closed
        assert loadtxt_calls == [os.path.abspath(path)]
        npt.assert_array_equal(field.values, values)
        assert np.signbit(field.values.reshape(-1)[0])  # -0.0 kept

    def test_relative_path_goes_to_numpy_absolute(
        self, tmp_path, monkeypatch, canonical, loadtxt_calls
    ):
        (tmp_path / "f.csv").write_text(canonical[0])
        monkeypatch.chdir(tmp_path)
        read_field_csv("f.csv", self.SPEC)
        assert loadtxt_calls == [str(tmp_path / "f.csv")]

    @pytest.mark.parametrize("blank", [" ", "\t", " \t \r"])
    def test_whitespace_only_body_line_is_re_read(
        self, tmp_path, canonical, loadtxt_calls, blank
    ):
        text, values = canonical
        lines = text.splitlines(keepends=True)
        lines.insert(7, blank + "\n")
        path = tmp_path / "f.csv"
        path.write_text("".join(lines))
        field, _ = read_field_csv(path, self.SPEC)
        assert len(loadtxt_calls) == 2
        assert loadtxt_calls[0] == os.path.abspath(path)
        assert not isinstance(loadtxt_calls[1], str)
        npt.assert_array_equal(field.values, values)

    def test_malformed_row_after_a_whitespace_line_is_named(self, tmp_path, loadtxt_calls):
        # numpy stops at the whitespace-only line, a one-cell row; the re-read
        # drops it and names the bad cell
        path = tmp_path / "f.csv"
        path.write_text("\n\nt1,u1\n0,1\n \t\n0.25,1\n\n0.5,x\n0.75,1\n")
        with pytest.raises(FormatError) as caught:
            read_field_csv(path, GridSpec((1.0,), (4,), n=1))
        assert str(caught.value) == (
            f"field CSV {path} has a malformed row: "
            "could not convert string 'x' to float64 at row 2, column 2."
        )
        assert len(loadtxt_calls) == 2

    def test_gzip_is_rejected_by_the_header_scan(self, tmp_path, canonical, loadtxt_calls):
        # numpy would decompress a .gz path by itself; the header scan reads
        # the file's own bytes first, and gzip's second byte, 0x8b, starts
        # no UTF-8 character
        path = tmp_path / "f.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(canonical[0])
        with pytest.raises(FormatError) as caught:
            read_field_csv(path, self.SPEC)
        assert str(caught.value).startswith(f"field CSV {path} cannot be decoded: ")
        assert loadtxt_calls == []

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix_is_read_as_text(
        self, tmp_path, canonical, loadtxt_calls, suffix
    ):
        text, values = canonical
        path = tmp_path / f"f.csv{suffix}"
        path.write_text(text)
        field, _ = read_field_csv(path, self.SPEC)
        assert len(loadtxt_calls) == 1 and not isinstance(loadtxt_calls[0], str)
        npt.assert_array_equal(field.values, values)


class TestSolveCommand:
    @pytest.mark.parametrize(
        "name, start", [("pendulum.json", 1e300), ("expression_well.json", 1e200)]
    )
    def test_field_written_means_report_written(self, tmp_path, capsys, monkeypatch, name, start):
        # at a start this far out the squares of u - mean overflow, and the
        # mean lies more than 2^53 periods out, so no lattice shift applies
        body = json.loads((Path(__file__).resolve().parents[1] / "configs" / name).read_text())
        body["init"] = {"kind": "constant", "value": start}
        (tmp_path / name).write_text(json.dumps(body))
        monkeypatch.chdir(tmp_path)
        assert main(["--quiet", "solve", name]) == 2
        assert capsys.readouterr().err == ""
        assert Path(body["output"]["field_csv"]).is_file()
        report = json.loads(Path(body["output"]["report_json"]).read_text())
        assert report["status"] == "stalled"
        assert not report["bound_audit"]["mean_in_cell"]["passed"]
        for record in report["iterations"]:
            assert 0.0 < record["tilde_norm"] < math.inf
            assert record["shifts"] == [0] * body["grid"]["n"]

    def test_report_written_where_the_squares_of_grad_f_overflow(
        self, tmp_path, capsys, monkeypatch
    ):
        # grad F = 1e200 cos(u) is 1e200 at every node of the constant 0
        # start, and no step is accepted: the squares of the residual
        # overflow, and its L2 norm, 1e200 sqrt(2 pi), does not
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [TWO_PI], "nodes": [8]},
            potential={"kind": "expr", "expr": "1 + 1e200*sin(x1)", "periods": [TWO_PI]},
            init={"kind": "constant", "value": 0.0},
            solver={"max_iters": 5},
            output={"field_csv": "f.csv", "report_json": "r.json"},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--quiet", "solve", str(cfg)]) == 2
        assert capsys.readouterr().err == "warning: hypothesis checks failed: positivity\n"
        report = json.loads((tmp_path / "r.json").read_text())
        norms = [r["residual_l2"] for r in report["iterations"]]
        norms += [report["final"]["residual_l2"], report["certificate"]["residual_l2"]]
        assert all(0.0 < norm < math.inf for norm in norms)
        assert report["certificate"]["residual_l2"] == pytest.approx(
            1e200 * math.sqrt(TWO_PI), rel=1e-14
        )

    def test_pendulum_end_to_end(self, tmp_path):
        cfg = tmp_path / "pendulum.json"
        write_config(cfg)
        assert main(["--quiet", "solve", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "converged"
        assert report["final"]["action_total"] == pytest.approx(0.1, rel=1e-6)
        assert 0.0 <= report["final"]["mean"][0] < TWO_PI
        assert report["bound_audit"]["all_passed"]
        assert all(c["passed"] for c in report["checks"])
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        field, _ = read_field_csv(tmp_path / "field.csv", spec)
        assert np.max(np.abs(field.values)) <= 1e-6

    def test_closed_csv_written_on_request(self, tmp_path):
        cfg = tmp_path / "c.json"
        body = write_config(cfg)
        body["output"]["closed_csv"] = True
        cfg.write_text(json.dumps(body))
        assert main(["--quiet", "solve", str(cfg)]) == 0
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        values, closed = read_field_csv(tmp_path / "field.closed.csv", spec)
        assert closed and values.shape == (17, 17, 1)
        # the open CSV is the closed one without its wrap-face rows: the
        # last row of each t2 run and the whole t1 = 1 face
        header, *rows = (tmp_path / "field.closed.csv").read_text().splitlines(True)
        interior = [
            line for k, line in enumerate(rows) if k % 17 != 16 and k < 16 * 17
        ]
        assert (tmp_path / "field.csv").read_text() == header + "".join(interior)

    def test_strict_aborts_on_failed_checks(self, tmp_path):
        spec = GridSpec((1.0,), (8,), n=1)
        t = node_coordinates(spec)[..., 0]
        forcing = tmp_path / "forcing.csv"
        write_field_csv(forcing, Field(spec, 0.01 * np.sin(TWO_PI * t)))
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "linear", "forcing_csv": str(forcing)},
            init={"kind": "constant", "value": 0.0},
        )
        assert main(["--quiet", "--strict", "solve", str(cfg)]) == 2
        assert main(["--quiet", "solve", str(cfg)]) == 0

    def test_init_from_csv(self, tmp_path):
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        start = tmp_path / "start.csv"
        write_field_csv(start, Field.constant(spec, 0.6))
        cfg = tmp_path / "c.json"
        write_config(cfg, init={"kind": "csv", "path": str(start)})
        assert main(["--quiet", "solve", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["iterations"][0]["mean"][0] == pytest.approx(0.6, rel=1e-12)

    def test_wrong_periods_exit_2_without_traceback(self, tmp_path, capsys):
        # the sampled periodicity check only warns without --strict; the
        # solver's gauge assertion then fails at the first lattice shift
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            potential={"kind": "expr", "expr": "1 + x1^2", "periods": [1.0]},
            init={"kind": "constant", "value": 1.5},
        )
        assert main(["--quiet", "solve", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "error: lattice shift changed the action" in err
        assert "Traceback" not in err

    def test_start_too_far_out_to_shift_is_no_periodicity_error(self, tmp_path, capsys):
        # floats near 1e15 are 0.125 apart: no shift by whole periods 2 pi is
        # exact there, so the start keeps its mean and the gauge test is not
        # run on a rounded shift
        cfg = tmp_path / "c.json"
        write_config(cfg, init={"kind": "constant", "value": 1e15}, solver={"max_iters": 300})
        assert main(["--quiet", "solve", str(cfg)]) == 2
        assert capsys.readouterr() == ("", "")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["iterations"][0]["shifts"] == [0]
        assert report["iterations"][0]["mean"] == [1e15]

    def test_trial_outside_domain_backtracks(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [16]},
            potential={"kind": "expr", "expr": "exp(x1^2)"},
            init={"kind": "constant", "value": 2.0},
            solver={"tol_residual": 1e-6},
            checks={"samples": 100},
        )
        assert main(["--quiet", "solve", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "converged"

    def test_trial_with_overflowing_differences_rejected(self, tmp_path, monkeypatch):
        # the first trial's values are finite, but their differences
        # overflow; the line search backtracks instead of aborting, and
        # numpy does not warn about the points it rejects
        monkeypatch.setattr(solver, "_INITIAL_STEP", 1e308)
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            init={"kind": "random", "seed": 5},
            solver={"max_iters": 1},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--quiet", "solve", str(cfg)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "max_iters"
        assert 0.0 < report["final"]["action_total"] < report["iterations"][0]["action_total"]

    def test_domain_error_at_start_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [16]},
            potential={"kind": "expr", "expr": "exp(x1^2)"},
            init={"kind": "constant", "value": 30.0},
            checks={"samples": 100},
        )
        assert main(["--quiet", "solve", str(cfg)]) == 3
        assert "non-finite result (offset 0) at node (0,)" in capsys.readouterr().err

    def test_infinite_potential_at_start_exits_3_writing_nothing(self, tmp_path, capsys):
        # F overflows to inf at the start without a domain error of its own;
        # the solve fails there, before the field CSV or the report is written
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "expr", "expr": "1 + 1e305*x1^2"},
            init={"kind": "constant", "value": 100.0},
            checks={"samples": 100},
        )
        assert main(["--quiet", "solve", str(cfg)]) == 3
        assert capsys.readouterr().err == "error: F is not finite at node (0,), t = (0.0,)\n"
        assert not (tmp_path / "field.csv").exists()
        assert not (tmp_path / "report.json").exists()

    def test_gradient_overflow_at_start_exits_3_writing_nothing(self, tmp_path, capsys):
        # F = 1 + 1/x1 is finite at the start 1e-160, where grad F = -1e320
        # is not; solve names its node as residual does, warns of nothing and
        # writes nothing.  The 10 points of checks seed 0 pass both checks.
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "expr", "expr": "1 + 1/x1"},
            init={"kind": "constant", "value": 1e-160},
            checks={"samples": 10, "seed": 0},
        )
        message = "error: grad F is not finite at node (0,), t = (0.0,)\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--quiet", "solve", str(cfg)]) == 3
        assert capsys.readouterr().err == message
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json"]
        start = tmp_path / "start.csv"
        write_field_csv(start, Field.constant(GridSpec((1.0,), (8,), n=1), 1e-160))
        assert main(["--quiet", "residual", str(start), str(cfg)]) == 3
        assert capsys.readouterr().err == message

    def test_positivity_sampled_once_per_solve(self, tmp_path, monkeypatch):
        calls = []
        sampled = cli.check_positivity

        def counted(sample):
            calls.append(sample)
            return sampled(sample)

        monkeypatch.setattr(cli, "check_positivity", counted)
        cfg = tmp_path / "c.json"
        write_config(cfg, checks={"samples": 500, "seed": 1})
        assert main(["--quiet", "solve", str(cfg)]) == 0
        assert len(calls) == 1

    def test_checks_evaluate_the_drawn_sample_once(self):
        # one binding at the drawn t, and F and grad F at the base draw, once
        # each over all four checks; the reports equal those of checks that
        # each draw for themselves
        pot = cli.CosineLattice([1.0], [TWO_PI], floor=0.1, p=2)
        sampler = cli.SampleSpec(count=200, seed=4, t_extents=(1.0, 1.0))
        _, base_x = sampler.draw(pot.n)
        calls = {"bind": 0, "value": 0, "gradient": 0}

        class Counted(cli.CosineLattice):
            def bind(self, t):
                calls["bind"] += 1
                bound = super().bind(t)

                def value(x):
                    calls["value"] += np.array_equal(x, base_x)
                    return bound.value(x)

                def gradient(x):
                    calls["gradient"] += np.array_equal(x, base_x)
                    return bound.gradient(x)

                return BoundPotential(value, gradient)

        counted = Counted([1.0], [TWO_PI], floor=0.1, p=2)
        reports, notes = cli.run_checks(counted, sampler)
        assert calls == {"bind": 1, "value": 1, "gradient": 1}
        assert notes == []
        assert reports == [
            check(cli.Sample(pot, sampler))
            for check in (
                cli.check_periodicity,
                cli.check_positivity,
                cli.check_gradient_growth,
                cli.check_grad_consistency,
            )
        ]

    def test_checks_bind_an_expression_once(self, monkeypatch):
        # one binding of the program, at the drawn t, serves all four
        # checks: its t-only step sin(2*pi*t1) runs once
        binds, sines = [], []
        sin = np.sin

        class Counted(expr._Bound):
            __slots__ = ()

            def __init__(self, *args):
                binds.append(args[-1])
                super().__init__(*args)

        monkeypatch.setattr(expr, "_Bound", Counted)
        monkeypatch.setattr(np, "sin", lambda a: sines.append(a) or sin(a))  # before compiling
        configs = Path(__file__).resolve().parents[1] / "configs"
        cfg = cli.load_config(configs / "expression_well.json")
        spec = cli.build_grid(cfg)
        pot = cli.build_potential(cfg, spec)
        sampler = cli.build_sampler(cfg, spec)
        reports, notes = cli.run_checks(pot, sampler)
        assert [r.name for r in reports] == [
            "periodicity", "positivity", "gradient_growth", "grad_consistency",
        ]
        t = sampler.draw(pot.n)[0]
        assert len(binds) == 1
        npt.assert_array_equal(binds[0], t)
        assert sum(np.array_equal(a, 2.0 * np.pi * t[:, 0]) for a in sines) == 1

    def test_not_converged_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            init={"kind": "random", "seed": 5},
            solver={"method": "ncg", "max_iters": 3, "tol_residual": 1e-12},
        )
        assert main(["--quiet", "solve", str(cfg)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "max_iters"


class TestThreeTimes:
    """A solve on a p = 3 grid, certified from its open and its closed CSV."""

    @pytest.mark.parametrize(
        "amplitudes, periods",
        [([100.0], [TWO_PI]), ([100.0, 1.0], [TWO_PI, 3.0])],
        ids=["n1", "n2"],
    )
    def test_cosine_lattice_solves_and_certifies(self, tmp_path, capsys, amplitudes, periods):
        cfg = tmp_path / "c.json"
        body = write_config(
            cfg,
            grid={"p": 3, "n": len(periods), "extents": [1.0] * 3, "nodes": [16] * 3},
            potential={
                "kind": "cosine",
                "amplitudes": amplitudes,
                "periods": periods,
                "modulation": 0.5,
                "modulation_axis": 2,
            },
            init={"kind": "random", "seed": 3},
        )
        body["output"]["closed_csv"] = True
        cfg.write_text(json.dumps(body))
        assert main(["--quiet", "solve", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "converged" and report["final"]["residual_l2"] <= 1e-8
        assert report["bound_audit"]["all_passed"]
        assert all(c["passed"] for c in report["checks"])
        certified = f"residual_l2={report['certificate']['residual_l2']:.6e} "
        for csv in ("field.csv", "field.closed.csv"):
            assert main(["residual", str(tmp_path / csv), str(cfg)]) == 0
            assert capsys.readouterr().out.startswith(certified)


class TestDeterminism:
    def test_reports_and_fields_reproduce(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            cfg = d / "c.json"
            write_config(
                cfg,
                init={"kind": "random", "seed": 11},
                solver={"method": "ncg", "max_iters": 400, "tol_residual": 1e-8},
                output={
                    "field_csv": str(d / "field.csv"),
                    "report_json": str(d / "report.json"),
                },
            )
            assert main(["--quiet", "solve", str(cfg)]) in (0, 2)
        csv_a = (tmp_path / "a" / "field.csv").read_bytes()
        csv_b = (tmp_path / "b" / "field.csv").read_bytes()
        assert csv_a == csv_b
        lines_a = (tmp_path / "a" / "report.json").read_text().splitlines()
        lines_b = (tmp_path / "b" / "report.json").read_text().splitlines()
        kept_a = [ln for ln in lines_a if '"timestamp"' not in ln]
        kept_b = [ln for ln in lines_b if '"timestamp"' not in ln]
        # identical except the config echo carries different output paths
        diffs = [
            (x, y) for x, y in zip(kept_a, kept_b) if x != y and "tmp" not in x
        ]
        assert len(kept_a) == len(kept_b)
        assert diffs == []

    def test_seed_flag_overrides_init(self, tmp_path):
        results = {}
        for seed in (1, 2, 1):
            d = tmp_path / f"s{seed}_{len(results)}"
            d.mkdir()
            cfg = d / "c.json"
            write_config(
                cfg,
                init={"kind": "random", "seed": 99},
                solver={"method": "ncg", "max_iters": 5, "tol_residual": 1e-14},
                output={
                    "field_csv": str(d / "field.csv"),
                    "report_json": str(d / "report.json"),
                },
            )
            main(["--quiet", "--seed", str(seed), "solve", str(cfg)])
            results[d.name] = (d / "field.csv").read_bytes()
        assert results["s1_0"] != results["s2_1"]
        assert results["s1_0"] == results["s1_2"]


class TestCheckCommand:
    def test_cosine_all_pass(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        assert main(["--quiet", "check", str(cfg)]) == 0

    def test_linear_forcing_fails_positivity(self, tmp_path):
        spec = GridSpec((1.0,), (8,), n=1)
        t = node_coordinates(spec)[..., 0]
        forcing = tmp_path / "forcing.csv"
        write_field_csv(forcing, Field(spec, np.sin(TWO_PI * t)))
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "linear", "forcing_csv": str(forcing)},
        )
        assert main(["--quiet", "check", str(cfg)]) == 2

    def test_quadratic_with_bogus_periods_fails(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "quadratic", "center": [0.0], "periods": [1.0]},
        )
        assert main(["--quiet", "check", str(cfg)]) == 2

    def test_overflowing_potential_fails_named_checks(self, tmp_path, capsys):
        # F = 1 + 1e307 x1^2 overflows where |x1| > 4.24, inside the sampled
        # cube [-8, 8]; the checks that read F there fail and count those
        # samples, numpy warns of none, and no line shows nan
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "expr", "expr": "1 + 1e307*x1^2"},
            init={"kind": "constant", "value": 100.0},
            checks={"samples": 100},
        )
        assert main(["check", str(cfg)]) == 2
        out = capsys.readouterr().out
        assert "nan" not in out
        x1 = cli.SampleSpec(count=100, seed=0).draw(1)[1][:, 0]
        overflowing = int(np.count_nonzero(np.abs(x1) > math.sqrt(np.finfo(float).max / 1e307)))
        failed = [line for line in out.splitlines() if " FAIL " in line]
        assert [line.split()[0] for line in failed] == ["positivity", "grad_consistency"]
        for line in failed:
            assert line.endswith(f"; {overflowing} samples not finite)")

    def test_overflowing_linear_forcing_exits_3(self, tmp_path, capsys):
        # the norm of a (1.5e308, -1.5e308) forcing, 2.1e308, overflows its
        # growth envelope; the kind is named, and numpy warns of none
        spec = GridSpec((1.0,), (8,), n=2)
        forcing = tmp_path / "forcing.csv"
        write_field_csv(forcing, Field(spec, np.array([[1.5e308, -1.5e308]] * 8)))
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 2, "extents": [1.0], "nodes": [8]},
            potential={"kind": "linear", "forcing_csv": str(forcing)},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--quiet", "check", str(cfg)]) == 3
        assert capsys.readouterr().err == (
            "error: invalid linear potential: g_max must be finite and nonnegative, got inf\n"
        )

    @pytest.mark.parametrize(
        "potential, code",
        [
            ({"kind": "cosine", "amplitudes": [1e160], "periods": [TWO_PI]}, 0),
            ({"kind": "quadratic", "center": [1e200, 0.0]}, 2),
        ],
        ids=["cosine", "quadratic"],
    )
    def test_potential_whose_squares_overflow_is_checked(
        self, tmp_path, capsys, potential, code
    ):
        # the squares in g_max overflow, its value, 1e160 or 1e200, does
        # not; the quadratic's F overflows at every sample, which fails
        # positivity and grad_consistency, and no numpy warning escapes
        cfg = tmp_path / "c.json"
        n = len(potential.get("center", [0.0]))
        write_config(
            cfg, grid={"p": 1, "n": n, "extents": [1.0], "nodes": [8]}, potential=potential
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(cfg)]) == code
        out, err = capsys.readouterr()
        assert err == ""
        assert "gradient_growth    pass  " in out

    @pytest.mark.parametrize("size", [1e160, 1e200])
    def test_linear_forcing_whose_squares_overflow_is_checked(self, tmp_path, capsys, size):
        # the squares of a +-1e160 forcing overflow, its norm 1e160 does not:
        # g_max and |grad F| are both 1e160, so the growth check passes, and
        # only positivity fails, as for any linear forcing
        spec = GridSpec((1.0,), (8,), n=1)
        forcing = tmp_path / "forcing.csv"
        write_field_csv(forcing, Field(spec, np.array([[size], [-size]] * 4)))
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "linear", "forcing_csv": str(forcing)},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        verdicts = {line.split()[0]: line.split()[1] for line in out.splitlines()[:3]}
        assert verdicts == {
            "positivity": "FAIL",
            "gradient_growth": "pass",
            "grad_consistency": "pass",
        }
        assert "gradient_growth    pass  worst=0.000e+00 " in out


class TestResidualCommand:
    def test_solve_output_certifies(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        assert main(["--quiet", "solve", str(cfg)]) == 0
        assert main(["--quiet", "residual", str(tmp_path / "field.csv"), str(cfg)]) == 0

    def test_zero_field_is_critical_point(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        zero = tmp_path / "zero.csv"
        write_field_csv(zero, Field.zeros(spec))
        assert main(["--quiet", "residual", str(zero), str(cfg)]) == 0

    def test_open_field_has_no_boundary_lines(self, tmp_path, capsys):
        # an open field has no wrap faces to match; only closed imports
        # print the face-matching check
        cfg = tmp_path / "c.json"
        write_config(cfg)
        zero = tmp_path / "zero.csv"
        write_field_csv(zero, Field.zeros(GridSpec((1.0, 1.0), (16, 16), n=1)))
        assert main(["residual", str(zero), str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("residual_l2=") and "boundary" not in out

    def test_random_field_is_not(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        rnd = tmp_path / "rnd.csv"
        write_field_csv(rnd, gaussian_field(spec, np.random.default_rng(2)))
        assert main(["--quiet", "residual", str(rnd), str(cfg)]) == 2

    def test_grid_mismatch_exits_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        other = GridSpec((1.0,), (8,), n=1)
        bad = tmp_path / "bad.csv"
        write_field_csv(bad, Field.zeros(other))
        assert main(["--quiet", "residual", str(bad), str(cfg)]) == 3

    @pytest.mark.parametrize("fault", ["missing", "directory", "columns"])
    def test_unreadable_or_misshapen_field_csv_exits_3(self, tmp_path, capsys, fault):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [4]})
        path = tmp_path / "u.csv"
        if fault == "directory":
            path.mkdir()
        elif fault == "columns":
            path.write_text("t1,u1\n" + "".join(f"{k / 4},0,0\n" for k in range(4)))
        assert main(["residual", str(path), str(cfg)]) == 3
        message = {
            "missing": f"cannot read field CSV {path}: [Errno 2] No such file or directory: '{path}'",
            "directory": f"cannot read field CSV {path}: [Errno 21] Is a directory: '{path}'",
            "columns": f"field CSV {path} must have 2 columns",
        }[fault]
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_gradient_overflow_exits_3(self, tmp_path, capsys):
        # grad F = 2e305 x1 overflows at the field's value 1e4; the
        # certificate's finite-value test refuses it at its first node, and
        # numpy warns of none
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "expr", "expr": "1 + 1e305*x1^2"},
        )
        field = tmp_path / "u.csv"
        write_field_csv(field, Field.constant(GridSpec((1.0,), (8,), n=1), 1e4))
        assert main(["residual", str(field), str(cfg)]) == 3
        assert capsys.readouterr().err == "error: grad F is not finite at node (0,), t = (0.0,)\n"

    @pytest.mark.parametrize("nodes", [128, 256])
    def test_oracle_solution_certifies_on_fine_grids(self, tmp_path, nodes):
        # the stencil terms of a fine grid are ~1e5 times the residual
        spec = GridSpec((1.0, 1.0), (nodes, nodes), n=1)
        t = node_coordinates(spec)
        f = np.sin(TWO_PI * t[..., 0]) + 0.5 * np.cos(TWO_PI * (t[..., 0] + 2.0 * t[..., 1]))
        rhs, forcing, solution = (tmp_path / name for name in ("rhs.csv", "f.csv", "u.csv"))
        write_field_csv(rhs, Field(spec, f))
        write_field_csv(forcing, Field(spec, -f))
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 2, "n": 1, "extents": [1.0, 1.0], "nodes": [nodes, nodes]},
            potential={"kind": "linear", "forcing_csv": str(forcing)},
        )
        oracle = ["--quiet", "oracle-linear", str(rhs), str(cfg), "--output", str(solution)]
        assert main(oracle) == 0
        assert main(["--quiet", "residual", str(solution), str(cfg)]) == 0

    def test_closed_import_checked_and_certified(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        spec = GridSpec((1.0, 1.0), (16, 16), n=1)
        closed = tmp_path / "closed.csv"
        write_field_csv(tmp_path / "open.csv", Field.zeros(spec), closed_path=closed)
        assert main(["--quiet", "residual", str(closed), str(cfg)]) == 0

    @pytest.mark.parametrize("wrap, code", [("5", 2), ("nan", 3)])
    def test_closed_wrap_face_must_match(self, tmp_path, capsys, wrap, code):
        # the zero field is a critical point of this quadratic, so only the
        # wrap-face row decides
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]},
            potential={"kind": "quadratic", "center": [0.0]},
        )
        spec = GridSpec((1.0,), (8,), n=1)
        closed = tmp_path / "closed.csv"
        write_field_csv(tmp_path / "open.csv", Field.zeros(spec), closed_path=closed)
        closed.write_text(closed.read_text().replace("1,0\n", f"1,{wrap}\n"))
        assert main(["residual", str(closed), str(cfg)]) == code
        out = capsys.readouterr()
        if code == 2:
            assert "residual_l2=0.000000e+00" in out.out
            assert "boundary axis 0: value=5.000e+00" in out.out
        else:
            assert "non-finite cell in data row 9" in out.err

    @pytest.mark.parametrize("where", ["header", "first row", "beyond 8 KiB"])
    def test_undecodable_byte_exits_3_naming_the_file(self, tmp_path, capsys, where):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [1024]},
            potential={"kind": "quadratic", "center": [0.0]},
        )
        path = write_undecodable_csv(tmp_path / "f.csv", where)
        assert main(["residual", str(path), str(cfg)]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: field CSV {path} cannot be decoded: ")
        assert f"position {path.read_bytes().index(0xFF)}:" in out.err


class TestOracleLinear:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [32]})
        spec = GridSpec((1.0,), (32,), n=1)
        t = node_coordinates(spec)[..., 0]
        rhs = Field(spec, np.sin(TWO_PI * t))
        rhs_path = tmp_path / "rhs.csv"
        write_field_csv(rhs_path, rhs)
        out = tmp_path / "u.csv"
        code = main(
            ["--quiet", "oracle-linear", str(rhs_path), str(cfg), "--output", str(out)]
        )
        assert code == 0
        u, _ = read_field_csv(out, spec)
        npt.assert_allclose(laplacian(u).values, rhs.values, atol=1e-10)

    def test_nonzero_mean_rhs_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]})
        spec = GridSpec((1.0,), (8,), n=1)
        rhs_path = tmp_path / "rhs.csv"
        write_field_csv(rhs_path, Field.constant(spec, 1.0))
        assert main(["--quiet", "oracle-linear", str(rhs_path), str(cfg)]) == 3
        assert capsys.readouterr().err == (
            "error: right-hand side must have zero mean per component, got [1.]\n"
        )

    def test_rhs_whose_squares_overflow_is_solved(self, tmp_path, capsys):
        # the squares of +-1e307 overflow, its L2 norm 1e307 does not, so the
        # zero-mean rhs is solved, with no numpy warning
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]})
        spec = GridSpec((1.0,), (8,), n=1)
        rhs = Field(spec, np.array([(-1e307, 1e307)] * 4).reshape(spec.shape))
        rhs_path = tmp_path / "rhs.csv"
        write_field_csv(rhs_path, rhs)
        out = tmp_path / "u.csv"
        argv = ["--quiet", "oracle-linear", str(rhs_path), str(cfg), "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        u, _ = read_field_csv(out, spec)
        npt.assert_allclose(laplacian(u).values, rhs.values, rtol=1e-12)

    @pytest.mark.parametrize(
        "values, message",
        [
            ((5e306, 1e307), "must have zero mean per component, got [7.5e+306]"),
            ((-1.5e308, 1.5e308), "must have a finite L2 norm, got inf"),
            ((1.5e308, 1e308), "must have a finite L2 norm, got inf"),
        ],
        ids=["nonzero-mean", "zero-mean", "nonzero-mean-norm"],
    )
    def test_rhs_with_overflowing_norm_exits_3(self, tmp_path, capsys, values, message):
        # the squares of each rhs overflow; the first one's norm does not,
        # so the zero-mean test refuses its mean of 7.5e306, and the norms
        # of the others, 3e308 and 2.5e308 over a domain of volume 4,
        # overflow themselves
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [4.0], "nodes": [8]})
        spec = GridSpec((4.0,), (8,), n=1)
        rhs_path = tmp_path / "rhs.csv"
        write_field_csv(rhs_path, Field(spec, np.array([values] * 4).reshape(spec.shape)))
        out = tmp_path / "u.csv"
        argv = ["--quiet", "oracle-linear", str(rhs_path), str(cfg), "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert capsys.readouterr().err == f"error: right-hand side {message}\n"
        assert not out.exists()

    def test_rhs_whose_transform_overflows_exits_3(self, tmp_path, capsys):
        # the norm of +-1.5e308 on 8 nodes of a unit interval, 1.5e308, is
        # finite, and its Nyquist coefficient, 1.2e309, is not
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]})
        spec = GridSpec((1.0,), (8,), n=1)
        rhs_path = tmp_path / "rhs.csv"
        write_field_csv(rhs_path, Field(spec, 1.5e308 * (-1.0) ** np.arange(8)))
        out = tmp_path / "u.csv"
        argv = ["--quiet", "oracle-linear", str(rhs_path), str(cfg), "--output", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        assert capsys.readouterr() == (
            "",
            "error: right-hand side must have a finite DFT; its transform overflows\n",
        )
        assert not out.exists()

    def test_output_hard_linked_to_the_rhs_exits_3_before_reading(
        self, tmp_path, capsys, monkeypatch
    ):
        def unreachable(*args):
            raise AssertionError("the right-hand side must not be read")

        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]})
        spec = GridSpec((1.0,), (8,), n=1)
        t = node_coordinates(spec)[..., 0]
        write_field_csv(tmp_path / "rhs.csv", Field(spec, np.sin(TWO_PI * t)))
        os.link(tmp_path / "rhs.csv", tmp_path / "u.csv")
        before = (tmp_path / "rhs.csv").read_bytes()
        monkeypatch.setattr(cli, "read_field_csv", unreachable)
        argv = ["--quiet", "oracle-linear", "rhs.csv", str(cfg), "--output", "u.csv"]
        assert main(argv) == 3
        assert capsys.readouterr() == (
            "", "error: rhs_csv and --output name the same file u.csv\n"
        )
        assert (tmp_path / "rhs.csv").read_bytes() == before

    @pytest.mark.parametrize(
        "output, message",
        [
            ("c.json", "config and --output name the same file c.json"),
            ("rhs.csv", "rhs_csv and --output name the same file rhs.csv"),
            ("out/../rhs.csv", "rhs_csv and --output name the same file out/../rhs.csv"),
            ("out", "--output: out is a directory"),
            ("nodir/u.csv", "--output: directory nodir does not exist"),
        ],
        ids=["config", "rhs", "rhs-respelled", "dir", "missing-dir"],
    )
    def test_unwritable_output_exits_3_before_reading(
        self, tmp_path, capsys, monkeypatch, output, message
    ):
        def unreachable(*args):
            raise AssertionError("the right-hand side must not be read")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").mkdir()
        cfg = tmp_path / "c.json"
        write_config(cfg, grid={"p": 1, "n": 1, "extents": [1.0], "nodes": [8]})
        spec = GridSpec((1.0,), (8,), n=1)
        t = node_coordinates(spec)[..., 0]
        write_field_csv(tmp_path / "rhs.csv", Field(spec, np.sin(TWO_PI * t)))
        before = {path: path.read_bytes() for path in (cfg, tmp_path / "rhs.csv")}
        monkeypatch.setattr(cli, "read_field_csv", unreachable)
        argv = ["--quiet", "oracle-linear", "rhs.csv", str(cfg), "--output", output]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert {path: path.read_bytes() for path in before} == before
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.json", "out", "rhs.csv"]
        assert not any((tmp_path / "out").iterdir())


class TestReportSchema:
    def test_solve_report_key_sets(self, tmp_path):
        # F declares no periods, so the mean-in-cell audit reports a
        # non-finite margin as null; its flat quartic minimum keeps the run
        # going to max_iters (a quadratic converges in one unit step)
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            grid={"p": 1, "n": 2, "extents": [1.0], "nodes": [8]},
            potential={"kind": "expr", "expr": "1 + x1^4 + x2^4"},
            init={"kind": "random", "seed": 3},
            solver={"method": "ncg", "max_iters": 2},
        )
        assert main(["--quiet", "solve", str(cfg)]) == 2
        text = (tmp_path / "report.json").read_text()
        report = json.loads(text)
        assert report["schema"] == "poisson-grad-report-v4"
        # the timestamp is alone on its line, so a line filter drops only it
        assert [line for line in text.splitlines() if "timestamp" in line] == [
            f'  "timestamp": "{report["timestamp"]}",'
        ]
        assert set(report) == {
            "schema", "version", "timestamp", "command", "config", "seed",
            "checks", "check_notes", "status", "iterations", "final",
            "bound_audit", "certificate", "assumptions",
        }
        assert set(report["iterations"][0]) == {
            "iter", "action_total", "action_kinetic", "action_potential",
            "residual_l2", "du_norm_sq", "mean", "tilde_norm", "step",
            "shifts", "gauge_dev", "h1_mass",
        }
        assert report["iterations"][0]["h1_mass"] == [1.0, 1.0]
        last = report["iterations"][-1]
        assert last["iter"] == 2
        assert report["final"] == {
            key: last[key]
            for key in (
                "action_total", "action_kinetic", "action_potential",
                "residual_l2", "mean", "tilde_norm",
            )
        }
        assert set(report["checks"][0]) == {
            "name", "passed", "samples", "worst", "threshold", "detail",
        }
        assert set(report["bound_audit"]) == {
            "energy_descent", "wirtinger", "mean_in_cell", "f_floor", "all_passed",
        }
        assert set(report["bound_audit"]["mean_in_cell"]) == {
            "passed", "worst_margin", "note",
        }
        assert report["bound_audit"]["mean_in_cell"]["worst_margin"] is None
        assert set(report["certificate"]) == {
            "residual_l2", "residual_linf", "residual_tol", "residual_ok", "wirtinger",
        }
        assert set(report["certificate"]["wirtinger"]) == {
            "lhs", "rhs", "constant", "passed",
        }

    def test_certificate_keys_are_certificate_fields(self, tmp_path):
        # the report writes the certificate, the bound audit and the checks
        # as they are, with nothing removed or renamed
        cfg = tmp_path / "c.json"
        write_config(cfg)
        assert main(["--quiet", "solve", str(cfg)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["certificate"]) == {f.name for f in fields(Certificate)}
        audit = report["bound_audit"]
        assert set(audit) == {f.name for f in fields(BoundAudit)} | {"all_passed"}
        for f in fields(BoundAudit):
            if f.name != "f_floor":
                assert set(audit[f.name]) == {g.name for g in fields(BoundResult)}
        assert report["checks"]
        for check in report["checks"]:
            assert set(check) == {f.name for f in fields(CheckReport)}


# code points for the encoder's strings: controls, the quote and the
# backslash, "/" and "%", ASCII, Latin-1, CJK and one outside the BMP, which
# JSON writes as a surrogate pair
_CODE_POINTS = [0, 1, 8, 9, 10, 13, 31, 34, 37, 47, 92, 127, 0xE9, 0x4E2D, 0x1F600] + list(
    range(32, 127, 7)
)
_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-7, 1.0, 0.1, 2.0**53, -1.7976931348623157e308]


def _random_json(rng, depth):
    """A random payload for the report encoder: every JSON type, tuples,
    empty containers, float and int edge cases and an np.float64."""
    kind = int(rng.integers(0, 11 if depth < 4 else 7))
    if kind == 0:
        return "".join(chr(c) for c in rng.choice(_CODE_POINTS, size=int(rng.integers(0, 6))))
    if kind == 1:
        return None
    if kind == 2:
        return bool(rng.integers(0, 2))
    if kind == 3:
        return int(rng.choice([0, -1, 7, 2**63, -(10**30), 10**40]))
    if kind == 4:
        return _SPECIAL_FLOATS[int(rng.integers(0, len(_SPECIAL_FLOATS)))]
    if kind == 5:
        return float(rng.standard_normal() * 10.0 ** int(rng.integers(-12, 13)))
    if kind == 6:
        return np.float64(rng.standard_normal())
    items = [_random_json(rng, depth + 1) for _ in range(int(rng.integers(0, 5)))]
    if kind == 7:
        return items
    if kind == 8:
        return tuple(items)
    return {_random_json_key(rng): item for item in items}


def _random_json_key(rng):
    return "".join(chr(c) for c in rng.choice(_CODE_POINTS, size=int(rng.integers(0, 4))))


def _v4_layout(payload):
    """The v4 report layout, spelled out: "{", each top-level key in sorted
    order on a line of its own with its value on one line, except that each
    item of a non-empty top-level array gets its own line; "}"."""

    def one_line(value):
        return json.dumps(value, sort_keys=True, allow_nan=False)

    lines = ["{"]
    for k, key in enumerate(sorted(payload)):
        comma = "," if k < len(payload) - 1 else ""
        value = payload[key]
        if isinstance(value, (list, tuple)) and value:
            lines.append(f"  {one_line(key)}: [")
            lines += [f"    {one_line(item)}," for item in value[:-1]]
            lines += [f"    {one_line(value[-1])}", f"  ]{comma}"]
        else:
            lines.append(f"  {one_line(key)}: {one_line(value)}{comma}")
    return "\n".join(lines + ["}"]) + "\n"


class TestReportEncoder:
    """``write_report`` writes the v4 layout (see ``_v4_layout``), and the
    text reads back as the payload."""

    @staticmethod
    def encoded(tmp_path, payload):
        path = tmp_path / "r.json"
        cli.write_report(path, payload)
        text = path.read_text()
        # tuples read back as lists
        assert json.loads(text) == json.loads(json.dumps(payload))
        return text

    def test_matches_v4_layout_on_random_payloads(self, tmp_path):
        rng = np.random.default_rng(20)
        for _ in range(200):
            payload = {_random_json_key(rng): _random_json(rng, 1) for _ in range(4)}
            assert self.encoded(tmp_path, payload) == _v4_layout(payload)

    def test_matches_v4_layout_on_edge_cases(self, tmp_path):
        payload = {
            "floats": [-0.0, 5e-324, 1e16, 1e-7, np.float64(0.1), np.float64(-2.5e-300)],
            "ints": [2**70, -(2**70), True, False, None],
            "strings": ["\x00\x1f\"\\/", "é中\U0001F600", "%s %r", ""],
            "empty": {"dict": {}, "list": [], "tuple": ()},
            "nested": ((1, (2.5, [])), {"b": {"a": ()}}),
            "": "empty key",
            "empty list": [],
            "empty tuple": (),
            "scalar": np.float64(-0.0),
        }
        text = self.encoded(tmp_path, payload)
        assert text == _v4_layout(payload)
        # spot checks of the layout itself, independent of _v4_layout
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        assert lines[1] == '  "": "empty key",'
        assert '  "empty list": [],' in lines and '  "empty tuple": [],' in lines
        assert lines[lines.index('  "floats": [') + 1] == "    -0.0,"
        assert '    [1, [2.5, []]],' in lines and '    "\\u00e9\\u4e2d\\ud83d\\ude00",' in lines
        assert '  "scalar": -0.0,' in lines
        # "strings", the last key, holds an array
        assert lines[-2] == "  ]"

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]
    )
    @pytest.mark.parametrize("where", ["top", "dict", "list", "nested"])
    def test_non_finite_float_raises(self, tmp_path, bad, where):
        # a top-level value, a value in a dict, a top-level array's item,
        # and an item of a tuple in an array in a dict
        payload = {
            "top": {"top": bad},
            "dict": {"dict": {"x": 1.0, "y": bad}},
            "list": {"list": [1.0, bad]},
            "nested": {"nested": {"a": [(0.5, bad)]}},
        }[where]
        with pytest.raises(ValueError):
            json.dumps(payload, allow_nan=False)
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.write_report(tmp_path / "r.json", payload)

    @pytest.mark.parametrize("bad", [np.int64(1), {1, 2}, b"x", object()])
    def test_unserializable_value_raises_type_error(self, tmp_path, bad):
        payload = {"a": [bad]}
        with pytest.raises(TypeError):
            json.dumps(payload, allow_nan=False)
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli.write_report(tmp_path / "r.json", payload)


@pytest.mark.parametrize(
    "name", ["pendulum.json", "expression_well.json", "stiff_cosine.json"]
)
def test_check_output_is_the_start_of_solve_output(tmp_path, capsys, monkeypatch, name):
    # solve's check phase is the check command
    config = str(Path(__file__).resolve().parents[1] / "configs" / name)
    monkeypatch.chdir(tmp_path)
    check_code = main(["check", config])
    check_out = capsys.readouterr().out
    assert check_code == 0
    assert main(["solve", config]) == 0
    solve_out = capsys.readouterr().out
    assert check_out and solve_out.startswith(check_out)
    assert len(solve_out) > len(check_out)


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_readme_config_block_names_every_key(tmp_path):
    # the config reference in README names exactly the keys load_config
    # accepts; its comments are stripped before parsing
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Config format", 1)[1].split("```jsonc\n", 1)[1]
    reference = json.loads(re.sub(r"//.*", "", block.split("```", 1)[0]))
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    cli.load_config(path)
    assert {section: set(body) for section, body in reference.items()} == cli._SECTIONS
    assert set(reference["potential"]["growth"]) == cli._GROWTH_KEYS


def test_readme_library_examples_run(capsys):
    # each ```python block of README runs as it stands, in a fresh namespace
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [part.split("```", 1)[0] for part in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    printed = []
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
        printed.append(capsys.readouterr().out)
    assert printed[0].split()[:1] == ["converged"]
    assert printed[1] == "False\n"
