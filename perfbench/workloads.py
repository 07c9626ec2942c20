"""The benchmark's workloads: inputs made from a seed, the operations run on
them, and the checks each operation's outputs must pass.

An operation is a sequence of ``poisson_grad.cli.main`` commands that ends
in a certificate.  The program only ever sees the config and CSV files
written here, under the run's work directory.

Solve cost is a chaotic function of the start: moving a constant start by
1e-12 changes the iteration count of the cosine-sheet problem on a 48^2 grid
from 1090 to 1181, and random starts on expression_well.json at N = 16 range
from 916 to 3829 iterations.  A start
drawn afresh from every seed would put the input's cost, not the program's,
into the run-to-run spread, so each solve workload starts where its shipped
config does; the seed draws the sampled hypothesis checks.  The
certify-ladder forcings, whose cost does not depend on their values, are
drawn from the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from poisson_grad import cli
from poisson_grad.verify import certify
from refspeed import Speedometer


class CheckFailed(Exception):
    """An operation's outputs failed a benchmark check."""


@dataclass
class Operation:
    key: str  # names the inputs; repeats of one key must give identical outputs
    commands: list[list[str]]
    check: Callable[[list[str]], str]  # stdout per command -> output digest


@dataclass
class Plan:
    pool: list[Operation]
    configs: list[Path]  # what set-up builds
    field_bytes: int  # bytes of the largest field one operation computes


def run_command(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command in-process; returns its exit code and output."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass
class Sample:
    key: str
    seconds: float  # up to the end of the last command, or to the failure
    ref_seconds: float  # the same at reference speed; nan when not sampled
    error: str | None
    wrong: bool  # the program reported success but its outputs failed a check


class Runner:
    """Runs operations and checks them; remembers each input's first output
    digest, so that a repeat with different outputs fails.

    With ``reference_speed``, each untraced operation runs under a
    ``refspeed.Speedometer`` and its sample carries its time at reference
    speed too.
    """

    def __init__(self, reference_speed: bool) -> None:
        self.digests: dict[str, str] = {}
        self.reference_speed = reference_speed

    def run(self, op: Operation, tracer=None, op_id: int = -1) -> Sample:
        outputs: list[str] = []
        error = None
        if tracer is not None:
            tracer.install(op_id)
        speed = Speedometer() if self.reference_speed and tracer is None else nullcontext()
        with speed:
            start = time.perf_counter()
            try:
                for argv in op.commands:
                    code, out = run_command(argv)
                    outputs.append(out)
                    if code != 0:
                        error = f"exit {code}"
                        break
            except (Exception, SystemExit) as err:  # anything escaping cli.main
                error = type(err).__name__
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
        ref = speed.scale(elapsed) if isinstance(speed, Speedometer) else math.nan
        if error is not None:
            return Sample(op.key, elapsed, ref, error, False)
        try:
            digest = op.check(outputs)
            if self.digests.setdefault(op.key, digest) != digest:
                raise CheckFailed("outputs differ from an earlier repeat")
        except (CheckFailed, KeyError, ValueError, OSError) as err:
            print(f"{op.key}: check failed: {err!r}", file=sys.stderr)
            return Sample(op.key, elapsed, ref, "CheckFailed", True)
        return Sample(op.key, elapsed, ref, None, False)


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _field_bytes(cfg: dict) -> int:
    return math.prod(cfg["grid"]["nodes"]) * cfg["grid"]["n"] * 8


_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')


def _solve_check(cfg_path: Path, cfg: dict) -> Callable[[list[str]], str]:
    """Solve succeeds when it converged, the bound audit passed, the report's
    certificate holds, and the written field certifies again on re-reading."""
    field_csv = Path(cfg["output"]["field_csv"])
    report_json = Path(cfg["output"]["report_json"])
    tol = cfg["solver"]["tol_residual"]

    def check(outputs: list[str]) -> str:
        raw = report_json.read_bytes()
        report = json.loads(raw)
        if report["status"] != "converged":
            raise CheckFailed(f"status {report['status']}")
        if not report["bound_audit"]["all_passed"]:
            raise CheckFailed("bound audit failed")
        if not report["certificate"]["residual_ok"]:
            raise CheckFailed("report certificate not ok")
        loaded = cli.load_config(cfg_path)
        spec = cli.build_grid(loaded)
        pot = cli.build_potential(loaded, spec)
        field, closed = cli.read_field_csv(field_csv, spec)
        if closed:
            raise CheckFailed("field CSV was written in closed form")
        cert = certify(field, pot, tol)
        if not cert.residual_ok:
            raise CheckFailed(f"re-read field does not certify: {cert.residual_l2:.3e}")
        if cert.residual_l2 != report["certificate"]["residual_l2"]:
            raise CheckFailed("re-read field certifies to another residual than reported")
        iterations = report["iterations"][-1]["iter"]
        body = hashlib.sha256(_TIMESTAMP.sub(b"", raw)).hexdigest()
        field_digest = hashlib.sha256(field_csv.read_bytes()).hexdigest()
        return f"iterations={iterations} report={body} field={field_digest}"

    return check


def _solve_plan(work: Path, name: str, cfg: dict) -> Plan:
    cfg["output"]["field_csv"] = str(work / f"{name}-field.csv")
    cfg["output"]["report_json"] = str(work / f"{name}-report.json")
    path = _write_json(work / f"{name}.json", cfg)
    op = Operation(
        key=name,
        commands=[["--quiet", "solve", str(path)]],
        check=_solve_check(path, cfg),
    )
    return Plan(pool=[op], configs=[path], field_bytes=_field_bytes(cfg))


def _check_seed(seed: int) -> int:
    return int(np.random.default_rng(seed).integers(0, 2**31))


def expr_well(work: Path, seed: int) -> Plan:
    """configs/expression_well.json at N = 12 instead of 32, from its shipped
    random start (seed 7)."""
    cfg = {
        "grid": {"p": 1, "n": 2, "extents": [1.0], "nodes": [12]},
        "potential": {
            "kind": "expr",
            "expr": (
                "0.1 + (1 - cos(x1)) + 0.5*(1 - cos(2*pi*x2/3))"
                " + 0.2*sin(2*pi*t1)*sin(x1)"
            ),
            "periods": [2.0 * math.pi, 3.0],
            "positive": True,
            "growth": {"m": 0.0, "g_max": 2.5},
        },
        "init": {"kind": "random", "seed": 7},
        "solver": {"method": "ncg", "max_iters": 20000, "tol_residual": 1e-6},
        "output": {},
        "checks": {"samples": 2000, "seed": _check_seed(seed)},
    }
    return _solve_plan(work, "expr-well", cfg)


def cosine_sheet(work: Path, seed: int) -> Plan:
    """configs/pendulum.json on a 24^2 grid, modulated by 0.5 along t1, to
    tolerance 1e-6, from its shipped constant start 0.6."""
    cfg = {
        "grid": {"p": 2, "n": 1, "extents": [1.0, 1.0], "nodes": [24, 24]},
        "potential": {
            "kind": "cosine",
            "amplitudes": [1.0],
            "periods": [2.0 * math.pi],
            "floor": 0.1,
            "modulation": 0.5,
            "modulation_axis": 0,
        },
        "init": {"kind": "constant", "value": 0.6},
        "solver": {"method": "ncg", "max_iters": 20000, "tol_residual": 1e-6},
        "output": {"closed_csv": True},
        "checks": {"samples": 2000, "seed": _check_seed(seed)},
    }
    return _solve_plan(work, "cosine-sheet", cfg)


LADDER_NODES = (64, 128, 256)
LADDER_MODES = ((1, 0), (0, 1), (1, 1), (2, -1))


def _write_field(path: Path, values: np.ndarray) -> None:
    """Open-form field CSV for a unit-square grid, 17 significant digits."""
    nodes = values.shape[:-1]
    coords = np.stack(
        np.meshgrid(*(np.arange(k) / k for k in nodes), indexing="ij"), axis=-1
    )
    header = ",".join(
        [f"t{a + 1}" for a in range(len(nodes))] + [f"u{i + 1}" for i in range(values.shape[-1])]
    )
    rows = np.concatenate([coords, values], axis=-1).reshape(-1, len(nodes) + values.shape[-1])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _forcing(rng: np.random.Generator, count: int) -> np.ndarray:
    """Zero-mean forcing on a count^2 grid with two components: low Fourier
    modes with random amplitudes and phases plus small noise."""
    t = np.arange(count) / count
    t1, t2 = np.meshgrid(t, t, indexing="ij")
    f = np.zeros((count, count, 2))
    for comp in range(2):
        for k1, k2 in LADDER_MODES:
            amp = rng.uniform(0.5, 1.5)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            f[..., comp] += amp * np.sin(2.0 * math.pi * (k1 * t1 + k2 * t2) + phase)
    f += 0.01 * rng.standard_normal(f.shape)
    return f - f.mean(axis=(0, 1))


def _ladder_check(oracle_csv: Path) -> Callable[[list[str]], str]:
    """Both commands exited 0, so the oracle wrote a solution and the
    residual command certified it; the digest covers both outputs."""

    def check(outputs: list[str]) -> str:
        if "-> ok" not in outputs[1]:
            raise CheckFailed("residual command did not report ok")
        return hashlib.sha256(oracle_csv.read_bytes()).hexdigest() + "\n" + outputs[1]

    return check


def certify_ladder(work: Path, seed: int) -> Plan:
    """Manufactured linear problems laplacian(u) = f, p = 2, n = 2, at
    64^2, 128^2 and 256^2: DFT oracle, then certification."""
    pool = []
    paths = []
    largest = 0
    for count in LADDER_NODES:
        rng = np.random.default_rng([seed, count])
        f = _forcing(rng, count)
        stem = work / f"ladder-{count}"
        rhs = Path(f"{stem}-rhs.csv")
        forcing = Path(f"{stem}-forcing.csv")
        oracle = Path(f"{stem}-oracle.csv")
        _write_field(rhs, f)
        _write_field(forcing, -f)
        cfg = {
            "grid": {"p": 2, "n": 2, "extents": [1.0, 1.0], "nodes": [count, count]},
            "potential": {"kind": "linear", "forcing_csv": str(forcing)},
            "solver": {"tol_residual": 1e-6},
        }
        path = _write_json(Path(f"{stem}.json"), cfg)
        paths.append(path)
        largest = max(largest, _field_bytes(cfg))
        pool.append(
            Operation(
                key=f"ladder-{count}",
                commands=[
                    ["--quiet", "oracle-linear", str(rhs), str(path), "--output", str(oracle)],
                    ["residual", str(oracle), str(path)],
                ],
                check=_ladder_check(oracle),
            )
        )
    return Plan(pool=pool, configs=paths, field_bytes=largest)


WORKLOADS = {
    "expr-well": expr_well,
    "cosine-sheet": cosine_sheet,
    "certify-ladder": certify_ladder,
}
