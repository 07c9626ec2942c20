"""Command-line front end: config parsing, run orchestration, serialization.

Configs are single JSON files with fixed key paths (unknown keys are
rejected, so typos fail fast).  Fields travel as CSV with header
``t1,...,tp,u1,...,un``, one row per node in lexicographic node order and
17 significant digits, which round-trips float64 exactly; the optional
closed form repeats the wrap faces (N_alpha + 1 rows per axis) for
interchange with external producers.  Run reports are JSON with sorted
keys; identical config and seed reproduce them byte-for-byte except for
the single isolated ``timestamp`` field.

Exit codes: 0 success/converged, 2 not converged or failed checks
(including a failed internal consistency check, such as the gauge
assertion under a wrong periods declaration), 3 invalid config or
malformed input, 4 expression error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .expr import ExprError, ExpressionPotential, line_col
from .grid import Field, GridSpec, l2_norm, lattice_axes, mean
from .grid import solve_linear_poisson
from .potential import (
    CheckReport,
    CosineLattice,
    GrowthEnvelope,
    LinearForcing,
    Potential,
    Sample,
    SampleSpec,
    ShiftedQuadratic,
    check_grad_consistency,
    check_gradient_growth,
    check_periodicity,
    check_positivity,
)
from .solver import SolverConfig, check_minimizing_bounds, minimize, random_init
from .verify import boundary_check, certify

__all__ = ["ConfigError", "FormatError", "main"]

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_BAD_CONFIG = 3
EXIT_BAD_EXPR = 4


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


class FormatError(ValueError):
    """Malformed field CSV."""


# ---------------------------------------------------------------------------
# config schema

# the potential keys each kind reads, besides "kind"
_POTENTIAL_KEYS = {
    "cosine": {"amplitudes", "periods", "floor", "modulation", "modulation_axis"},
    "quadratic": {"center", "floor", "periods"},
    "linear": {"forcing_csv"},
    "expr": {"expr", "periods", "positive", "growth"},
}

_SECTIONS = {
    "grid": {"p", "n", "extents", "nodes"},
    "potential": {"kind"}.union(*_POTENTIAL_KEYS.values()),
    "init": {"kind", "value", "seed", "path"},
    "solver": {f.name for f in fields(SolverConfig)},
    "output": {"field_csv", "closed_csv", "report_json"},
    "checks": {"samples", "seed"},
}

_GROWTH_KEYS = {f.name for f in fields(GrowthEnvelope)}


def load_config(path: str | Path) -> dict:
    """Read and structurally validate a run config."""
    try:
        raw = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    for section, body in cfg.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for key in body:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    growth = cfg.get("potential", {}).get("growth")
    if growth is not None:
        if not isinstance(growth, dict):
            raise ConfigError("potential.growth must be an object")
        for key in growth:
            if key not in _GROWTH_KEYS:
                raise ConfigError(f"unknown config key potential.growth.{key}")
    for section in ("grid", "potential"):
        if section not in cfg:
            raise ConfigError(f"config section {section!r} is required")
    return cfg


def _need(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing config key {path}")
    return section[key]


def _number(value, path: str, integral: bool = False) -> float | int:
    """A JSON number as float, or as int for an ``integral`` key (``8.0``
    reads as 8); anything else, including NaN and a literal that overflows
    to infinity, raises ConfigError naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise ConfigError(f"{path} must be a number, got {json.dumps(value)}")
    if isinstance(value, float) and math.isinf(value):
        raise ConfigError(f"{path} is out of range: {json.dumps(value)}")
    if not integral:
        try:
            return float(value)
        except OverflowError as err:
            raise ConfigError(f"{path} is out of range: {err}") from err
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{path} must be an integer, got {json.dumps(value)}")
    return int(value)


def _text(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {json.dumps(value)}")
    return value


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {json.dumps(value)}")
    return value


def _floats(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path} must be a non-empty array of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _periods(pot: dict, spec: GridSpec, required: bool) -> list[float] | None:
    """potential.periods as grid.n floats; None when optional and absent."""
    if not required and pot.get("periods") is None:
        return None
    periods = _floats(_need(pot, "periods", "potential.periods"), "potential.periods")
    if len(periods) != spec.n:
        raise ConfigError(f"potential.periods must have length grid.n = {spec.n}")
    return periods


def build_grid(cfg: dict) -> GridSpec:
    g = cfg["grid"]
    p = _number(_need(g, "p", "grid.p"), "grid.p", integral=True)
    n = _number(_need(g, "n", "grid.n"), "grid.n", integral=True)
    extents = _floats(_need(g, "extents", "grid.extents"), "grid.extents")
    nodes = _need(g, "nodes", "grid.nodes")
    if not isinstance(nodes, (list, tuple)):
        raise ConfigError("grid.nodes must be an array of integers")
    if len(extents) != p or len(nodes) != p:
        raise ConfigError(
            f"grid.extents and grid.nodes must have length grid.p = {p}"
        )
    nodes = tuple(
        _number(k, f"grid.nodes[{a}]", integral=True) for a, k in enumerate(nodes)
    )
    try:
        return GridSpec(tuple(extents), nodes, n=n)
    except ValueError as err:
        raise ConfigError(f"invalid grid: {err}") from err


def _growth_from(cfg_growth: dict) -> GrowthEnvelope:
    bounds = {k: _number(v, f"potential.growth.{k}") for k, v in cfg_growth.items()}
    try:
        return GrowthEnvelope(**bounds)
    except ValueError as err:
        raise ConfigError(f"invalid potential.growth: {err}") from err


def build_potential(cfg: dict, spec: GridSpec) -> Potential:
    """The configured potential; a key that its kind does not read is
    rejected once the kind's own keys have been read."""
    pot = cfg["potential"]
    kind = _need(pot, "kind", "potential.kind")
    if kind == "cosine":
        periods = _periods(pot, spec, required=True)
        amplitudes = _floats(
            pot.get("amplitudes", [1.0] * spec.n), "potential.amplitudes"
        )
        if len(amplitudes) != spec.n:
            raise ConfigError(f"potential.amplitudes must have length grid.n = {spec.n}")
        axis = _number(
            pot.get("modulation_axis", 0), "potential.modulation_axis", integral=True
        )
        floor = _number(pot.get("floor", 0.1), "potential.floor")
        modulation = _number(pot.get("modulation", 0.0), "potential.modulation")
        try:
            built = CosineLattice(
                amplitudes,
                periods,
                floor=floor,
                modulation=modulation,
                mod_axis=axis,
                # an axis outside 0..p-1 is CosineLattice's to reject; the
                # modulo keeps this lookup from raising IndexError first
                mod_extent=spec.extents[axis % spec.p],
                p=spec.p,
            )
        except ValueError as err:
            raise ConfigError(f"invalid cosine potential: {err}") from err
    elif kind == "quadratic":
        center = _floats(_need(pot, "center", "potential.center"), "potential.center")
        if len(center) != spec.n:
            raise ConfigError(f"potential.center must have length grid.n = {spec.n}")
        floor = _number(pot.get("floor", 1.0), "potential.floor")
        # a periodicity *claim*, not a property: the checks falsify it
        periods = _periods(pot, spec, required=False)
        try:
            built = ShiftedQuadratic(center, floor=floor, p=spec.p, periods=periods)
        except ValueError as err:
            raise ConfigError(f"invalid quadratic potential: {err}") from err
    elif kind == "linear":
        path = _text(_need(pot, "forcing_csv", "potential.forcing_csv"), "potential.forcing_csv")
        if not Path(path).exists():
            raise ConfigError(f"potential.forcing_csv does not exist: {path}")
        built = LinearForcing(_read_open_field(path, spec, "potential.forcing_csv"))
    elif kind == "expr":
        source = _text(_need(pot, "expr", "potential.expr"), "potential.expr")
        growth = pot.get("growth")
        built = ExpressionPotential(
            source,
            spec.p,
            spec.n,
            periods=_periods(pot, spec, required=False),
            positivity_claim=_flag(pot.get("positive", False), "potential.positive"),
            growth=None if growth is None else _growth_from(growth),
        )
    else:
        raise ConfigError(
            f"potential.kind must be cosine|quadratic|linear|expr, got {kind!r}"
        )
    unread = sorted(pot.keys() - _POTENTIAL_KEYS[kind] - {"kind"})
    if unread:
        raise ConfigError(f"config key potential.{unread[0]} is not read by kind {kind!r}")
    return built


def build_solver_config(cfg: dict, seed_override: int | None) -> SolverConfig:
    s = dict(cfg.get("solver", {}))
    for key in ("max_iters", "tol_residual"):
        if key in s:
            s[key] = _number(s[key], f"solver.{key}", integral=key == "max_iters")
    if seed_override is not None:
        s["rng_seed"] = seed_override
    try:
        return SolverConfig(**s)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid solver config: {err}") from err


def build_init(cfg: dict, spec: GridSpec, pot: Potential, seed_override: int | None) -> Field:
    init = cfg.get("init", {"kind": "random"})
    kind = init.get("kind", "random")
    if kind == "constant":
        value = _need(init, "value", "init.value")
        if isinstance(value, (list, tuple)):
            vec = _floats(value, "init.value")
        else:
            vec = [_number(value, "init.value")]
        if len(vec) not in (1, spec.n):
            raise ConfigError(f"init.value must be a scalar or length {spec.n}")
        return Field.constant(spec, vec if len(vec) == spec.n else vec[0])
    if kind == "random":
        if seed_override is not None:
            seed = seed_override
        elif "seed" in init:
            seed = _number(init["seed"], "init.seed", integral=True)
        else:
            seed = _number(
                cfg.get("solver", {}).get("rng_seed", 0), "solver.rng_seed", integral=True
            )
        return random_init(spec, periods=pot.periods, seed=seed)
    if kind == "csv":
        path = _text(_need(init, "path", "init.path"), "init.path")
        if not Path(path).exists():
            raise ConfigError(f"init.path does not exist: {path}")
        return _read_open_field(path, spec, "init.path")
    raise ConfigError(f"init.kind must be constant|random|csv, got {kind!r}")


def build_sampler(cfg: dict, spec: GridSpec) -> SampleSpec:
    checks = cfg.get("checks", {})
    samples = _number(checks.get("samples", 1000), "checks.samples", integral=True)
    seed = _number(checks.get("seed", 0), "checks.seed", integral=True)
    try:
        return SampleSpec(count=samples, seed=seed, t_extents=spec.extents)
    except ValueError as err:
        raise ConfigError(
            f"invalid sampling plan checks.samples = {samples!r}: {err}"
        ) from err


# ---------------------------------------------------------------------------
# field CSV

def _header(spec: GridSpec) -> str:
    return ",".join(
        [f"t{a + 1}" for a in range(spec.p)] + [f"u{i + 1}" for i in range(spec.n)]
    )


# rows the field CSV writer formats per `%`; it bounds the text held at
# once, so the writer's memory follows the field, not the file
_BLOCK_ROWS = 4096


def write_field_csv(path: str | Path, field: Field, closed: bool = False) -> None:
    """Write a field as CSV; 17 significant digits round-trip float64 exactly.

    Each lattice coordinate is formatted once per axis; a row's coordinate
    prefix joins one string per axis, drawn lazily in node order.  Rows go
    out in blocks of ``_BLOCK_ROWS``, one ``%`` per block over the prefixes
    interleaved with the values, so the writer holds one block of text."""
    spec = field.spec
    values = field.closed_values() if closed else field.values
    shape = values.shape[:-1]
    axes = [["%.17g," % t for t in a.tolist()] for a in lattice_axes(spec.spacings, shape)]
    prefixes = map("".join, itertools.product(*axes))
    values = values.reshape(-1, spec.n)
    row = "%s" + ",".join(["%.17g"] * spec.n) + "\n"
    with open(path, "w") as fh:
        fh.write(_header(spec) + "\n")
        for start in range(0, len(values), _BLOCK_ROWS):
            block = values[start : start + _BLOCK_ROWS]
            cells = np.empty((len(block), 1 + spec.n), dtype=object)
            cells[:, 0] = list(itertools.islice(prefixes, len(block)))
            cells[:, 1:] = block
            fh.write(row * len(block) % tuple(cells.ravel().tolist()))


# numpy's loadtxt decompresses a path with one of these suffixes; the text
# scanned for the header is the file's own, so such a path is parsed from
# that text instead
_COMPRESSED_SUFFIXES = frozenset({".gz", ".bz2", ".xz", ".lzma"})

_LOADTXT = {"dtype": np.float64, "delimiter": ",", "comments": None, "ndmin": 2}


def read_field_csv(path: str | Path, spec: GridSpec) -> tuple[Field | np.ndarray, bool]:
    """Read a field CSV against a grid.

    Returns ``(Field, False)`` for the open form (N_alpha rows per axis) or
    ``(values, True)`` for the closed form (N_alpha + 1 rows per axis, wrap
    faces duplicated).  Node order, column count, and node coordinates are
    all validated, and every cell must be finite; any mismatch raises
    FormatError, as does text the locale's codec cannot decode.  Blank lines
    and spaces around cells are ignored; cells are plain decimal or exponent
    floats.

    Python scans the lines up to the header and the first data row; numpy
    then parses the rows from the path, in chunks.  Where numpy rejects the
    rows (a whitespace-only line reads as a one-cell row), they are parsed
    again from the scanned text with whitespace-only lines dropped, which
    either accepts the file or names the malformed row.
    """
    try:
        fh = open(path)
    except OSError as err:
        raise FormatError(f"cannot read field CSV {path}: {err}") from err
    with fh:
        try:
            data = _data_rows(path, fh, spec)
        except UnicodeDecodeError as err:
            raise FormatError(f"field CSV {path} cannot be decoded: {err}") from err
    if data.shape[1] != spec.p + spec.n:
        raise FormatError(
            f"field CSV {path} must have {spec.p + spec.n} columns"
        )
    finite = np.isfinite(data)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0]) + 1
        raise FormatError(f"field CSV {path} has a non-finite cell in data row {row}")
    open_rows = spec.node_count
    closed_rows = math.prod(k + 1 for k in spec.nodes)
    if data.shape[0] == open_rows:
        closed = False
        shape = spec.nodes
    elif data.shape[0] == closed_rows:
        closed = True
        shape = tuple(k + 1 for k in spec.nodes)
    else:
        raise FormatError(
            f"field CSV {path} has {data.shape[0]} rows; expected {open_rows} "
            f"(open) or {closed_rows} (closed) for grid {spec.nodes}"
        )
    # each coordinate column against its axis vector, broadcast along its
    # own axis, so no (N..., p) coordinate array is built
    coords = data[:, : spec.p].reshape(shape + (spec.p,))
    tol = 1e-9 * (1.0 + max(spec.extents))
    for a, axis in enumerate(lattice_axes(spec.spacings, shape)):
        along = axis.reshape((-1,) + (1,) * (spec.p - 1 - a))
        if np.max(np.abs(coords[..., a] - along)) > tol:
            raise FormatError(
                f"field CSV {path} node coordinates do not match the configured grid"
            )
    values = data[:, spec.p :].reshape(shape + (spec.n,))
    if closed:
        return values, True
    return Field(spec, values), False


def _data_rows(path: str | Path, fh, spec: GridSpec) -> np.ndarray:
    """The rows after the header of the field CSV open as ``fh``, as one
    float table; see ``read_field_csv``."""
    # whitespace-only lines, which numpy's parser would read as one-cell
    # rows, are dropped as the lines stream past
    lines = ((k, line) for k, line in enumerate(fh, 1) if not line.isspace())
    header_lines, header = next(lines, (0, ""))
    if header.strip() != _header(spec):
        raise FormatError(f"field CSV {path} must start with header {_header(spec)!r}")
    # a header-only file must fail here: loadtxt would warn on no rows
    _, first = next(lines, (0, None))
    if first is None:
        raise FormatError(f"field CSV {path} has no data rows")
    # absolute, so that numpy never takes the path for a URL
    source = os.path.abspath(path)
    if os.path.splitext(source)[1] not in _COMPRESSED_SUFFIXES:
        try:
            return np.loadtxt(source, skiprows=header_lines, **_LOADTXT)
        except ValueError:
            pass  # the re-read below accepts the file or reports the error
    try:
        return np.loadtxt(
            itertools.chain([first], (line for _, line in lines)), **_LOADTXT
        )
    except UnicodeDecodeError:
        raise
    except ValueError as err:
        raise FormatError(f"field CSV {path} has a malformed row: {err}") from err


def _read_open_field(path: str | Path, spec: GridSpec, what: str) -> Field:
    """``read_field_csv`` for inputs that must be open; ``what`` names the
    key or command whose input a closed CSV is."""
    field, closed = read_field_csv(path, spec)
    if closed:
        raise FormatError(f"{what} must be an open (wrapped) field CSV")
    return field


# ---------------------------------------------------------------------------
# report JSON

def _finite_or_none(x: float | None) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _audit_dict(audit) -> dict:
    def one(result):
        return {
            "passed": result.passed,
            "worst_margin": _finite_or_none(result.worst),
            "note": result.note,
        }

    return {
        "energy_descent": one(audit.energy),
        "wirtinger": one(audit.wirtinger),
        "mean_in_cell": one(audit.mean_cell),
        "f_floor": audit.f_floor,
        "all_passed": audit.all_passed,
    }


# the keys of the last iteration record that the report's ``final`` repeats
_FINAL_KEYS = (
    "action_total",
    "action_kinetic",
    "action_potential",
    "residual_l2",
    "mean",
    "tilde_norm",
)


def write_report(path: str | Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


# ---------------------------------------------------------------------------
# commands

def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def run_checks(sample: Sample) -> tuple[list[CheckReport], list[str]]:
    """Run every applicable hypothesis check on the sample's potential, in a
    fixed order, so F and grad F at its points are evaluated at most once
    each; a check the potential declares nothing for becomes a note."""
    pot = sample.pot
    reports: list[CheckReport] = []
    notes: list[str] = []
    if pot.periods is None:
        notes.append("periodicity: skipped, no periods declared")
    else:
        reports.append(check_periodicity(sample))
    reports.append(check_positivity(sample))
    if pot.growth is None:
        notes.append("gradient_growth: skipped, no growth envelope declared")
    else:
        reports.append(check_gradient_growth(sample))
    reports.append(check_grad_consistency(sample))
    return reports, notes


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    spec = build_grid(cfg)
    pot = build_potential(cfg, spec)
    sampler = build_sampler(cfg, spec)
    solver_cfg = build_solver_config(cfg, args.seed)
    init = build_init(cfg, spec, pot, args.seed)
    out = cfg.get("output", {})
    field_csv = _text(out.get("field_csv", "field.csv"), "output.field_csv")
    report_json = _text(out.get("report_json", "report.json"), "output.report_json")
    closed_csv = _flag(out.get("closed_csv", False), "output.closed_csv")
    # the closed CSV goes next to the open one
    for key, path in (("output.field_csv", field_csv), ("output.report_json", report_json)):
        folder = Path(path).parent
        if not folder.is_dir():
            raise ConfigError(f"{key}: directory {folder} does not exist")

    checks, notes = run_checks(Sample(pot, sampler))
    failed = [c.name for c in checks if not c.passed]
    for c in checks:
        _say(args, str(c))
    for note in notes:
        _say(args, note)
    if failed:
        print(
            f"warning: hypothesis checks failed: {', '.join(failed)}", file=sys.stderr
        )
        if args.strict:
            print("aborting (--strict)", file=sys.stderr)
            return EXIT_NOT_CONVERGED

    final, report = minimize(pot, init, solver_cfg)
    positivity = next(c for c in checks if c.name == "positivity")
    f_floor = 0.0 if positivity.passed else min(0.0, positivity.worst)
    audit = check_minimizing_bounds(report, spec, f_floor=f_floor)
    cert = certify(final, pot, solver_cfg.tol_residual)

    write_field_csv(field_csv, final)
    if closed_csv:
        closed_path = (
            field_csv[: -len(".csv")] + ".closed.csv"
            if field_csv.endswith(".csv")
            else field_csv + ".closed"
        )
        write_field_csv(closed_path, final, closed=True)
        _say(args, f"wrote closed field to {closed_path}")

    iterations = [r.to_dict() for r in report.iterations]
    payload = {
        "schema": "poisson-grad-report-v3",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": "solve",
        "config": cfg,
        "seed": args.seed,
        "checks": [{**asdict(c), "worst": _finite_or_none(c.worst)} for c in checks],
        "check_notes": notes,
        "status": report.status,
        "iterations": iterations,
        "final": {key: iterations[-1][key] for key in _FINAL_KEYS},
        "bound_audit": _audit_dict(audit),
        "certificate": asdict(cert),
        "assumptions": {
            "potential_term_weak_lower_semicontinuity": (
                "assumed; has no finite-grid test"
            )
        },
    }
    write_report(report_json, payload)

    _say(
        args,
        f"status={report.status} iters={report.final.index} "
        f"action={report.final.action_total:.12g} "
        f"residual={report.final.residual_l2:.3e} "
        f"audit={'pass' if audit.all_passed else 'FAIL'}",
    )
    _say(args, f"wrote field to {field_csv} and report to {report_json}")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    spec = build_grid(cfg)
    pot = build_potential(cfg, spec)
    sampler = build_sampler(cfg, spec)
    checks, notes = run_checks(Sample(pot, sampler))
    for c in checks:
        _say(args, str(c))
    for note in notes:
        _say(args, note)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_NOT_CONVERGED


def cmd_residual(args) -> int:
    cfg = load_config(args.config)
    spec = build_grid(cfg)
    pot = build_potential(cfg, spec)
    tol = build_solver_config(cfg, None).tol_residual
    loaded, closed = read_field_csv(args.field_csv, spec)
    # an open field has no wrap faces, so only a closed import gets the
    # face-matching check
    faces = None
    if closed:
        faces = boundary_check(loaded, spec)
        loaded = Field(spec, loaded[tuple(slice(0, k) for k in spec.nodes)])
    cert = certify(loaded, pot, tol)
    _say(
        args,
        f"residual_l2={cert.residual_l2:.6e} residual_linf={cert.residual_linf:.6e} "
        f"tol={cert.residual_tol:.1e} -> {'ok' if cert.residual_ok else 'FAIL'}",
    )
    w = cert.wirtinger
    _say(
        args,
        f"wirtinger lhs={w.lhs:.6e} rhs={w.rhs:.6e} constant={w.constant:.6e} "
        f"-> {'ok' if w.passed else 'FAIL'}",
    )
    if faces is not None:
        for ax in faces.axes:
            _say(
                args,
                f"boundary axis {ax.axis}: value={ax.value_mismatch:.3e} "
                f"quotient={ax.quotient_mismatch:.3e} "
                f"(threshold {faces.threshold:.3e})",
            )
    faces_ok = faces is None or faces.passed
    return EXIT_OK if cert.residual_ok and faces_ok else EXIT_NOT_CONVERGED


def cmd_oracle_linear(args) -> int:
    cfg = load_config(args.config)
    spec = build_grid(cfg)
    rhs = _read_open_field(args.rhs_csv, spec, "oracle-linear rhs_csv")
    try:
        solution = solve_linear_poisson(rhs)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    write_field_csv(args.output, solution)
    _say(
        args,
        f"solved stencil Poisson problem: |u|_L2={l2_norm(solution):.6e}, "
        f"mean={mean(solution)}; wrote {args.output}",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-grad",
        description=(
            "Minimize the periodic action integral of |du/dt|^2/2 + F(t,u) "
            "and certify critical points of laplacian(u) = grad F(t,u)."
        ),
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--strict", action="store_true", help="abort solve when hypothesis checks fail"
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override init/solver random seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run hypothesis checks, minimize, audit, certify")
    sp.add_argument("config")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("check", help="run the hypothesis checks only")
    sp.add_argument("config")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("residual", help="certify a field CSV against a config")
    sp.add_argument("field_csv")
    sp.add_argument("config")
    sp.set_defaults(func=cmd_residual)

    sp = sub.add_parser(
        "oracle-linear", help="solve laplacian(u) = f for a zero-mean CSV right-hand side"
    )
    sp.add_argument("rhs_csv")
    sp.add_argument("config")
    sp.add_argument("--output", default="oracle.csv", help="solution CSV path")
    sp.set_defaults(func=cmd_oracle_linear)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprError as err:
        source = _expr_source(args)
        if source is not None:
            line, col = line_col(source, err.pos)
            print(f"expression error at line {line}, column {col}: {err.message}", file=sys.stderr)
        else:
            print(f"expression error: {err}", file=sys.stderr)
        return EXIT_BAD_EXPR
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except RuntimeError as err:
        # a failed internal consistency check: the gauge assertion of a
        # wrong periods declaration, or disagreeing residual assemblies
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


def _expr_source(args) -> str | None:
    config = getattr(args, "config", None)
    if config is None:
        return None
    try:
        return json.loads(Path(config).read_text())["potential"]["expr"]
    except Exception:
        return None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
