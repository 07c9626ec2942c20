"""Command-line front end: config parsing, run orchestration, serialization.

Configs are single JSON files with fixed key paths (unknown keys are
rejected, so typos fail fast).  Fields travel as CSV with header
``t1,...,tp,u1,...,un``, one row per node in lexicographic node order and
17 significant digits, which round-trips float64 exactly; the optional
closed form repeats the wrap faces (N_alpha + 1 rows per axis) for
interchange with external producers.  Run reports are JSON, one line per
top-level key and per item of a top-level array (see ``write_report``);
identical config and seed reproduce them byte-for-byte except for the
single isolated ``timestamp`` line.

Exit codes: 0 success/converged, 2 not converged or failed checks
(including a failed internal consistency check, such as the gauge
assertion under a wrong periods declaration), 3 invalid config or
malformed input (a config nested too deeply to parse among them), 4
expression error (an expression nested too deeply among them).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .expr import ExprError, ExpressionPotential, line_col
from .grid import Field, GridSpec, l2_norm, lattice_axes, mean
from .grid import _abs_max, solve_linear_poisson
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
    fp_policy,
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

# the keys each kind of potential and of init reads, besides "kind"
_KIND_KEYS = {
    "potential": {
        "cosine": {"amplitudes", "periods", "floor", "modulation", "modulation_axis"},
        "quadratic": {"center", "floor", "periods"},
        "linear": {"forcing_csv"},
        "expr": {"expr", "periods", "positive", "growth"},
    },
    "init": {"constant": {"value"}, "random": {"seed"}, "csv": {"path"}},
}

_SECTIONS = {
    "grid": {"p", "n", "extents", "nodes"},
    "potential": {"kind"}.union(*_KIND_KEYS["potential"].values()),
    "init": {"kind"}.union(*_KIND_KEYS["init"].values()),
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
    except RecursionError as err:
        raise ConfigError(f"config {path} is nested too deeply to parse") from err
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


def _seed(value, path: str) -> int:
    seed = _number(value, path, integral=True)
    if seed < 0:
        raise ConfigError(f"{path} must be a non-negative integer, got {seed}")
    return seed


def _text(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string, got {json.dumps(value)}")
    return value


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path} must be true or false, got {json.dumps(value)}")
    return value


def _floats(value, path: str, n: int | None = None) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path} must be a non-empty array of numbers")
    floats = [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if n is not None and len(floats) != n:
        raise ConfigError(f"{path} must have length grid.n = {n}")
    return floats


def _only_kind_keys(section: str, body: dict, kind: str) -> None:
    """Reject a key of the section that its kind does not read; called once
    the kind's own keys have been read."""
    unread = sorted(body.keys() - _KIND_KEYS[section][kind] - {"kind"})
    if unread:
        raise ConfigError(f"config key {section}.{unread[0]} is not read by kind {kind!r}")


@contextlib.contextmanager
def _invalid(what: str, errors=ValueError):
    """Re-raise the library's ``errors`` from the block as ConfigError("invalid
    <what>: ..."); typed reads, whose ConfigError is a ValueError, stay out."""
    try:
        yield
    except errors as err:
        raise ConfigError(f"invalid {what}: {err}") from err


def _unknown_kind(section: str, kind) -> ConfigError:
    return ConfigError(f"{section}.kind must be {'|'.join(_KIND_KEYS[section])}, got {kind!r}")


def _periods(pot: dict, spec: GridSpec, required: bool) -> list[float] | None:
    """potential.periods as grid.n floats; None when optional and absent."""
    if not required and pot.get("periods") is None:
        return None
    return _floats(_need(pot, "periods", "potential.periods"), "potential.periods", spec.n)


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
    with _invalid("grid"):
        return GridSpec(tuple(extents), nodes, n=n)


def _growth_from(cfg_growth: dict) -> GrowthEnvelope:
    bounds = {k: _number(v, f"potential.growth.{k}") for k, v in cfg_growth.items()}
    with _invalid("potential.growth"):
        return GrowthEnvelope(**bounds)


def build_potential(cfg: dict, spec: GridSpec) -> Potential:
    """The configured potential; a key that its kind does not read is
    rejected once the kind's own keys have been read."""
    pot = cfg["potential"]
    kind = _need(pot, "kind", "potential.kind")
    if kind == "cosine":
        periods = _periods(pot, spec, required=True)
        amplitudes = _floats(
            pot.get("amplitudes", [1.0] * spec.n), "potential.amplitudes", spec.n
        )
        axis = _number(
            pot.get("modulation_axis", 0), "potential.modulation_axis", integral=True
        )
        floor = _number(pot.get("floor", 0.1), "potential.floor")
        modulation = _number(pot.get("modulation", 0.0), "potential.modulation")
        with _invalid("cosine potential"):
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
    elif kind == "quadratic":
        center = _floats(_need(pot, "center", "potential.center"), "potential.center", spec.n)
        floor = _number(pot.get("floor", 1.0), "potential.floor")
        # a periodicity *claim*, not a property: the checks falsify it
        periods = _periods(pot, spec, required=False)
        with _invalid("quadratic potential"):
            built = ShiftedQuadratic(center, floor=floor, p=spec.p, periods=periods)
    elif kind == "linear":
        path = _text(_need(pot, "forcing_csv", "potential.forcing_csv"), "potential.forcing_csv")
        forcing = _read_open_field(path, spec, "potential.forcing_csv")
        with _invalid("linear potential"):
            built = LinearForcing(forcing)
    elif kind == "expr":
        source = _text(_need(pot, "expr", "potential.expr"), "potential.expr")
        periods = _periods(pot, spec, required=False)
        _flag(pot.get("positive", False), "potential.positive")  # typed, read by nothing
        growth = pot.get("growth")
        built = ExpressionPotential(
            source,
            spec.p,
            spec.n,
            periods=periods,
            growth=None if growth is None else _growth_from(growth),
        )
    else:
        raise _unknown_kind("potential", kind)
    _only_kind_keys("potential", pot, kind)
    return built


def build_solver_config(cfg: dict, seed_override: int | None) -> SolverConfig:
    s = dict(cfg.get("solver", {}))
    for key in ("max_iters", "tol_residual"):
        if key in s:
            s[key] = _number(s[key], f"solver.{key}", integral=key == "max_iters")
    if seed_override is not None:
        _seed(seed_override, "--seed")  # typed here, read by a random start
    with _invalid("solver config", (TypeError, ValueError)):
        return SolverConfig(**s)


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
        start = Field.constant(spec, vec if len(vec) == spec.n else vec[0])
    elif kind == "random":
        if seed_override is not None:
            seed, key = seed_override, "--seed"
        else:
            seed, key = init.get("seed", 0), "init.seed"
        start = random_init(spec, periods=pot.periods, seed=_seed(seed, key))
    elif kind == "csv":
        path = _text(_need(init, "path", "init.path"), "init.path")
        start = _read_open_field(path, spec, "init.path")
    else:
        raise _unknown_kind("init", kind)
    _only_kind_keys("init", init, kind)
    return start


def build_sampler(cfg: dict, spec: GridSpec) -> SampleSpec:
    checks = cfg.get("checks", {})
    samples = _number(checks.get("samples", 1000), "checks.samples", integral=True)
    seed = _seed(checks.get("seed", 0), "checks.seed")
    with _invalid(f"sampling plan checks.samples = {samples!r}"):
        return SampleSpec(count=samples, seed=seed, t_extents=spec.extents)


# ---------------------------------------------------------------------------
# field CSV

def _header(spec: GridSpec) -> str:
    return ",".join(
        [f"t{a + 1}" for a in range(spec.p)] + [f"u{i + 1}" for i in range(spec.n)]
    )


# rows the field CSV writer formats per `%`; it bounds the text held at
# once, so the writer's memory follows the field, not the file
_BLOCK_ROWS = 4096


def write_field_csv(
    path: str | Path, field: Field, closed_path: str | Path | None = None
) -> None:
    """Write a field as CSV to ``path``, and in closed form to ``closed_path``
    when one is given; 17 significant digits round-trip float64 exactly.

    Each row is formatted once, in node order of the closed layout when a
    closed file is asked for: the closed file gets every row, and the open
    file the rows off the wrap faces, whose text is the same in both.  Each
    lattice coordinate is formatted once per axis; a row's coordinate prefix
    joins one string per axis, drawn lazily in node order.  Rows are
    formatted in blocks of ``_BLOCK_ROWS``, one ``%`` per block over the
    prefixes interleaved with the values, so the writer holds one block of
    text."""
    spec = field.spec
    if closed_path is None:
        values, interior = field.values, None
    else:
        values = field.closed_values()
        # the rows of the closed layout that the open file gets
        interior = np.zeros(values.shape[:-1], dtype=bool)
        interior[tuple(slice(0, k) for k in spec.nodes)] = True
        interior = interior.ravel()
    shape = values.shape[:-1]
    axes = [["%.17g," % t for t in a.tolist()] for a in lattice_axes(spec.spacings, shape)]
    prefixes = map("".join, itertools.product(*axes))
    values = values.reshape(-1, spec.n)
    row = "%s" + ",".join(["%.17g"] * spec.n) + "\n"
    header = _header(spec) + "\n"
    with contextlib.ExitStack() as files:
        fh = files.enter_context(open(path, "w"))
        fh.write(header)
        if interior is not None:
            closed_fh = files.enter_context(open(closed_path, "w"))
            closed_fh.write(header)
        for start in range(0, len(values), _BLOCK_ROWS):
            block = values[start : start + _BLOCK_ROWS]
            cells = np.empty((len(block), 1 + spec.n), dtype=object)
            cells[:, 0] = list(itertools.islice(prefixes, len(block)))
            cells[:, 1:] = block
            text = row * len(block) % tuple(cells.ravel().tolist())
            # only the text is held from here, and not while the next block
            # is formatted
            del cells
            if interior is not None:
                closed_fh.write(text)
                keep = interior[start : start + len(block)].tolist()
                text = "".join(itertools.compress(text.splitlines(True), keep))
            fh.write(text)
            del text


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
    FormatError, as does text the locale's codec cannot decode (named by its
    byte offset in the file).  Blank lines and spaces around cells are
    ignored; cells are plain decimal or exponent floats.

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
            # decoded again whole: a text reader counts from its chunk's start
            try:
                Path(path).read_bytes().decode(err.encoding)
            except UnicodeDecodeError as whole:
                err = whole
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
        if _abs_max(coords[..., a] - along) > tol:
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
    key or command whose input is missing or closed."""
    if not Path(path).exists():
        raise ConfigError(f"{what} does not exist: {path}")
    field, closed = read_field_csv(path, spec)
    if closed:
        raise FormatError(f"{what} must be an open (wrapped) field CSV")
    return field


# ---------------------------------------------------------------------------
# report JSON

def _section(obj) -> dict:
    """A report section: a dataclass's fields by name, a nested dataclass as
    its own section, a non-finite float as null."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = _section(value)
        elif isinstance(value, float) and not math.isfinite(value):
            value = None
        out[f.name] = value
    return out


# the keys of the last iteration record that the report's ``final`` repeats
_FINAL_KEYS = (
    "action_total",
    "action_kinetic",
    "action_potential",
    "residual_l2",
    "mean",
    "tilde_norm",
)


# json writes through its C encoder only when no indent is asked for
_ENCODE = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def write_report(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON with each top-level key, in sorted order, on
    a line of its own, as is each item of a non-empty top-level array; each
    value is one line of json's C encoder, which rejects a non-finite float."""
    lines = []
    for key, value in sorted(payload.items()):
        if isinstance(value, (list, tuple)) and value:
            text = "[\n    " + ",\n    ".join(map(_ENCODE, value)) + "\n  ]"
        else:
            text = _ENCODE(value)
        lines.append(f"  {_ENCODE(key)}: {text}")
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")


# ---------------------------------------------------------------------------
# commands

def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def run_checks(pot: Potential, sampler: SampleSpec) -> tuple[list[CheckReport], list[str]]:
    """Draw one sample of ``pot`` and run every applicable hypothesis check
    on it, in a fixed order, under ``fp_policy``, so F and grad F at its
    points are evaluated at most once each; a check the potential declares
    nothing for becomes a note."""
    reports: list[CheckReport] = []
    notes: list[str] = []
    with fp_policy():
        sample = Sample(pot, sampler)
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


def _check_phase(args, pot: Potential, sampler: SampleSpec) -> tuple[list[CheckReport], list[str]]:
    """``run_checks``, saying each check line, then each note."""
    checks, notes = run_checks(pot, sampler)
    for line in [*map(str, checks), *notes]:
        _say(args, line)
    return checks, notes


def _file_identity(path: Path) -> tuple | None:
    """What a path names: an existing file's (st_dev, st_ino), which its hard
    links and every spelling of it share; for a file not there yet, its
    directory's, plus its name, where a dangling symbolic link points; None
    when that directory is missing too."""
    with contextlib.suppress(OSError):
        st = path.stat()
        return (st.st_dev, st.st_ino)
    real = Path(os.path.realpath(path))
    with contextlib.suppress(OSError):
        st = real.parent.stat()
        return (st.st_dev, st.st_ino, real.name)
    return None


def _claim_outputs(inputs: dict[str, str | None], outputs: dict[str, str | None]) -> None:
    """Refuse, before any work, an output in a missing directory, a directory,
    or one that names an input or another output, by ``_file_identity``; a
    None path is skipped."""
    claimed = {_file_identity(Path(p)): key for key, p in inputs.items() if p is not None}
    for key, path in outputs.items():
        if path is None:
            continue
        target = Path(path)
        if not target.parent.is_dir():
            raise ConfigError(f"{key}: directory {target.parent} does not exist")
        if target.is_dir():
            raise ConfigError(f"{key}: {path} is a directory")
        other = claimed.setdefault(_file_identity(target), key)
        if other != key:
            raise ConfigError(f"{other} and {key} name the same file {path}")


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
    # the closed CSV goes next to the open one: f.closed.csv for f.csv
    closed_path = None
    if _flag(out.get("closed_csv", False), "output.closed_csv"):
        stem = field_csv.removesuffix(".csv")
        closed_path = stem + ".closed" + field_csv[len(stem) :]
    # each input path was typed when built, and only its own kind reads it
    _claim_outputs(
        {
            "config": args.config,
            "potential.forcing_csv": cfg["potential"].get("forcing_csv"),
            "init.path": cfg.get("init", {}).get("path"),
        },
        {
            "output.field_csv": field_csv,
            "output.closed_csv": closed_path,
            "output.report_json": report_json,
        },
    )

    checks, notes = _check_phase(args, pot, sampler)
    failed = [c.name for c in checks if not c.passed]
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

    write_field_csv(field_csv, final, closed_path)
    if closed_path is not None:
        _say(args, f"wrote closed field to {closed_path}")

    iterations = [r.to_dict() for r in report.iterations]
    payload = {
        "schema": "poisson-grad-report-v4",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": "solve",
        "config": cfg,
        "seed": args.seed,
        "checks": [_section(c) for c in checks],
        "check_notes": notes,
        "status": report.status,
        "iterations": iterations,
        "final": {key: iterations[-1][key] for key in _FINAL_KEYS},
        "bound_audit": {**_section(audit), "all_passed": audit.all_passed},
        "certificate": _section(cert),
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
    checks, _ = _check_phase(args, pot, build_sampler(cfg, spec))
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
    _claim_outputs({"config": args.config, "rhs_csv": args.rhs_csv}, {"--output": args.output})
    rhs = _read_open_field(args.rhs_csv, spec, "oracle-linear rhs_csv")
    with fp_policy():
        solution = solve_linear_poisson(rhs)
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
        "--seed", type=int, default=None, help="override the random start's seed"
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
        # every potential built from a config attaches its expression's text
        line, col = line_col(err.source, err.pos)
        print(f"expression error at line {line}, column {col}: {err.message}", file=sys.stderr)
        return EXIT_BAD_EXPR
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except RuntimeError as err:
        # a failed internal consistency check: the gauge assertion of a
        # wrong periods declaration, or disagreeing residual assemblies
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
