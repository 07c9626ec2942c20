"""The results ledger: what the shipped configs and two benchmark workload
configs solve to, kept in ``ledger.json`` next to this file and compared by
``test_ledger.py``.

Each case is one ``poisson-grad --quiet solve`` in a fresh directory:
``configs/*.json`` as shipped, and perfbench's expr-well and cosine-sheet
configs as ``perfbench/workloads.py`` builds them at seed 3, with their
output paths made plain file names, so that no report names the directory
it was written in.  For each the ledger holds two layers:

- ``verdicts``: the exit code, status, iteration count, and every check,
  audit and certificate verdict;
- ``values``: the final action and the certified ``residual_l2`` as 17-digit
  floats, and the sha256 of each field CSV and of the report without its
  ``timestamp`` line.

The values depend on numpy's rounding, so the file records the numpy version
that produced them.  Rewrite the file, from the repository root, with

    PYTHONPATH=src python tests/ledger.py

and show its diff with the change that moved it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from poisson_grad import cli

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).resolve().parent / "ledger.json"
SEED = 3

SHIPPED = ("pendulum", "expression_well", "stiff_cosine")
WORKLOADS = ("expr-well", "cosine-sheet")


def _workload_config(name: str, work: Path) -> Path:
    """perfbench's config for workload ``name`` at ``SEED``, in ``work``."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    path = workloads.WORKLOADS[name](work, SEED).configs[0]
    cfg = json.loads(path.read_text())
    cfg["output"]["field_csv"] = f"{name}-field.csv"
    cfg["output"]["report_json"] = f"{name}-report.json"
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _entry(config: Path) -> dict:
    """Solve ``config`` in the working directory and read back its outputs."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--quiet", "solve", str(config)])
    out = json.loads(config.read_text())["output"]
    field = Path(out["field_csv"])
    fields = [field]
    if out.get("closed_csv"):
        fields.append(field.with_name(field.stem + ".closed.csv"))
    raw = Path(out["report_json"]).read_bytes()
    report = json.loads(raw)
    body = b"".join(
        line for line in raw.splitlines(keepends=True) if not line.startswith(b'  "timestamp": ')
    )
    audit, cert = report["bound_audit"], report["certificate"]
    return {
        "verdicts": {
            "exit": code,
            "status": report["status"],
            "iterations": report["iterations"][-1]["iter"],
            "checks": {c["name"]: c["passed"] for c in report["checks"]},
            "audit": {
                key: audit[key] if key == "all_passed" else audit[key]["passed"]
                for key in ("energy_descent", "wirtinger", "mean_in_cell", "all_passed")
            },
            "residual_ok": cert["residual_ok"],
            "wirtinger_ok": cert["wirtinger"]["passed"],
        },
        "values": {
            "action": format(report["final"]["action_total"], ".17g"),
            "residual_l2": format(cert["residual_l2"], ".17g"),
            "sha256": {
                **{f.name: _sha256(f.read_bytes()) for f in fields},
                "report without timestamp": _sha256(body),
            },
        },
    }


def record(work: Path) -> dict:
    """Every case's entry, each solved in a directory of its own under ``work``."""
    cases = {}
    home = os.getcwd()
    try:
        for name in (*SHIPPED, *WORKLOADS):
            case = work / name
            case.mkdir()
            if name in SHIPPED:
                config = Path(shutil.copy(ROOT / "configs" / f"{name}.json", case))
            else:
                config = _workload_config(name, case)
            os.chdir(case)
            cases[name] = _entry(config)
    finally:
        os.chdir(home)
    return {"numpy": np.__version__, "seed": SEED, "cases": cases}


def main() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        ledger = record(Path(work))
    LEDGER.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"wrote {LEDGER} (numpy {ledger['numpy']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
