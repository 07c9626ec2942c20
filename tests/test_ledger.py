"""The committed results ledger (``ledger.py``): the shipped configs and
two benchmark workload configs, solved afresh, against ``ledger.json``.

The verdict layer is compared exactly under every numpy.  The value layer,
whose bits are numpy's rounding, is compared byte for byte under the numpy
that recorded it; under another, the test says what it left uncompared."""

import json

import numpy as np
import pytest

import ledger

RECORDED = json.loads(ledger.LEDGER.read_text())


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    return ledger.record(tmp_path_factory.mktemp("ledger"))


def test_the_ledger_covers_every_case(solved):
    assert sorted(solved["cases"]) == sorted(RECORDED["cases"])
    assert solved["seed"] == RECORDED["seed"]


@pytest.mark.parametrize("case", sorted(RECORDED["cases"]))
def test_verdicts_as_recorded(solved, case):
    assert solved["cases"][case]["verdicts"] == RECORDED["cases"][case]["verdicts"]


@pytest.mark.parametrize("case", sorted(RECORDED["cases"]))
def test_values_and_digests_as_recorded(solved, case):
    values = RECORDED["cases"][case]["values"]
    if np.__version__ != RECORDED["numpy"]:
        pytest.skip(
            f"numpy {np.__version__}, recorded under {RECORDED['numpy']}: not compared "
            f"for {case}: action, residual_l2 and the sha256 of {', '.join(values['sha256'])}"
        )
    assert solved["cases"][case]["values"] == values
