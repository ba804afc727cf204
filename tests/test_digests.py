"""The comparison of scripts/digests.py, on hand-made reports. The digests
themselves have no gate: BLAS bits depend on the machine."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "digests", Path(__file__).resolve().parents[1] / "scripts" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

MACHINE = {"cores": 2, "numpy": "2.4.6", "blas": "openblas 0.3.31"}


def _report(machine=MACHINE, **values):
    return {"machine": dict(machine), "digests": dict(values)}


def test_equal_reports_print_nothing_and_pass():
    a = _report(summary="aa", step="bb")
    assert digests.compare(a, _report(summary="aa", step="bb")) == ([], 0)


def test_a_differing_digest_on_the_same_machine_fails():
    ours = _report(summary="aa", step="bb", infer="cc")
    theirs = _report(summary="aa", step="xx", infer="yy")
    assert digests.compare(ours, theirs) == (["infer", "step"], 1)


@pytest.mark.parametrize("ours, theirs", [
    ({"summary": "aa", "extra": "bb"}, {"summary": "aa"}),
    ({"summary": "aa"}, {"summary": "aa", "extra": "bb"}),
])
def test_a_digest_one_side_lacks_differs(ours, theirs):
    assert digests.compare(_report(**ours), _report(**theirs)) == (["extra"], 1)


@pytest.mark.parametrize("step", ["bb", "xx"])
def test_another_machine_reports_and_passes(step):
    other = {**MACHINE, "blas": "openblas 0.3.21"}
    lines, code = digests.compare(_report(step="bb"), _report(other, step=step))
    assert lines[-1] == "machine differs"
    assert lines[:-1] == ([] if step == "bb" else ["step"])
    assert code == 0


def test_machine_block_leaves_out_the_per_checkout_fields():
    block = digests.machine(Path(__file__).resolve().parents[1])
    assert {"cores", "numpy", "blas", "blas_threads"} <= block.keys()
    assert not block.keys() & {"commit", "src_lines"}
