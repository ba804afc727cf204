"""The comparison of scripts/digests.py, on hand-made reports, and the
engine's outputs against the digests committed in tests/data/digests.json.
BLAS bits depend on the machine, so on a machine whose block differs from
the committed one that check is skipped.

After a change that moves output bytes on purpose, rewrite the file from
the root of the checkout:

    PYTHONPATH=src python3 scripts/digests.py > tests/data/digests.json
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "digests", Path(__file__).resolve().parents[1] / "scripts" / "digests.py")
digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digests)

ROOT = Path(__file__).resolve().parents[1]
COMMITTED = ROOT / "tests" / "data" / "digests.json"
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
    block = digests.machine(ROOT)
    assert {"cores", "numpy", "blas", "blas_threads"} <= block.keys()
    assert not block.keys() & {"commit", "src_lines"}


def test_outputs_equal_the_committed_digests():
    # every part of the script but the pipeline demo, a 5 s subprocess run
    committed = json.loads(COMMITTED.read_text())
    ours = {"machine": digests.machine(ROOT), "digests": {}}
    fields = sorted(name for name in ours["machine"].keys() | committed["machine"].keys()
                    if ours["machine"].get(name) != committed["machine"].get(name))
    if fields:
        pytest.skip(f"machine differs in {', '.join(fields)}")
    for part in (digests.summary_text, digests.short_training, digests.seeded_infer,
                 digests.conv_outputs, digests.postproc_outputs, digests.paper_size_step):
        ours["digests"].update(part())
    committed["digests"] = {name: value for name, value in committed["digests"].items()
                            if not name.startswith("demo/")}
    assert digests.compare(ours, committed) == ([], 0)


def test_committed_digests_skip_on_another_machine(monkeypatch):
    machine = digests.machine
    monkeypatch.setattr(digests, "machine",
                        lambda root: {**machine(root), "blas": "openblas 0.3.21"})
    with pytest.raises(pytest.skip.Exception, match="machine differs in blas$"):
        test_outputs_equal_the_committed_digests()
