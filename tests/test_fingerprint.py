"""The reference runs of this tree against their committed fingerprint.

``scripts/reference_outputs.py fingerprint`` wrote the file; a change that
moves a flow or a fitted order by design regenerates it and says so.  The
strings are compared exactly: they are the ``%.12g`` energies and ``%.3e``
residuals of ``energy.csv`` and the ``repr`` of each fitted order, which
came out the same with one BLAS thread and with the default.
"""
import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reference_outputs.py"


def _reference_outputs():
    spec = importlib.util.spec_from_file_location("reference_outputs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_runs_match_the_committed_fingerprint():
    ref = _reference_outputs()
    want = json.loads(ref.FINGERPRINT.read_text())
    assert len(want["flows"]) == 16 and len(want["converge"]) == 6
    assert ref.fingerprint() == want
