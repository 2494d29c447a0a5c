import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_library_target_exists(monkeypatch):
    # The benchmark reports a layer whose target was renamed away as
    # missing rather than failing, so the rename has to fail here.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.missing_targets() == set()
