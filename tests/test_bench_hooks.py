"""The benchmark's traced run wraps qverify names where their callers look
them up; a refactor that drops or renames one must fail here, not in the
middle of a `perfbench/run.py --trace 1` run."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound_where_it_is_wrapped():
    targets = _spans_module()._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in targets if attr not in owner.__dict__]
    assert missing == []
