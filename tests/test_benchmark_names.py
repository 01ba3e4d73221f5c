"""The benchmark traces program functions by module attribute name.

``perfbench/spans.py`` lists them in ``TARGETS``. A refactor that drops or
renames one breaks the benchmark's tracer, and the benchmark's own tests
are not part of this suite, so this test checks every name resolves.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib only; defines TARGETS
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.TARGETS and not missing
