"""Names that code outside the package reaches by string must still exist,
so that deleting one fails here and not only in the traced benchmark run."""

import importlib
import importlib.util
import re
from pathlib import Path

import cubiclct

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"


def _tracing_targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_function_exists():
    targets = _tracing_targets()
    assert targets
    for module_name, attr, _, _ in targets:
        module = importlib.import_module(f"cubiclct.{module_name}")
        assert callable(getattr(module, attr, None)), f"cubiclct.{module_name}.{attr}"


def test_every_name_the_benchmark_reaches_exists():
    # the workloads reach cubiclct as ``prog.<module>.<name>``
    names = {m.groups() for path in sorted(BENCHMARKS.glob("*.py"))
             for m in re.finditer(r"\bprog\.(\w+)\.(\w+)", path.read_text())}
    assert ("cli", "load_all_fixtures") in names
    for module_name, attr in sorted(names):
        module = importlib.import_module(f"cubiclct.{module_name}")
        assert hasattr(module, attr), f"cubiclct.{module_name}.{attr}"


def test_every_exported_name_resolves():
    for name in cubiclct.__all__:
        assert hasattr(cubiclct, name), name
