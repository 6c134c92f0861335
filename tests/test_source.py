import ast
import importlib
import importlib.util
import json
from pathlib import Path

import cyclocrit


def test_no_assert_in_src():
    """python -O strips assert statements, so no check in the package may be one."""
    found = []
    for path in sorted(Path(cyclocrit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/cyclocrit: {', '.join(found)}"


def test_trace_names_resolve():
    """Every traced method exists, and every <layer>.<function>.<stat> benchmark metric names a span.

    bench/tracer.py wraps METHODS by name and every public function defined
    in a layer module; a renamed target breaks --trace 1 or leaves its
    metric at zero.  The tracer is only loaded here, never installed.
    """
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("_bench_tracer", root / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = set()
    for layer, cls, attr, name in tracer.METHODS:
        assert callable(getattr(getattr(importlib.import_module(f"cyclocrit.{layer}"), cls), attr)), name
        spans.add(name)
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"cyclocrit.{layer}")
        spans.update(
            f"{layer}.{attr}"
            for attr, obj in vars(module).items()
            if not attr.startswith("_")
            and callable(obj)
            and getattr(obj, "__module__", None) == module.__name__
            and not isinstance(obj, type)
        )
    metrics = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["per_layer"]]
    three_part = [name.rsplit(".", 1) for name in metrics if name.count(".") == 2]
    assert three_part, metrics
    for span, stat in three_part:
        assert span in spans, f"{span}.{stat} names no traced span"
        assert stat in ("self_s", "calls") or (span, stat) == (tracer.FACTORINT, "max_arg_bits"), f"{span}.{stat}"
