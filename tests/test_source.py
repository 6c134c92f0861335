import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclocrit


def test_no_assert_in_src():
    """python -O strips assert statements, so no check in the package may be one."""
    found = []
    for path in sorted(Path(cyclocrit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/cyclocrit: {', '.join(found)}"


def test_dense_bounds_read_only_in_snf():
    """FULL_SNF_MAX_Q and PLOCAL_MAX_Q are named (read, imported or as an attribute) only in snf.py.

    snf.bruteforce_route is the one place that chooses a dense route, so callers refuse through it.
    """
    bounds, found = {"FULL_SNF_MAX_Q", "PLOCAL_MAX_Q"}, []
    for path in sorted(Path(cyclocrit.__file__).parent.glob("*.py")):
        if path.name == "snf.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in bounds:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert not found, f"dense bounds named outside snf.py: {', '.join(found)}"


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


def _imported_modules(argv):
    """The modules a fresh `python -m cyclocrit argv` imports, read from -X importtime."""
    src = str(Path(cyclocrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cyclocrit", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return {ln.rsplit("|", 1)[1].strip() for ln in proc.stderr.splitlines() if ln.startswith("import time:")}


@pytest.mark.parametrize(
    "argv",
    [["compute", "--p", "2", "--ell", "3", "--t", "8", "--method", "formula"], ["table", "--t", "8", "--p-list", "2,5"]],
)
def test_walk_route_imports_no_numpy(argv):
    """The ell = 3 formula route runs on Python integers alone."""
    modules = _imported_modules(argv)
    assert "cyclocrit.index3" in modules
    assert "numpy" not in modules


def test_carry_route_imports_no_table_modules():
    """compute --method formula at ell = 5 loads the carry kernels but no field, graph, ring or SNF module."""
    modules = _imported_modules(["compute", "--p", "2", "--ell", "5", "--t", "2", "--method", "formula"])
    assert {"numpy", "cyclocrit.carries"} <= modules
    assert not modules & {f"cyclocrit.{name}" for name in ("galois", "snf", "graph", "field")}


_LAZY_CHILD = """
import importlib, json, sys
import cyclocrit
listed = sorted(set(cyclocrit.__all__) - set(dir(cyclocrit)))
loaded = "numpy" in sys.modules
wrong = [n for n in cyclocrit.__all__ if getattr(importlib.import_module(getattr(cyclocrit, n).__module__), n)
         is not getattr(cyclocrit, n)]
try:
    cyclocrit.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([listed, loaded, wrong, unknown]))
"""


def test_public_names_resolve_lazily():
    """In a fresh interpreter, `import cyclocrit` loads no numpy and dir() lists every __all__ name;
    each name resolves to its defining module's object; an unknown name raises AttributeError."""
    src = str(Path(cyclocrit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _LAZY_CHILD], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], False, [], "module 'cyclocrit' has no attribute 'no_such_name'"]
