"""Outside-in span tracer for the cyclocrit layers.

The benchmark measures the program as shipped, so nothing under ``src/``
knows about tracing.  Instead this module wraps, from outside, every
public module-level function of each layer module (plus two
``GaloisRing`` entry points) in every ``cyclocrit`` namespace that holds
a reference to it, then calls ``cyclocrit.cli.main``.

Each call of a wrapped function is one span: name, start, end, parent
span and thread.  The parent is the innermost open span of the same
thread; the first span of a worker thread takes the innermost open span
of the main thread, which is the call that is waiting on the pool.
Spans stay in memory and are written to one file when the command ends.

Run as a child process in place of ``python -m cyclocrit``::

    python3 bench/tracer.py SPANS_FILE compute --p 2 --ell 3 --t 2

Setting ``CYCLOCRIT_BENCH_FAIL=<layer>.<function>`` makes that wrapper
raise ``RuntimeError`` before calling through; the harness self-test
uses it to show that escaping exceptions reach ``<layer>.errors``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
import time
from array import array

LAYERS = ("field", "graph", "snf", "abelian", "carries", "galois", "index3", "critgroup", "cli")

# methods wrapped in addition to module-level functions: (layer, class, attribute, span name)
METHODS = (
    ("galois", "GaloisRing", "__init__", "galois.GaloisRing"),
    ("galois", "GaloisRing", "omega_table", "galois.omega_table"),
)

# the trace also records the largest bit length this function is called with
FACTORINT = "abelian.factorint"

FAIL_ENV = "CYCLOCRIT_BENCH_FAIL"


class Tracer:
    """Thread-safe in-memory span store."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self.names: list[str] = []
        self.threads: list[int] = []
        self._thread_index: dict[int, int] = {}
        self.name_id = array("i")
        self.thread_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self.max_arg_bits: dict[str, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.get_ident() == self._main_ident else []
            self._local.stack = stack
        return stack

    def wrap(self, name: str, fn, fail: bool = False):
        with self._lock:
            nid = len(self.names)
            self.names.append(name)
        layer = name.split(".", 1)[0]
        track_bits = name == FACTORINT
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is self._main_stack:
                parent = -1
            else:  # worker thread: attribute to the call waiting on it
                top = self._main_stack[-1:]
                parent = top[0] if top else -1
            ident = threading.get_ident()
            with self._lock:
                tid = self._thread_index.get(ident)
                if tid is None:
                    tid = self._thread_index[ident] = len(self.threads)
                    self.threads.append(ident)
                idx = len(self.start)
                self.name_id.append(nid)
                self.thread_id.append(tid)
                self.parent.append(parent)
                self.error.append(0)
                self.end.append(0.0)
                self.start.append(clock())
                if track_bits:
                    bits = int(args[0]).bit_length()
                    if bits > self.max_arg_bits.get(name, -1):
                        self.max_arg_bits[name] = bits
            stack.append(idx)
            try:
                if fail:
                    raise RuntimeError(f"{FAIL_ENV}: injected failure in {name}")
                return fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once per layer, however many of its spans it crosses
                seen = exc.__dict__.setdefault("_cyclocrit_bench_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    self.error[idx] = 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def dump(self, path: str) -> None:
        """Header line of JSON, then the span arrays as raw machine bytes."""
        header = {
            "names": self.names,
            "threads": self.threads,
            "count": len(self.start),
            "max_arg_bits": self.max_arg_bits,
            "arrays": [
                [field, getattr(self, field).typecode]
                for field in ("name_id", "thread_id", "parent", "start", "end", "error")
            ],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


def install(tracer: Tracer, fail: str | None = None) -> None:
    """Wrap every layer function wherever a cyclocrit namespace refers to it."""
    package = importlib.import_module("cyclocrit")
    modules = {name: importlib.import_module(f"cyclocrit.{name}") for name in LAYERS}
    namespaces = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith("cyclocrit.")]
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and getattr(obj, "__module__", None) == module.__name__
                and not isinstance(obj, type)
            ):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, fail == name)
    for namespace in namespaces:
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in wrappers:
                setattr(namespace, attr, wrappers[id(obj)])
    for layer, cls_name, attr, name in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), fail == name))


def read_spans(path: str) -> dict:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, n)
            header[field] = arr
    return header


def self_times(spans: dict) -> list[float]:
    """Self time of every span: its duration minus the time its children cover.

    Children on pool threads may overlap each other, so the time they
    cover is the union of their intervals.  Spans on different threads
    are not shared out, so with a pool the self times of a pass may add
    up to more than its wall time.
    """
    n = spans["count"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    children: dict[int, list[int]] = {}
    for i in range(n):
        if parent[i] >= 0:
            children.setdefault(parent[i], []).append(i)
    credit = [0.0] * n
    for i in range(n):
        e = end[i]
        cur = start[i]
        for j in sorted(children.get(i, ()), key=start.__getitem__):
            if start[j] > cur:
                credit[i] += min(start[j], e) - cur
            cur = max(cur, end[j])
        if e > cur:
            credit[i] += e - cur
    return credit


def summarize(spans: dict) -> dict[str, float]:
    """Per-layer and per-function totals from one span file."""
    names, name_id, error = spans["names"], spans["name_id"], spans["error"]
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, self_s in enumerate(self_times(spans)):
        name = names[name_id[i]]
        layer = name.split(".", 1)[0]
        add(f"{name}.self_s", self_s)
        add(f"{name}.calls", 1)
        add(f"{layer}.self_s", self_s)
        add(f"{layer}.errors", error[i])
    for name, bits in spans["max_arg_bits"].items():
        out[f"{name}.max_arg_bits"] = bits
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer, os.environ.get(FAIL_ENV))
    from cyclocrit import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
