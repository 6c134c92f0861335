"""Self-test of the benchmark harness: its checks must be able to fail.

Run from the repository root with ``python3 -m pytest -q bench/selftest.py``.
The file name keeps it out of the package's own test collection.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402


def _smoke(trace: bool, **kwargs) -> dict:
    # seconds far below one pass: exactly one pass of each kind
    return run.run("smoke", seed=3, seconds=0.01, trace=trace, cases=run.SMOKE, **kwargs)


def test_q16_case_runs_end_to_end_untraced_and_traced():
    plain = _smoke(trace=False)
    assert plain["result"]["correct"] and plain["result"]["failed"] == 0
    assert set(plain["result"]["metrics"]) == {m["name"] for m in run.load_spec()["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["result"]["metrics"].values())
    assert plain["record"]["cyclocrit_file"].startswith(str(run.ROOT / "src"))

    traced = _smoke(trace=True)
    metrics = traced["result"]["metrics"]
    assert traced["result"]["failed"] == 0
    assert set(metrics) == {m["name"] for m in run.load_spec()["per_layer"]}
    assert metrics["snf.smith_normal_form.self_s"]["value"] > 0
    assert metrics["abelian.factorint.calls"]["value"] > 0
    assert all(metrics[f"{layer}.errors"]["value"] == 0 for layer in tracer.LAYERS)


def test_corrupted_golden_fails_every_case(tmp_path):
    for case in run.SMOKE:
        good = (run.GOLDEN / f"{case.id}.out").read_bytes()
        (tmp_path / f"{case.id}.out").write_bytes(good.replace(b'"2"', b'"3"', 1))
    out = _smoke(trace=False, golden_dir=tmp_path)
    assert out["record"]["fail_frac"] == 1
    assert out["result"]["failed"] == out["result"]["attempted"]
    assert not out["result"]["correct"]
    assert out["result"]["metrics"] == {}


def test_crash_in_every_pass_is_not_a_fast_run(tmp_path):
    # p = 4 is not prime: the CLI exits 1 in every pass, traced or not
    crash = (run.Case("crash-4-3-1", "compute --p 4 --ell 3 --t 1"),)
    for trace in (False, True):
        out = run.run("crash", seed=3, seconds=0.01, trace=trace, cases=crash, golden_dir=tmp_path)
        assert out["result"]["failed"] == out["result"]["attempted"] == run.MAX_UNCLEAN_PASSES * (1 + trace)
        assert not out["result"]["correct"]
        assert out["result"]["metrics"] == {}


def test_injected_exception_counts_in_its_layer(monkeypatch):
    monkeypatch.setenv(tracer.FAIL_ENV, "abelian.factorint")
    out = _smoke(trace=True)
    stats = out["record"]["stats"]
    # the untraced pass is unaffected; every traced pass crashes once in abelian
    traced = sum(p["traced"] for p in out["record"]["passes"])
    assert traced == run.MAX_UNCLEAN_PASSES
    assert stats["abelian.errors"]["median"] == traced
    assert stats["snf.errors"]["median"] == 0
    assert stats["fail_frac"]["median"] == traced / (traced + 1)
    # with no clean traced pass there are no layer times to report
    assert "abelian.self_s" not in stats
    assert not out["result"]["correct"] and out["result"]["metrics"] == {}


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "formula", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode != 0
    assert res.stdout == ""
