"""End-to-end benchmark of the cyclocrit CLI.

Usage (from the repository root)::

    python3 bench/run.py --workload oracle --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --record-golden

One client runs a workload's fixed list of CLI cases as a closed loop:
each case starts only after the previous one ended, in a fresh
``python -m cyclocrit`` interpreter with ``PYTHONPATH=<root>/src``, which
is how users run the tool.  A pass runs every case once, in an order
shuffled by ``--seed``; passes repeat until the next one would overrun
``--seconds``.  The seed is also passed to ``verify`` as ``--seed``.

Every case is checked: a non-zero exit, a traceback on stderr, stdout
that differs byte for byte from ``bench/golden/<case>.out``, or a
``compute --method both`` result without ``formula==bruteforce`` in its
``checks`` fails the case.  A failed case is never retried or dropped; it
counts in ``failed``, and its pass is left out of every timing so that a
crash never reads as a fast run.  Passes are added past ``--seconds``
only while a kind of pass the run reports on has no clean pass yet.
``correct`` is false when the program printed a wrong answer (exit 0
with stdout that fails the check, or exit 2), and also when no clean
pass was left to measure: then no metrics are printed and the exit code
is 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics
named in ``BENCHMARK.json``; ``setup_s`` is sampled between cases all
through the run.  With ``--trace 1`` untraced and traced
passes alternate; traced cases run under ``bench/tracer.py`` and the
line holds the per-layer metrics, summed over a pass's cases and
reported as the median over clean passes (``.errors`` and ``fail_frac``
count over every pass).  Each run keeps its per-case files in a fresh
directory under ``bench/runs/``, removed at exit, and writes a record
with the machine, the seed, every case's time and the metrics'
quartiles there.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import read_spans, summarize  # bench/ is sys.path[0] when run as a script

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden"
RUNS = BENCH / "runs"
TRACER = BENCH / "tracer.py"

# Set-up (a fresh `import cyclocrit`) is timed SETUP_PER_PASS times in each
# pass of a --trace 0 run, spread over its cases, until SETUP_MAX samples
# are taken.
SETUP_PER_PASS = 8
SETUP_MAX = 16
CASE_TIMEOUT_S = 150.0
# A run with no clean pass of a kind it reports on adds passes of that kind
# past --seconds, up to this many and this much time (inside the 180 s
# limit).  A program that fails every pass stops here and the run is not
# correct.
MAX_UNCLEAN_PASSES = 6
HARD_STOP_S = 120.0


@dataclass(frozen=True)
class Case:
    id: str
    args: str
    seeded: bool = False  # verify samples Stickelberger pairs from --seed

    def argv(self, seed: int) -> list[str]:
        extra = ["--seed", str(seed)] if self.seeded else []
        return self.args.split() + extra


# Why these cases: each workload puts most of its time in one layer.
WORKLOADS: dict[str, tuple[Case, ...]] = {
    # snf: object-dtype full SNF (q=121, 256) and per-prime p-local elimination (q=625)
    "oracle": (
        Case("both-11-3-1", "compute --p 11 --ell 3 --t 1 --method both"),
        Case("both-2-5-2", "compute --p 2 --ell 5 --t 2 --method both"),
        Case("both-5-3-2", "compute --p 5 --ell 3 --t 2 --method both"),
    ),
    # graph: dense verify_srg at q=1024; galois/carries used the Stickelberger way
    # (exhaustive at q=256, sampled from --seed at q=1024).  The q=256 case
    # leaves out the block check: its thread pool races on the shared ring's
    # lazy tables there and crashes about one run in ten, and a benchmark
    # case must not fail at random.  Blocks still run threaded at q=1024 and
    # 4096, with the CLI's default --threads.
    "verify": (
        Case("verify-2-3-4-stickelberger", "verify --p 2 --ell 3 --t 4 --which stickelberger"),
        Case("verify-2-3-5", "verify --p 2 --ell 3 --t 5 --which all", seeded=True),
    ),
    # galois: structured Jacobi sums and ring elimination of 3x3 and 13x13 blocks
    "blocks": (
        Case("blocks-2-3-6", "verify --p 2 --ell 3 --t 6 --which blocks", seeded=True),
        Case("blocks-2-13-1", "verify --p 2 --ell 13 --t 1 --which blocks", seeded=True),
    ),
    # carries/index3: the closed-form path users run at scale
    "formula": (
        Case("formula-2-13-2", "compute --p 2 --ell 13 --t 2 --method formula"),
        Case("formula-3-7-2", "compute --p 3 --ell 7 --t 2 --method formula"),
        Case("formula-2-11-2", "compute --p 2 --ell 11 --t 2 --method formula"),
        Case("formula-11-3-4", "compute --p 11 --ell 3 --t 4 --method formula"),
        Case("formula-2-3-40", "compute --p 2 --ell 3 --t 40 --method formula"),
        Case("table-8", "table --t 8 --p-list 2,5,11,17,23,29"),
    ),
}

# q = 16: the harness self-test runs it end to end in well under a second
SMOKE = (Case("both-2-3-2", "compute --p 2 --ell 3 --t 2 --method both"),)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict[str, str], stdout_path: Path, stderr_path: Path):
    """Run one child to completion; return (wall_s, exit code, rusage).

    ``os.wait4`` gives this child's own peak RSS and CPU time, which
    ``RUSAGE_CHILDREN`` would mix with every earlier child's.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CASE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def probe(env: dict[str, str]) -> dict:
    """Resolve the cyclocrit the cases will import; refuse one outside ROOT."""
    code = "import cyclocrit, numpy; print(cyclocrit.__file__); print(numpy.__version__)"
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True
    )
    if res.returncode != 0:
        raise SystemExit(f"bench: cannot import cyclocrit from {ROOT / 'src'}:\n{res.stderr}")
    path, numpy_version = res.stdout.splitlines()
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bench: cyclocrit resolves to {path}, outside {ROOT / 'src'}")
    return {"cyclocrit_file": path, "numpy": numpy_version}


def setup_time(env: dict[str, str], work: Path) -> float:
    """Wall time of a fresh interpreter running ``import cyclocrit``."""
    argv = [sys.executable, "-c", "import cyclocrit"]
    wall, rc, _ = spawn(argv, env, work / "setup.stdout", work / "setup.stderr")
    if rc != 0:
        raise SystemExit("bench: import cyclocrit failed during set-up timing")
    return wall


def check_case(case: Case, rc: int, stdout: bytes, stderr: bytes, golden: bytes | None):
    """(ok, wrong_answer, reason) for one finished case."""
    if rc != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return False, rc == 2, f"exit {rc}: {tail[0][:200]}"
    if b"Traceback (most recent call last)" in stderr:
        return False, False, "traceback on stderr"
    if golden is None:
        return False, False, "no golden output"
    if stdout != golden:
        return False, True, "stdout differs from golden"
    if "--method both" in case.args:
        checks = json.loads(stdout).get("checks", [])
        if "formula==bruteforce" not in checks:
            return False, True, "checks lack formula==bruteforce"
    return True, False, ""


def run_pass(cases, seed, env, golden_dir: Path, traced: bool, work: Path, setup: list[float] | None) -> dict:
    """Run every case once, first appending set-up samples to ``setup`` unless it is None."""
    t0 = time.perf_counter()
    results = []
    out, err = work / "case.stdout", work / "case.stderr"
    for i, case in enumerate(cases):
        if setup is not None:
            for _ in range(SETUP_PER_PASS // len(cases) + (i < SETUP_PER_PASS % len(cases))):
                if len(setup) < SETUP_MAX:
                    setup.append(setup_time(env, work))
        argv = [sys.executable]
        if traced:
            spans = work / f"spans-{case.id}.bin"
            spans.unlink(missing_ok=True)
            argv += [str(TRACER), str(spans)]
        else:
            argv += ["-m", "cyclocrit"]
        argv += case.argv(seed)
        wall, rc, usage = spawn(argv, env, out, err)
        golden_path = golden_dir / f"{case.id}.out"
        golden = golden_path.read_bytes() if golden_path.exists() else None
        ok, wrong, reason = check_case(case, rc, out.read_bytes(), err.read_bytes(), golden)
        res = {
            "case": case.id,
            "wall_s": wall,
            "exit": rc,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "ok": ok,
            "wrong_answer": wrong,
            "reason": reason,
        }
        if traced:
            res["layers"] = summarize(read_spans(str(spans))) if spans.exists() else {}
        results.append(res)
    return {
        "traced": traced,
        "elapsed_s": time.perf_counter() - t0,
        "wall_s": sum(r["wall_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "ok": all(r["ok"] for r in results),
        "cases": results,
    }


def measure(cases, seed: int, seconds: float, trace: bool, env: dict[str, str], golden_dir: Path, work: Path):
    """Run passes until the next would overrun ``seconds``; return (passes, setup samples).

    A traced run alternates untraced and traced passes.  A kind of pass
    with no clean pass yet goes next, and may run past ``seconds``, until
    it has MAX_UNCLEAN_PASSES passes.
    """
    rng = random.Random(seed)
    kinds = (False, True) if trace else (False,)
    passes: list[dict] = []
    setup: list[float] = []
    t0 = time.perf_counter()
    sample_setup = None if trace else setup  # setup_s is an end-to-end metric
    while True:
        lacking = [
            k for k in kinds
            if not any(p["ok"] for p in passes if p["traced"] == k)
            and sum(p["traced"] == k for p in passes) < MAX_UNCLEAN_PASSES
        ]
        traced = lacking[0] if lacking else kinds[len(passes) % len(kinds)]
        if passes:
            same = [p["elapsed_s"] for p in passes if p["traced"] == traced] or [p["elapsed_s"] for p in passes]
            predicted = time.perf_counter() - t0 + statistics.median(same)
            if predicted > (HARD_STOP_S if lacking else seconds):
                return passes, setup
        order = rng.sample(cases, len(cases))
        passes.append(run_pass(order, seed, env, golden_dir, traced, work, sample_setup))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric; empty when no untraced pass is clean."""
    clean = [p for p in passes if not p["traced"] and p["ok"]]
    return {
        "wall_s": [p["wall_s"] for p in clean],
        "peak_rss_mb": [p["peak_rss_mb"] for p in clean],
        "setup_s": setup,
    }


def per_layer(passes: list[dict], names: list[str]) -> dict[str, list[float]]:
    """Samples of each per-layer metric.

    Times and counts come from clean passes only and are empty when a
    kind has none; ``.errors`` and ``fail_frac`` are one total over every
    pass, so that failures stay visible.
    """
    traced = [p for p in passes if p["traced"]]
    plain_clean = [p for p in passes if not p["traced"] and p["ok"]]
    traced_clean = [p for p in traced if p["ok"]]
    attempted = sum(len(p["cases"]) for p in passes)
    failed = sum(not c["ok"] for p in passes for c in p["cases"])
    out = {
        "fail_frac": [failed / attempted],
        "proc.cpu_s": [p["cpu_s"] for p in plain_clean],
        "trace.overhead_s": [
            statistics.median(p["wall_s"] for p in traced_clean)
            - statistics.median(p["wall_s"] for p in plain_clean)
        ] if traced_clean and plain_clean else [],
    }
    for name in names:
        if name in out:
            continue
        if name.endswith(".errors"):
            out[name] = [sum(c["layers"].get(name, 0) for p in traced for c in p["cases"])]
        else:
            combine = max if name.endswith(".max_arg_bits") else sum
            out[name] = [combine(c["layers"].get(name, 0) for c in p["cases"]) for p in traced_clean]
    return out


def machine_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = res.stdout.strip() or None
            res = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
            dirty = bool(res.stdout.strip()) if res.returncode == 0 else None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": commit,
        "git_dirty": dirty,  # a dirty tree is not the commit named above
    }


def run(workload: str, seed: int, seconds: float, trace: bool, cases=None, golden_dir: Path = GOLDEN) -> dict:
    """Measure one workload and return the result line plus the run record."""
    cases = cases if cases is not None else WORKLOADS[workload]
    spec = load_spec()
    RUNS.mkdir(parents=True, exist_ok=True)
    env = child_env()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "loadavg_start": os.getloadavg(),
        "machine": machine_info(),
        "cases": [c.id for c in cases],
    }
    record.update(probe(env))
    work = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS))  # private to this run
    try:
        passes, setup = measure(cases, seed, seconds, trace, env, golden_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        wanted = spec["per_layer"]
        samples = per_layer(passes, [m["name"] for m in wanted])
    else:
        wanted = spec["end_to_end"]
        samples = end_to_end(passes, setup)
    stats = {}
    for m in wanted:
        if samples[m["name"]]:
            q1, med, q3 = quartiles(samples[m["name"]])
            stats[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(samples[m["name"]]), "unit": m["unit"]}
    measured = len(stats) == len(wanted)  # every metric had a clean pass to come from
    all_cases = [c for p in passes for c in p["cases"]]
    result = {
        "correct": measured and not any(c["wrong_answer"] for c in all_cases),
        "attempted": len(all_cases),
        "failed": sum(not c["ok"] for c in all_cases),
        "metrics": {k: {"value": st["median"], "unit": st["unit"]} for k, st in stats.items()} if measured else {},
    }
    record.update(
        loadavg_end=os.getloadavg(),
        setup_s=setup,
        passes=passes,
        stats=stats,
        fail_frac=result["failed"] / result["attempted"],
        result=result,
    )
    return {"result": result, "record": record}


def record_golden(seed: int = 0) -> int:
    """Write each case's stdout from the current tree as its golden file."""
    GOLDEN.mkdir(exist_ok=True)
    RUNS.mkdir(parents=True, exist_ok=True)
    env = child_env()
    probe(env)
    status = 0
    with tempfile.TemporaryDirectory(prefix="golden-", dir=RUNS) as work:
        out, err = Path(work) / "case.stdout", Path(work) / "case.stderr"
        for case in sorted({c for cs in WORKLOADS.values() for c in cs} | set(SMOKE), key=lambda c: c.id):
            _, rc, _ = spawn([sys.executable, "-m", "cyclocrit", *case.argv(seed)], env, out, err)
            stdout = out.read_bytes()
            ok, _, reason = check_case(case, rc, stdout, err.read_bytes(), stdout)
            if not ok:
                print(f"{case.id}: {reason}; golden not written", file=sys.stderr)
                status = 1
                continue
            (GOLDEN / f"{case.id}.out").write_bytes(stdout)
            print(f"{case.id}: recorded", file=sys.stderr)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true", help="rewrite bench/golden from this tree")
    args = ap.parse_args(argv)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        ap.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, record = out["result"], out["record"]
    stamp = record["started_utc"].replace(":", "").replace("-", "")[:15]
    path = RUNS / f"{stamp}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    for name, st in record["stats"].items():
        print(
            f"{args.workload} {name}: median {st['median']:.6g} {st['unit']} "
            f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n={st['n']})",
            file=sys.stderr,
        )
    print(
        f"{args.workload}: {result['failed']}/{result['attempted']} cases failed, "
        f"correct={result['correct']}, record {path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
