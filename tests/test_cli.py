import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cyclocrit import cli, field
from cyclocrit.abelian import PSI_13, AbelianGroupDesc
from cyclocrit.cli import main, result_to_json
from cyclocrit.critgroup import critical_group
from cyclocrit.params import validate


def _bench_run():
    """bench/run.py as a module; bench/ is on sys.path while it loads, as when it runs as a script."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("_bench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = run  # @dataclass looks up its class's module there
    sys.path.insert(0, str(bench))
    try:
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
    return run


BENCH_RUN = _bench_run()
BENCH_CASES = sorted({c for cs in BENCH_RUN.WORKLOADS.values() for c in cs} | set(BENCH_RUN.SMOKE), key=lambda c: c.id)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_to_group(doc: dict) -> AbelianGroupDesc:
    """Inverse of the elementary-divisor encoding of result_to_json."""
    return AbelianGroupDesc.from_prime_powers(
        ((int(prime), exp, mult) for prime, exp, mult in doc["elementary_divisors"]),
        free_rank=doc["free_rank"],
    )


def test_compute_json_q16(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "2", "--method", "both"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["order_factorization"] == {"2": 31}
    assert doc["free_rank"] == 1
    assert doc["elementary_divisors"] == [["2", 2, 4], ["2", 3, 1], ["2", 5, 4]]
    assert "formula==bruteforce" in doc["checks"]


def test_compute_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--p", "5", "--ell", "3", "--t", "1", "--method", "formula",
        "--format", "text",
    )
    assert code == 0
    assert "free rank 1" in out
    assert "5^2 x 6" in out


def test_usage_error_not_primitive(capsys):
    code, _, err = run_cli(capsys, "compute", "--p", "7", "--ell", "3", "--t", "1")
    assert code == 1
    assert "NotPrimitive" in err


def test_usage_error_disconnected(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--p", "2", "--ell", "3", "--t", "1", "--which", "srg"
    )
    assert code == 1
    assert "Disconnected" in err


def test_verify_stickelberger(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "5", "--ell", "3", "--t", "1", "--which", "stickelberger"
    )
    assert code == 0
    assert "stickelberger: pass" in out


def test_verify_blocks(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "2", "--ell", "3", "--t", "2", "--which", "blocks"
    )
    assert code == 0
    assert "blocks: pass (5 blocks)" in out


def test_verify_all_small(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--p", "2", "--ell", "3", "--t", "2", "--which", "all"
    )
    assert code == 0
    for name in ("srg", "stickelberger", "blocks", "walks"):
        assert f"{name}: pass" in out


def test_verify_walks_requires_ell3(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--p", "3", "--ell", "5", "--t", "1", "--which", "walks"
    )
    assert code == 1
    assert (out, err) == ("", "error: BadResidueError: walks: only defined for ell = 3\n")


def test_table(capsys):
    code, out, _ = run_cli(capsys, "table", "--t", "1", "--p-list", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0]["e"] == {"0": 8, "1": 10, "2": 6}


def test_table_t4_top_exponent_column(capsys):
    code, out, _ = run_cli(capsys, "table", "--t", "4", "--p-list", "5,11")
    assert code == 0
    doc = json.loads(out)
    for row in doc["rows"]:
        p = row["p"]
        assert row["e"]["8"] == 30 * ((p + 1) // 3) ** 8 - 2


def test_compute_formula_q256_published_list(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "4", "--method", "formula"
    )
    assert code == 0
    doc = json.loads(out)
    div = {(int(p), e): m for p, e, m in doc["elementary_divisors"]}
    assert [div.get((2, j), 0) for j in range(1, 10)] == [32, 8, 16, 84, 1, 16, 8, 32, 28]
    assert div[(3, 1)] == 85 and div[(5, 1)] == 170


def test_table_rejects_bad_residue(capsys):
    code, _, err = run_cli(capsys, "table", "--t", "4", "--p-list", "7")
    assert code == 1


def test_table_empty_plist(capsys):
    with pytest.raises(SystemExit):
        run_cli(capsys, "table", "--t", "4", "--p-list", "")


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--p", "2", "--ell", "3"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("compute", "--threads", "2"),
        ("compute", "--seed", "1"),
        ("compute", "--precision", "12"),
        ("verify", "--threads", "2"),
        ("verify", "--precision", "12"),
        ("verify", "--k-bound", "5"),
        ("verify", "--format", "text"),
        ("compute", "--k-bound", "5"),
        ("compute", "--max-q", "8"),
        ("verify", "--max-q", "8"),
    ],
)
def test_removed_options_exit_1(capsys, command, option, value):
    tail = ["--method", "formula"] if command == "compute" else ["--which", "walks"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--p", "2", "--ell", "3", "--t", "2", *tail, option, value])
    assert exc.value.code == 1


def test_mismatch_maps_to_exit_2(capsys, monkeypatch):
    from cyclocrit import cli
    from cyclocrit.errors import MethodMismatchError

    def boom(*args, **kwargs):
        raise MethodMismatchError("forced disagreement")

    monkeypatch.setattr(cli, "critical_group", boom)
    code, _, err = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "2", "--method", "both"
    )
    assert code == 2
    assert "mismatch" in err


@pytest.mark.parametrize("which", ["srg", "all"])
def test_srg_failure_exits_2(capsys, monkeypatch, which):
    """A table whose u is off by one fails the Laplacian identity: exit 2, one mismatch line, no stdout."""
    build = field.build_field

    def wrong_u(params):
        tab = build(params)
        return dataclasses.replace(tab, params=dataclasses.replace(tab.params, u=tab.params.u + 1))

    monkeypatch.setattr(field, "build_field", wrong_u)
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--ell", "3", "--t", "2", "--which", which)
    assert code == 2 and out == ""
    assert err.splitlines() == ["mismatch: Laplacian identity fails at (0,0): 1 != 2"]


def test_json_round_trip():
    params = validate(5, 3, 1)
    result = critical_group(params, "formula")
    doc = result_to_json(result)
    rehydrated = json_to_group(json.loads(json.dumps(doc)))
    assert rehydrated == result.group


def test_byte_determinism(capsys):
    args = ["compute", "--p", "5", "--ell", "3", "--t", "1", "--method", "formula"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_export_laplacian(capsys, tmp_path):
    path = tmp_path / "lap.txt"
    code, _, _ = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "2",
        "--method", "formula", "--export-laplacian", str(path),
    )
    assert code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 16
    assert lines[0].split()[0] == "5"


def test_export_refused_over_dense_bound(capsys, tmp_path, monkeypatch):
    """q = 2^14 passes the table bound, but a dense Laplacian would take 2 GiB: refused before critical_group runs."""

    def fail(*args, **kwargs):
        raise AssertionError("critical_group called before the export's dense bound")

    monkeypatch.setattr(cli, "critical_group", fail)
    path = tmp_path / "lap.txt"
    code, out, err = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "7",
        "--method", "formula", "--export-laplacian", str(path),
    )
    assert code == 1
    assert "BoundExceeded" in err and "DENSE_MAX_BYTES" in err
    assert out == ""
    assert not path.exists()


@pytest.mark.parametrize("option", ["--export-laplacian", "--export-adjacency"])
def test_export_over_table_bound_refused_before_the_group(capsys, tmp_path, monkeypatch, option):
    """q = 2^18 > DEFAULT_MAX_Q: the export's table is refused before critical_group runs."""

    def fail(*args, **kwargs):
        raise AssertionError("critical_group called before the export's table bound")

    monkeypatch.setattr(cli, "critical_group", fail)
    path = tmp_path / "x.txt"
    code, out, err = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "9", "--method", "formula", option, str(path)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: BoundExceededError:") and "table bound" in err
    assert not path.exists()


@pytest.mark.parametrize("option", ["--export-laplacian", "--export-adjacency"])
def test_unwritable_export_exits_1(capsys, tmp_path, option):
    """An export path in a missing directory is one error line and exit 1, not a traceback."""
    path = tmp_path / "missing" / "x.txt"
    code, out, err = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "2", "--method", "formula", option, str(path)
    )
    assert code == 1 and out == ""
    assert err == f"error: FileNotFoundError: [Errno 2] No such file or directory: '{path}'\n"


def _count_build_field(monkeypatch) -> list:
    """The argument tuples of every field.build_field call from here on."""
    calls = []
    build = field.build_field

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(field, "build_field", counting)
    return calls


def test_exports_share_one_table(capsys, tmp_path, monkeypatch):
    calls = _count_build_field(monkeypatch)
    lap, adj = tmp_path / "lap.txt", tmp_path / "adj.txt"
    code, _, _ = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "2", "--method", "formula",
        "--export-laplacian", str(lap), "--export-adjacency", str(adj),
    )
    assert code == 0
    assert len(calls) == 1
    assert lap.read_text().splitlines()[0].split()[0] == "5"
    assert adj.read_text().splitlines()[0].split()[0] == "0"


def test_both_with_export_builds_one_table(capsys, tmp_path, monkeypatch):
    """compute --method both with an export: the brute force reads the export's table, built once."""
    calls = _count_build_field(monkeypatch)
    lap = tmp_path / "lap.txt"
    code, out, err = run_cli(
        capsys, "compute", "--p", "2", "--ell", "3", "--t", "4", "--method", "both", "--export-laplacian", str(lap)
    )
    assert code == 0, err
    assert "formula==bruteforce" in json.loads(out)["checks"]
    assert len(calls) == 1
    assert lap.read_text().splitlines()[0].split()[0] == "85"


def test_env_max_q(capsys, monkeypatch):
    """The table bound is DEFAULT_MAX_Q = 2^16, refused before any table work; the environment is not read."""
    monkeypatch.setenv("CYCLO_MAX_Q", "abc")
    code, _, _ = run_cli(capsys, "compute", "--p", "2", "--ell", "3", "--t", "2", "--method", "both")
    assert code == 0

    def refuse(p, e):
        raise AssertionError("modulus search ran past the table bound")

    monkeypatch.setattr(field, "smallest_irreducible", refuse)
    code, out, err = run_cli(capsys, "verify", "--p", "2", "--ell", "3", "--t", "9", "--which", "srg")
    assert code == 1 and out == ""
    assert err == "error: BoundExceededError: q = 262144 exceeds the table bound 65536\n"


def test_primality_bound_exits_1(capsys):
    """p = psi_13, the least strong pseudoprime to the 13 Miller-Rabin bases, is refused with exit 1."""
    code, out, err = run_cli(capsys, "compute", "--p", str(PSI_13), "--ell", "3", "--t", "1", "--method", "formula")
    assert code == 1 and out == ""
    assert err == f"error: BoundExceededError: p = {PSI_13}, ell = 3: primality is decided only below {PSI_13}\n"


@pytest.mark.parametrize("command", [["compute", "--method", "formula"], ["verify", "--which", "walks"]])
def test_q_bits_bound_exits_1_at_once(capsys, command):
    """ell = 1000003 makes q a 10^6-bit integer; validate refuses it before any q-sized work."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command[0], "--p", "2", "--ell", "1000003", "--t", "1", *command[1:])
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: BoundExceededError: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--p", "2", "--ell", "3", "--t", "159", "--method", "formula"],
        ["table", "--t", "159", "--p-list", "2,5"],
    ],
)
def test_walk_work_bound_exits_1_at_once(capsys, argv):
    """t^3 log2 p past index3.WALK_WORK_BOUND is refused before the walk recursion."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert err == "error: BoundExceededError: p = 2, t = 159: t^3 log2 p exceeds the walk recursion's bound 4000000\n"


def test_enumeration_bound_exits_1(capsys):
    """k - 1 = (2^28 - 1)/5 - 1 cosets exceed DEFAULT_ENUM_BOUND = 2^24; refused before enumerating."""
    code, out, err = run_cli(capsys, "compute", "--p", "2", "--ell", "5", "--t", "7", "--method", "formula")
    assert code == 1 and out == ""
    assert err == "error: BoundExceededError: k - 1 = 53687090 exceeds enumeration bound 16777216\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--p", "2", "--ell", "3", "--t", "abc", "--which", "srg"],
        ["table", "--t", "1", "--p-list", "2,x"],
        ["table", "--t", "1", "--p-list", ","],
    ],
)
def test_malformed_input_exits_1_without_traceback(argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cyclocrit", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert sum("error:" in line for line in proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("case", BENCH_CASES, ids=lambda c: c.id)
def test_bench_case_matches_golden(capsys, case):
    """Every benchmark case, run in process at seed 0 (as its golden was recorded), prints its golden bytes."""
    code, out, err = run_cli(capsys, *case.argv(0))
    assert code == 0, err
    assert out.encode() == (BENCH_RUN.GOLDEN / f"{case.id}.out").read_bytes()
