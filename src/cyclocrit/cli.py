"""Command-line front end: compute / verify / table.

Exit codes: 0 success, 1 usage, bound or export-file errors, 2 mathematical mismatch
(two exact computations disagreed).  JSON output is versioned and
byte-deterministic for identical inputs and seeds.  Each command imports
the numpy-backed modules (field, galois, graph) only for the work it runs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .critgroup import METHODS, CriticalGroupResult, critical_group
from .errors import BadResidueError, CyclocritError, MismatchError
from .index3 import p_part_from_recursion, verify_transfer_matrix, verify_walks
from .params import validate

JSON_SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; keep 2 for math only
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def result_to_json(result: CriticalGroupResult) -> dict:
    P = result.params
    return {
        "schema": JSON_SCHEMA_VERSION,
        "params": {
            "p": P.p,
            "ell": P.ell,
            "t": P.t,
            "q": P.q,
            "k": P.k,
            "u": P.u,
            "v": P.v,
        },
        "method": result.method,
        "free_rank": result.group.free_rank,
        "elementary_divisors": [
            [str(prime), exp, mult] for prime, exp, mult in result.group.divisors
        ],
        "order_factorization": {
            str(prime): exp for prime, exp in sorted(result.group.order_factorization().items())
        },
        "checks": list(result.checks),
    }


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        import json

        print(json.dumps(doc, sort_keys=True))
    else:
        params = doc.get("params", {})
        if params:
            print(
                "G(p={p}, ell={ell}, t={t}): q={q}, k={k}, u={u}, v={v}".format(**params)
            )
        print(f"free rank {doc['free_rank']}")
        for prime, exp, mult in doc["elementary_divisors"]:
            print(f"{prime}^{exp} x {mult}")
        order = " ".join(
            f"{prime}^{exp}" for prime, exp in sorted(doc["order_factorization"].items(), key=lambda kv: int(kv[0]))
        )
        print(f"order {order}")
        for check in doc["checks"]:
            print(f"check {check}: ok")


def _p_list(text: str) -> list[int]:
    """argparse type for --p-list: comma-separated integers, at least one."""
    try:
        p_list = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None
    if not p_list:
        raise argparse.ArgumentTypeError("empty prime list")
    return p_list


def cmd_compute(args) -> int:
    params = validate(args.p, args.ell, args.t)
    table = None
    if args.export_laplacian or args.export_adjacency:
        from .field import build_field
        from .graph import _refuse_dense, adjacency, laplacian, write_matrix

        table = build_field(params)  # refuses q > 2^16 first
        _refuse_dense(table.q)  # then a dense matrix over DENSE_MAX_BYTES, still before the group
    result = critical_group(params, args.method, table)  # the brute force shares the export's table
    if args.export_laplacian:
        write_matrix(args.export_laplacian, laplacian(table))
    if args.export_adjacency:
        write_matrix(args.export_adjacency, adjacency(table))
    _emit(result_to_json(result), args.format)
    return 0


def cmd_verify(args) -> int:
    params = validate(args.p, args.ell, args.t)
    which = args.which
    if which == "walks" and params.ell != 3:
        raise BadResidueError("walks: only defined for ell = 3")
    reports: list[str] = []
    # one table and one ring, built only for the checks that read them
    if which != "walks":
        from .field import build_field

        table = build_field(params)
    if which in ("stickelberger", "blocks", "all"):
        from .galois import GaloisRing, verify_all_blocks, verify_stickelberger

        ring = GaloisRing(table)
    if which in ("srg", "all"):
        from .graph import verify_srg

        verify_srg(table)
        reports.append(f"srg: pass {(params.q, params.k, params.lam, params.mu)}")
    if which in ("stickelberger", "all"):
        reports.append(f"stickelberger: pass ({verify_stickelberger(ring, seed=args.seed)} pairs)")
    if which in ("blocks", "all"):
        reports.append(f"blocks: pass ({verify_all_blocks(ring)} blocks)")
    if which in ("walks", "all") and params.ell == 3:
        verify_transfer_matrix(params.p)
        verify_walks(params.p, t_max=min(params.t, 4))
        reports.append("walks: pass (char poly, det, trace oracle)")
    for line in reports:
        print(line)
    return 0


def cmd_table(args) -> int:
    rows = []
    for p in args.p_list:
        params = validate(p, 3, args.t)
        e_mult = p_part_from_recursion(params)
        rows.append(
            {
                "p": p,
                "t": args.t,
                "e": {str(j): m for j, m in sorted(e_mult.items())},
            }
        )
    if args.format == "json":
        import json

        print(json.dumps({"schema": JSON_SCHEMA_VERSION, "rows": rows}, sort_keys=True))
    else:
        for row in rows:
            cells = " ".join(f"e_{j}={m}" for j, m in row["e"].items())
            print(f"p={row['p']} t={row['t']}: {cells}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cyclocrit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--p", type=int, required=True)
        sp.add_argument("--ell", type=int, required=True)
        sp.add_argument("--t", type=int, required=True)

    sp = sub.add_parser("compute", help="critical group of G(p, ell, t)")
    add_common(sp)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.add_argument("--method", choices=METHODS, default="both")
    sp.add_argument("--export-laplacian", metavar="PATH", default=None)
    sp.add_argument("--export-adjacency", metavar="PATH", default=None)
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("verify", help="run a verification suite")
    add_common(sp)
    sp.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    sp.add_argument(
        "--which",
        choices=("stickelberger", "blocks", "srg", "walks", "all"),
        required=True,
    )
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("table", help="index-3 multiplicity table over several p")
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--p-list", type=_p_list, required=True, help="comma-separated primes, 2 mod 3")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # the parser is freed before the command runs
    try:
        return args.func(args)
    except MismatchError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 2
    except (CyclocritError, OSError) as exc:  # OSError: an export path that cannot be written
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
