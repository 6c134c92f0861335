"""Critical groups of cyclotomic strongly regular graphs.

Two independent pipelines compute the critical (sandpile) group of the
Cayley graph on F_q whose connection set is the index-ell multiplicative
subgroup (p primitive mod ell, q = p^((ell-1)t)): closed formulas driven
by p-adic carry counting, and brute-force Smith normal form of the
integer Laplacian.  The package cross-validates the two at every scale
the oracle can reach.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it, imported on first use (PEP 562),
# so `import cyclocrit` loads no numpy and each command only the modules it runs.
_EXPORTS = {
    "AbelianGroupDesc": "abelian",
    "factorint": "abelian",
    "carry_count": "carries",
    "digit_sums": "carries",
    "min_carries": "carries",
    "min_carries_histogram": "carries",
    "p_part_from_carries": "carries",
    "CriticalGroupResult": "critgroup",
    "coprime_part": "critgroup",
    "critical_group": "critgroup",
    "FieldTable": "field",
    "build_field": "field",
    "GaloisRing": "galois",
    "jacobi_sum": "galois",
    "verify_all_blocks": "galois",
    "verify_stickelberger": "galois",
    "adjacency": "graph",
    "laplacian": "graph",
    "verify_srg": "graph",
    "closed_walk_poly": "index3",
    "p_part_from_recursion": "index3",
    "p_rank_closed_form": "index3",
    "recursion_coefficients": "index3",
    "verify_transfer_matrix": "index3",
    "verify_walks": "index3",
    "walk_polys_by_trace": "index3",
    "Params": "params",
    "validate": "params",
    "critical_group_by_local_snf": "snf",
    "critical_group_by_snf": "snf",
    "laplacian_p_multiplicities": "snf",
    "p_local_multiplicities": "snf",
    "smith_normal_form": "snf",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
