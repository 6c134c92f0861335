"""Critical groups of cyclotomic strongly regular graphs.

Two independent pipelines compute the critical (sandpile) group of the
Cayley graph on F_q whose connection set is the index-ell multiplicative
subgroup (p primitive mod ell, q = p^((ell-1)t)): closed formulas driven
by p-adic carry counting, and brute-force Smith normal form of the
integer Laplacian.  The package cross-validates the two at every scale
the oracle can reach.
"""

from .abelian import AbelianGroupDesc, factorint
from .carries import (
    carry_count,
    digit_sums,
    min_carries,
    min_carries_histogram,
    p_part_from_carries,
)
from .critgroup import CriticalGroupResult, coprime_part, critical_group
from .field import FieldTable, build_field
from .galois import (
    GaloisRing,
    jacobi_sum,
    verify_all_blocks,
    verify_stickelberger,
)
from .graph import adjacency, laplacian, verify_srg
from .index3 import (
    closed_walk_poly,
    p_part_from_recursion,
    p_rank_closed_form,
    recursion_coefficients,
    verify_transfer_matrix,
    verify_walks,
    walk_polys_by_trace,
)
from .params import Params, validate
from .snf import (
    critical_group_by_local_snf,
    critical_group_by_snf,
    laplacian_p_multiplicities,
    p_local_multiplicities,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupDesc",
    "CriticalGroupResult",
    "FieldTable",
    "GaloisRing",
    "Params",
    "adjacency",
    "build_field",
    "carry_count",
    "closed_walk_poly",
    "coprime_part",
    "critical_group",
    "critical_group_by_local_snf",
    "critical_group_by_snf",
    "digit_sums",
    "factorint",
    "jacobi_sum",
    "laplacian",
    "laplacian_p_multiplicities",
    "min_carries",
    "min_carries_histogram",
    "p_local_multiplicities",
    "p_part_from_carries",
    "p_part_from_recursion",
    "p_rank_closed_form",
    "recursion_coefficients",
    "smith_normal_form",
    "validate",
    "verify_all_blocks",
    "verify_srg",
    "verify_stickelberger",
    "verify_transfer_matrix",
    "verify_walks",
    "walk_polys_by_trace",
]
