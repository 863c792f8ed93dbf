"""Exact-arithmetic toolkit for the overlap of partitions, staircase walks,
Schur and Littlewood-Schur polynomials, and machine-checked overlap identities."""

from .partitions import Partition, rho, rect, partitions_in_box
from .walks import StaircaseWalk, enumerate_walks, is_quasi_partition
from .overlap import (
    OverlapResult,
    overlap,
    enumerate_overlap_pairs,
    infinite_overlap_witness,
    sub_partition,
    c_indices,
    subpartition_to_overlap,
    enumerate_subpartition_pairs,
)
from .polyring import (
    MultiPoly,
    PolyMatrix,
    VarSeq,
    delta_pair,
    sort_sign,
    e_prod,
    det,
    laplace_expand,
    eval_at,
    divexact,
)
from .schur import schur_bialternant, schur_ssyt, factor_rule_check, complement_reciprocity_check
from .littlewood_schur import (
    lr_coefficient,
    ls_branching,
    ls_combinatorial,
    ls_determinantal,
    littlewood_square_check,
)
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "Partition", "rho", "rect", "partitions_in_box",
    "StaircaseWalk", "enumerate_walks", "is_quasi_partition",
    "OverlapResult", "overlap", "enumerate_overlap_pairs",
    "infinite_overlap_witness", "sub_partition", "c_indices",
    "subpartition_to_overlap", "enumerate_subpartition_pairs",
    "MultiPoly", "PolyMatrix", "VarSeq",
    "delta_pair", "sort_sign", "e_prod",
    "det", "laplace_expand", "eval_at", "divexact",
    "schur_bialternant", "schur_ssyt", "factor_rule_check",
    "complement_reciprocity_check",
    "lr_coefficient", "ls_branching", "ls_combinatorial", "ls_determinantal",
    "littlewood_square_check",
    "VerificationReport",
]
