"""Deciding and constructing 1-factorizations of level-restricted subset families.

The family binom([n], L) of all subsets of {1..n} whose sizes lie in a level
set L is 1-factorable when it can be partitioned into factors, each factor a
partition of {1..n}.  This package decides factorability, constructs explicit
factorizations via an integral max-flow evolution, and produces exact Farkas
certificates for the infeasible cases.
"""

from .combinatorics import (
    LevelSet,
    TypeVector,
    binomial,
    elements_of,
    enumerate_types,
    factor_count,
    iter_types,
    mask_of,
)
from .constructors import (
    Block,
    OddTailSolution,
    Realization,
    construct_div,
    construct_general_L_div,
    construct_minus1,
    certificate_with_branch,
    odd_tail_solution,
)
from .decide import Status, Verdict, construct, decide, decide_general, plan
from .errors import FormatError, InvariantViolation, LimitExceeded, NotFactorableError
from .factorization import Factorization, sort_factor
from .fileformat import (
    load_text,
    parse_certificate,
    parse_factorization,
    save_text,
    write_certificate,
    write_factorization,
)
from .flow import EvolutionState, StepRecord, evolve_step, init_state, run
from .linear_system import (
    FarkasCertificate,
    LinearSystem,
    SolutionVector,
    build_system,
    check_certificate,
    integer_search_small,
    lp_feasible,
    solution_residual,
    verify_certificate,
)
from .reducer import extend_by_complements, project_lift, repair_to_complement_paired
from .verifier import verify_factorization

__version__ = "0.1.0"

__all__ = [
    "Block",
    "EvolutionState",
    "Factorization",
    "FarkasCertificate",
    "FormatError",
    "InvariantViolation",
    "LevelSet",
    "LimitExceeded",
    "LinearSystem",
    "NotFactorableError",
    "OddTailSolution",
    "Realization",
    "SolutionVector",
    "Status",
    "StepRecord",
    "TypeVector",
    "Verdict",
    "binomial",
    "build_system",
    "certificate_with_branch",
    "check_certificate",
    "construct",
    "construct_div",
    "construct_general_L_div",
    "construct_minus1",
    "decide",
    "decide_general",
    "elements_of",
    "enumerate_types",
    "evolve_step",
    "extend_by_complements",
    "factor_count",
    "init_state",
    "integer_search_small",
    "iter_types",
    "load_text",
    "lp_feasible",
    "mask_of",
    "odd_tail_solution",
    "parse_certificate",
    "parse_factorization",
    "plan",
    "project_lift",
    "repair_to_complement_paired",
    "run",
    "save_text",
    "solution_residual",
    "sort_factor",
    "verify_certificate",
    "verify_factorization",
    "write_certificate",
    "write_factorization",
]
