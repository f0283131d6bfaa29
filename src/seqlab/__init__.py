"""Exact arithmetic for second-order linear recursive sequences.

The layers, bottom to top:

- ring: the commutative matrix ring R(T, Q) whose elements carry whole
  solutions of x_{n+1} = T*x_n - Q*x_{n-1};
- transforms: the even/odd split into R(t), the twin involution, the
  Chebyshev maps R(t) -> R(C_r(t)), the circular and cubic isomorphisms,
  and the recombination formulas they induce on raw sequences;
- group: nonsingular elements up to scaling, square roots, torsion at the
  sequence-group level, and Chebyshev primitivity of the parameter;
- laxton: the quotient by the cyclic subgroup generated by D — equivalence
  testing with exact witnesses, canonical coset representatives, torsion
  tables;
- modp: reduction of classes at admissible primes, element orders, the
  divisor criterion, and the W/V/C trichotomy;
- lab: divisor-set sweeps over prime windows, partitions of Gamma(X^2),
  and the even/odd independence experiments.
"""

from .errors import (
    ContextMismatchError,
    DegenerateParameterError,
    ExcludedPrimeError,
    InvalidContextError,
    SeqLabError,
    SingularElementError,
)
from .rational import (
    format_rational,
    is_rational_square,
    parse_rational,
    rational_sqrt,
    squarefree_decompose,
)
from .ring import (
    ParamPair,
    RingElement,
    chebyshev_c,
    chebyshev_u,
    companion,
    elem_c,
    elem_v,
    elem_w,
    identity,
    make_element,
    u_pair,
)
from .transforms import (
    EXCLUDED_PARAMS,
    CyclotomicClass,
    RecombinedSequences,
    check_parameter,
    classify_cyclotomic,
    cubic_roots_of_unity,
    element_with_trace,
    is_simple,
    phi,
    phi_inverse,
    phi_r,
    phi_r_inverse,
    psi,
    recombine,
    recombine_circular,
    recombine_cubic,
    simple_reduce,
    simple_twin,
    theta_circular,
    theta_cubic,
    twin_pair,
)
from .group import (
    ChebyshevWitness,
    GroupElement,
    PrimitivityReport,
    class_c,
    class_v,
    class_w,
    companion_class,
    group_sqrt,
    identity_class,
    maximal_decomposition,
    primitivity,
    reduce_element,
    torsion_l,
)
from .laxton import (
    LaxtonElement,
    LaxtonWitness,
    TorsionEntry,
    TorsionTable,
    canonical_coset_rep,
    laxton_eq,
    laxton_order,
    laxton_torsion,
    xi_hom,
    xi_n_kernel,
)
from .modp import (
    ModpContext,
    ModpElement,
    in_admissible_set,
    is_divisor,
    modp_context,
    modp_reduce,
    ord_companion,
    ord_p,
    qr_filter,
    trichotomy_class,
    xi,
)
from .lab import (
    CSV_HEADER,
    TABLE3_ROWS,
    CubicPartition,
    DensityReport,
    PrimeWindow,
    SixPartition,
    cubic_partition,
    divisor_flags,
    gamma,
    independence_report,
    partition_six,
    table3,
    window_split,
)
from .primes import first_odd_primes, is_prime, odd_primes_below, primes_below

__version__ = "0.1.0"

__all__ = [
    "SeqLabError", "InvalidContextError", "ContextMismatchError",
    "SingularElementError", "DegenerateParameterError", "ExcludedPrimeError",
    "parse_rational", "format_rational", "rational_sqrt", "is_rational_square",
    "squarefree_decompose",
    "ParamPair", "RingElement", "make_element", "identity",
    "companion", "elem_c", "elem_w", "elem_v", "u_pair",
    "chebyshev_u", "chebyshev_c",
    "EXCLUDED_PARAMS", "check_parameter", "is_simple", "simple_reduce",
    "twin_pair", "simple_twin", "CyclotomicClass", "classify_cyclotomic",
    "element_with_trace", "phi", "phi_inverse", "psi", "phi_r",
    "phi_r_inverse", "theta_circular", "theta_cubic", "cubic_roots_of_unity",
    "RecombinedSequences", "recombine", "recombine_circular", "recombine_cubic",
    "GroupElement", "reduce_element", "identity_class", "companion_class",
    "class_c", "class_w", "class_v", "group_sqrt", "torsion_l",
    "ChebyshevWitness", "PrimitivityReport", "primitivity",
    "maximal_decomposition",
    "LaxtonWitness", "LaxtonElement", "laxton_eq", "canonical_coset_rep",
    "laxton_order", "TorsionEntry", "TorsionTable", "laxton_torsion",
    "xi_hom", "xi_n_kernel",
    "ModpContext", "ModpElement", "modp_context", "in_admissible_set",
    "modp_reduce", "ord_p", "ord_companion", "xi", "is_divisor",
    "trichotomy_class", "qr_filter",
    "PrimeWindow", "window_split", "divisor_flags", "gamma",
    "SixPartition", "partition_six", "CubicPartition", "cubic_partition",
    "DensityReport", "independence_report", "table3",
    "TABLE3_ROWS", "CSV_HEADER",
    "primes_below", "odd_primes_below", "first_odd_primes", "is_prime",
]
