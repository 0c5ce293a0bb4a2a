"""reeskit: exact ideal-theoretic invariants over Q.

Reduction numbers, relation type (absolute and modulo an ideal), the
integral degree id(y/x) of a fraction with regular denominator,
Artin-Rees numbers and exact regularity tests of elements and ideals,
computed with exact rational Groebner bases over polynomial rings and
their quotients, together with a registry of classical example families.
"""

from .poly import (DegRevLex, Lex, MonomialOrder, ParseError, Poly,
                   PolyError, RingCtx, Weighted, embed, parse_poly, poly_str)
from .groebner import (GroebnerBasis, ResourceLimitError, normal_form,
                       reduced_groebner, spolynomial)
from .ideals import (Ideal, exact_divide, ideal_colon, ideal_contains,
                     ideal_equal, ideal_intersect, ideal_member, ideal_power,
                     ideal_product, ideal_sum, is_regular_element,
                     is_regular_ideal)
from .rees import (ReesPresentation, rees_kernel, relation_type,
                   relation_type_2gen, relation_type_mod)
from .invariants import (ArtinReesReport, DSequenceReductionReport,
                         SearchOutcome, artin_rees_number,
                         check_d_sequence_reduction, d_sequence_check,
                         find_principal_reduction, integral_degree_fraction,
                         is_reduction, reduction_number, reg_rees, vv_check)
from .semigroup import monomial_fraction_degree, semigroup_contains
from .corpus import (REGISTRY, ExampleReport, emit_report, list_examples,
                     monomial_curve, run_example)

__version__ = "0.1.0"
