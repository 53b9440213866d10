"""Exact computation of Castelnuovo-Mumford regularity for graded modules
and bounded complexes, by several independent routes that are required to
agree, plus mechanical checks of the identities relating them."""

from .scalars import QQ, PrimeField
from .poly import Polynomial
from .rings import GradedRing, polynomial_ring
from .freemod import FreeModule
from .hilbert import HilbertSeries
from .modules import (ModuleMap, PresentedModule, annihilator,
                      colon_by_element, homology_at, image,
                      is_filter_regular, kernel, module_from_ideal,
                      multiplication_map, quotient_by_element)
from .resolution import (BettiTable, FreeResolution, betti_table,
                         free_resolution, pd)
from .complexes import (BoundedComplex, complex_from_module, ext, ext_complex,
                        free_complex_from_data, free_resolution_of_complex,
                        grade_of_sequence, hom_complex, koszul_complex,
                        koszul_resolution_of_k, resolution_to_complex,
                        tensor_complexes, tensor_free_with_complex, tor,
                        tor_complex)
from .regularity import (KoszulHypothesisError, LocalCohomologyTable,
                         RegularityReport, RelativeReg, a_invariant,
                         bass_table, depth, depth_profile,
                         local_cohomology_table, reg_complex, reg_via_betti,
                         reg_via_duality, reg_via_ext, reg_via_koszul,
                         regularity, relative_reg)
from .oracle import DenseOracle
from .theorems import (CheckOutcome, SaturationError, TheoremContradiction,
                       check_ab_formula, check_cor_hom,
                       check_cor_tensor, check_filter_regular_formula,
                       check_hom_dim1, check_ring_independence,
                       check_thm_cmd1, check_thm_dim1,
                       nilpotent_scroll_family, random_ideal_corpus,
                       run_corpus, saturated_sequence)
from .session import (ParseError, Session, UnknownBinding, parse_polynomial,
                      parse_session)

__version__ = "0.1.0"
