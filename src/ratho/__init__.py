"""Exact symbolic rational homotopy: graded-commutative algebras over Q,
their differentials and morphisms, minimal models, bracket structures,
twisted periodic complexes, characteristic forms, and flat form data up
to concordance."""

from .chern_weil import (CurvatureMatrix, InvRing, block_sum,
                         chern_character, chern_forms, determinant,
                         diagonal_matrix, euler_form, i8, inv_ring_sp2,
                         pfaffian, pontrjagin_forms)
from .character import (ConcordanceDatum, FlatFormDatum, NotConcordant,
                        TwistedFlatFormDatum, constant_concordance,
                        decide_concordance, line_algebra, line_datum,
                        line_quotient, linear_concordance, preset_twistorial,
                        reverse_concordance, twisted_ku_bundle,
                        twisted_ku_quotient, verify_concordance, verify_flat,
                        verify_twisted_flat)
from .core_algebra import (AlgebraMorphism, DegreeError, GeneratorSet,
                           GeneratorSetMismatch, Polynomial,
                           UnboundedSliceError, apply_morphism,
                           basis_of_degree, gens_of)
from .dgca import (DGCA, apply_d, check_d_squared, cohomology,
                   cohomology_dims, is_chain_map, is_exact, is_quasi_iso,
                   tensor)
from .linfty import (LInfinityStructure, SullivanCertificate,
                     brackets_from_ce, ce_from_brackets, check_jacobi,
                     is_minimal, is_sullivan, lie_algebra_brackets,
                     whitehead_summary)
from .minimal_model import (BudgetExceeded, MinimalModelResult,
                            RelativeExtension, cofiber, minimal_model,
                            verify_relative)
from .simplicial_forms import (CylinderAlgebra, SimplexAlgebra,
                               check_projection, check_stokes,
                               degeneracy_pullback, face_pullback,
                               fiber_integrate, interval_algebra)
from .twisted_derham import (TwistedClass, TwistedComplex, twisted_cohomology,
                             twisted_cohomology_dims, twisted_d,
                             twisted_is_exact, op_square_then_twist,
                             op_wedge_square, op_wedge_twist)
