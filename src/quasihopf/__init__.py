"""Exact-arithmetic toolkit for quasi-Hopf structure constants.

Represents finite-dimensional quasi-Hopf data by structure constants
over the rationals or a prime field, constructs the derived objects
(twists, smash and diagonal crossed products, corings, module-comodule
categories), and verifies every axiom and comparison isomorphism by
exhaustive evaluation over basis tuples.
"""

from .fields import QQ, PrimeField, Rationals, field_from_tag
from .tensor import (El, FinAlgebra, LinMap, Tensor, VectorSpace,
                     apply_linear_map, build_tensor_algebra, embed_legs,
                     invert_element, multiply, switch_legs, unit_tensor)
from .report import CheckRecord, CheckReport
from .hopf import (GaugeTransformation, QuasiBialgebra, QuasiHopfAlgebra,
                   drinfeld_twist, gauge_twist, normalize_antipode, op_tensor,
                   tensor_op, tensor_qha, variant, verify_quasi_bialgebra,
                   verify_quasi_hopf)
from .comodule import (BicomoduleAlgebra, CanonicalElements, ComoduleAlgebra,
                       InternalCoalgebra, TwistWitness,
                       bicomodule_to_left_tensor_op,
                       bicomodule_to_right_op_tensor, bicomodule_variant,
                       canonical_elements, comodule_variant,
                       gauge_twist_comodule_algebra, internal_coalgebra,
                       realization_twist_witness, right_realization,
                       twist_comodule_algebra,
                       verify_bicomodule_algebra, verify_comodule_algebra)
from .modcoalg import (ModuleAlgebra, ModuleCoalgebra,
                       bimodule_to_op_tensor_module_coalgebra, dualize,
                       gauge_twist_module_coalgebra, verify_module_algebra,
                       verify_module_coalgebra)
from .smash import (OmegaData, ProductAlgebra, alpha_morphism, build_omega,
                    check_prop_3_10, diagonal_crossed_product,
                    generalized_smash, koppinen_smash, phi_isomorphism,
                    right_generalized_smash, stgsm_product,
                    verify_product_algebra)
from .coring import Coring, build_coring, trivial_coring, verify_coring
from .doihopf import (CoringComodule, DoiHopfContext, FiniteModule,
                      adjunction_maps, compute_rat,
                      coring_comodule_to_doihopf, doihopf_to_coring_comodule,
                      induce_doi_hopf, rational_check, to_smash_module,
                      translate_variant, transport_twist, trivial_module,
                      verify_coring_comodule, verify_doi_hopf)
from .yd import (YetterDrinfeldContext, doihopf_to_yd, induce_yd, verify_yd,
                 yd_adjunction_maps, yd_to_doihopf)
from . import errors, fixtures

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
