"""Line bundles, cohomology and Brill-Noether loci on binary curves:
two projective lines glued along g+1 pairs of points.
"""

__version__ = "0.1.0"

from .fields import FieldCtx, PrimeField, Rationals, field_from_json, field_to_json
from .rng import Rng
from .curve import (BinaryCurve, MoebiusMap, ProjPoint, hyperelliptic_witness_node,
                    is_hyperelliptic_fast, moebius_through, normalize_at,
                    random_curve, random_hyperelliptic_curve, standard_curve)
from .bundles import (EffectiveDivisor, LineBundle, apply_moebius, bundle_at,
                      bundle_count, bundle_from_json, canonical_bundle, dual,
                      enumerate_bundles, from_divisor, hyperelliptic_class,
                      is_isomorphic, power, random_bundle,
                      restrict_to_normalization, scale, tensor, trivial)
from .cohomology import (BaseLocus, DescentResult, SectionSpace, base_locus,
                         descend, gluing_profile, h0, h0_vanishing, h1,
                         neutral_pair, point_divisor)
from .picard import (Ell0, PicardPoint, Stratum, balanced_set, bounds,
                     closure_leq, enumerate_strata, h0_bar, is_balanced,
                     is_strictly_balanced, picard_type, strata_to_json,
                     stratum_points, strict_set)
from .brill_noether import (BNQuery, BNReport, abel_sample, assemble_Wbar,
                            bn_enumerate, bn_suite, clifford_equality_classes,
                            clifford_index, estimate_dim, growth_estimate,
                            martens_bound, merge_reports, predicted_empty,
                            reduce_curve_mod, rho, split_ranges,
                            verify_canonical_very_ample)
from .suites import SUITES, SuiteResult

__all__ = [name for name in dir() if not name.startswith("_")]
