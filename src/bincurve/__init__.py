"""Line bundles, cohomology and Brill-Noether loci on binary curves:
two projective lines glued along g+1 pairs of points.

Names are re-exported from their modules on first use (PEP 562), so that
`import bincurve` loads no submodule.
"""
__version__ = "0.1.0"

_EXPORTS = {
    "fields": "FieldCtx PrimeField Rationals field_from_json field_to_json",
    "rng": "Rng",
    "linalg": "",
    "curve": "BinaryCurve MoebiusMap ProjPoint is_hyperelliptic_fast "
             "moebius_through normalize_at random_curve "
             "random_hyperelliptic_curve standard_curve",
    "bundles": "EffectiveDivisor LineBundle apply_moebius bundle_at "
               "bundle_count bundle_from_json canonical_bundle dual "
               "enumerate_bundles from_divisor hyperelliptic_class power "
               "restrict_to_normalization tensor trivial",
    "cohomology": "BaseLocus DescentResult SectionSpace base_locus descend "
                  "descend_gluings gluing_profile h0 h0_vanishing h1 "
                  "neutral_pair point_divisor",
    "picard": "Ell0 Stratum balanced_set closure_leq "
              "enumerate_strata h0_bar is_balanced normalized_strata "
              "picard_type strata_to_json strict_set",
    "brill_noether": "BNQuery BNReport assemble_Wbar bn_enumerate "
                     "clifford_equality_classes clifford_index "
                     "estimate_dim growth_estimate martens_bound "
                     "merge_reports predicted_empty reduce_curve_mod rho "
                     "split_ranges verify_canonical_very_ample",
    "suites": "SUITES SuiteResult",
}
# name -> owning module; each module is itself exported under its name
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in (module, *names.split())}

__all__ = sorted(_OWNER)


def __getattr__(name):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    mod = importlib.import_module(f"{__name__}.{module}")
    value = mod if name == module else getattr(mod, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
