"""The package's public names: what `bincurve` exports and where each
name comes from. The names resolve lazily; these pin that they resolve to
the same objects the eager imports bound."""
import importlib

import pytest

import bincurve

# every re-export under its module, and the modules themselves
EXPORTS = {
    "fields": ["FieldCtx", "PrimeField", "Rationals", "field_from_json",
               "field_to_json"],
    "rng": ["Rng"],
    "linalg": [],
    "curve": ["BinaryCurve", "MoebiusMap", "ProjPoint",
              "is_hyperelliptic_fast", "moebius_through", "normalize_at",
              "random_curve", "random_hyperelliptic_curve", "standard_curve"],
    "bundles": ["EffectiveDivisor", "LineBundle", "apply_moebius",
                "bundle_at", "bundle_count", "bundle_from_json",
                "canonical_bundle", "dual", "enumerate_bundles",
                "from_divisor", "hyperelliptic_class", "power",
                "restrict_to_normalization", "tensor", "trivial"],
    "cohomology": ["BaseLocus", "DescentResult", "SectionSpace", "base_locus",
                   "descend", "gluing_profile", "h0", "h0_vanishing", "h1",
                   "neutral_pair", "point_divisor"],
    "picard": ["Ell0", "Stratum", "balanced_set", "closure_leq",
               "enumerate_strata", "h0_bar", "is_balanced",
               "normalized_strata", "picard_type", "strata_to_json",
               "strict_set"],
    "brill_noether": ["BNQuery", "BNReport", "assemble_Wbar",
                      "bn_enumerate", "clifford_equality_classes",
                      "clifford_index", "estimate_dim", "growth_estimate",
                      "martens_bound", "merge_reports", "predicted_empty",
                      "reduce_curve_mod", "rho", "split_ranges",
                      "verify_canonical_very_ample"],
    "suites": ["SUITES", "SuiteResult"],
}
NAMES = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])


def test_all_is_pinned():
    assert len(NAMES) == 78  # 69 re-exports and 9 modules
    assert sorted(bincurve.__all__) == NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_names_are_their_modules_objects(module):
    mod = importlib.import_module(f"bincurve.{module}")
    assert getattr(bincurve, module) is mod
    for name in EXPORTS[module]:
        assert getattr(bincurve, name) is getattr(mod, name), name


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(bincurve))
    assert "__version__" in dir(bincurve)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bincurve.no_such_name
    assert not hasattr(bincurve, "DEFAULT_SEED")


def test_star_import_binds_every_name():
    ns = {}
    exec("from bincurve import *", ns)
    assert sorted(k for k in ns if k != "__builtins__") == NAMES
    assert all(ns[n] is getattr(bincurve, n) for n in NAMES)
