"""Discriminators of integer sequences.

The discriminator D_v(n) is the smallest modulus m that keeps the first n
terms of a sequence v pairwise incongruent. This package computes it by
brute force for arbitrary second-order recurrences and polynomial sequences,
proves out the closed form min(2^e, 5^f) for the flagship sequence
u_j = (3^j - 5(-1)^j)/4, and ships the surrounding machinery: periods and
pre-periods mod d, incongruence indices, non-value certificates, prime-class
censuses against Artin-constant predictions, the F-set of power-of-5 values,
and character-sum verifications.

`import discrim` loads no submodule. Each exported name, and each submodule
named as an attribute, loads its module on first use (PEP 562); once a
module is loaded, its names are plain attributes of the package.
"""

import sys
from importlib import import_module
from types import ModuleType

# the verify suites, in the order `--suite all` runs them; kept here so that
# the CLI's help text reads them without loading any engine
_SUITE_NAMES = ("table", "theorem1", "periods", "iota-anchors", "iota-bounds", "valuation",
                "screen", "census", "artin", "fset", "charsum", "note")

# submodule -> the names the package exports from it
_EXPORTS = {
    "census": ("ARTIN_CONSTANT", "BETA", "DensityReport", "FsetRecord", "PrimeClassRecord",
               "census_scan", "classify_prime", "fset_count", "fset_member_interval",
               "fset_member_weyl", "fset_scan_checked", "fset_scan_interval"),
    "charsum": ("CharSumReport", "bplusb_bound_check", "build_A", "char_sum_report",
                "max_nontrivial_char_sum", "pair_count_identity_check"),
    "discriminator": ("DiscriminatorRecord", "NonValueCertificate", "collision_certificate",
                      "discriminator_brute", "discriminator_table", "image_of_discriminator",
                      "nonvalue_screen", "recheck_certificate", "recheck_collision_certificate",
                      "salajan_discriminator_checked", "salajan_discriminator_closed",
                      "table_ranges", "verify_discriminates"),
    "numtheory": ("artin_constant", "factorize", "is_prime", "lte_valuation", "mult_order",
                  "padic_valuation", "primes_up_to", "smallest_primitive_root"),
    "periods": ("PeriodInfo", "incongruence_index", "iota_equals_rho_scan", "iota_prime_bound",
                "period_brute", "prime_lemma_bound", "salajan_period_checked",
                "salajan_period_formula"),
    "sequences": ("CapExceeded", "MethodsDisagree", "SequenceNotAdmissible", "SequenceSpec",
                  "linear_recurrence", "parse_spec", "polynomial", "salajan", "salajan_term_mod",
                  "term_exact"),
    "verify": ("CheckResult", "run_suites"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


class _Package(ModuleType):
    """The package's module type while some submodule is not loaded. The
    import system sets each submodule on its package once the submodule has
    run, and that is when its exports are bound here: a lookup after the load
    is a dict hit, and no name appears later, on first use."""

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _EXPORTS and isinstance(value, ModuleType):
            vars(self).update({export: getattr(value, export) for export in _EXPORTS[name]})
            if vars(self).keys() >= _EXPORTS.keys():
                # every name is bound: back to a plain module without
                # __getattr__, the only kind whose attribute loads CPython
                # specializes (about 20 ns a lookup saved in certify's loop)
                del vars(self)["__getattr__"]
                self.__class__ = ModuleType


def __getattr__(name):
    # reached only for a name not bound yet: an export or a submodule whose
    # module is not loaded, or no name of the package
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})


sys.modules[__name__].__class__ = _Package
