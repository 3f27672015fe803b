"""Discriminators of integer sequences.

The discriminator D_v(n) is the smallest modulus m that keeps the first n
terms of a sequence v pairwise incongruent. This package computes it by
brute force for arbitrary second-order recurrences and polynomial sequences,
proves out the closed form min(2^e, 5^f) for the flagship sequence
u_j = (3^j - 5(-1)^j)/4, and ships the surrounding machinery: periods and
pre-periods mod d, incongruence indices, non-value certificates, prime-class
censuses against Artin-constant predictions, the F-set of power-of-5 values,
and character-sum verifications.
"""

from .census import (
    ARTIN_CONSTANT,
    BETA,
    DensityReport,
    FsetRecord,
    PrimeClassRecord,
    census_scan,
    classify_prime,
    fset_count,
    fset_member_interval,
    fset_member_weyl,
    fset_scan_checked,
    fset_scan_interval,
)
from .charsum import (
    CharSumReport,
    bplusb_bound_check,
    build_A,
    char_sum_report,
    max_nontrivial_char_sum,
    pair_count_identity_check,
)
from .discriminator import (
    DiscriminatorRecord,
    NonValueCertificate,
    collision_certificate,
    discriminator_brute,
    discriminator_table,
    image_of_discriminator,
    nonvalue_screen,
    recheck_certificate,
    recheck_collision_certificate,
    salajan_discriminator_checked,
    salajan_discriminator_closed,
    table_ranges,
    verify_discriminates,
)
from .numtheory import (
    artin_constant,
    factorize,
    is_prime,
    lte_valuation,
    mult_order,
    padic_valuation,
    primes_up_to,
    smallest_primitive_root,
)
from .periods import (
    PeriodInfo,
    incongruence_index,
    iota_equals_rho_scan,
    iota_prime_bound,
    period_brute,
    prime_lemma_bound,
    salajan_period_checked,
    salajan_period_formula,
)
from .sequences import (
    CapExceeded,
    MethodsDisagree,
    SequenceNotAdmissible,
    SequenceSpec,
    linear_recurrence,
    parse_spec,
    polynomial,
    salajan,
    salajan_term_mod,
    term_exact,
)
from .verify import CheckResult, run_suites

__version__ = "0.1.0"
