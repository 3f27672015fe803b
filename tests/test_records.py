"""The nine record types: reprs, immutability, spec validation and equality.

Every record is a NamedTuple. `MethodsDisagree` messages and CLI output embed
the reprs, so the strings below are frozen.
"""

import pytest

from discrim import census, charsum, discriminator, periods, sequences, verify

RECORDS = [
    (census.classify_prime(7),
     "PrimeClassRecord(p=7, residue_mod_4=3, ord3=6, pclass='P3')"),
    (census.fset_member_interval(3),
     "FsetRecord(b=3, member=True, k=None)"),
    (census.FsetRecord(2, False, 4),
     "FsetRecord(b=2, member=False, k=4)"),
    (census.DensityReport(10, 4, {"P1": 1}, {"P1": 0.25}, {"P1": 0.2}, {"P1": 0.25}),
     "DensityReport(x=10, pi_x=4, counts={'P1': 1}, empirical={'P1': 0.25}, "
     "predicted={'P1': 0.2}, deviation={'P1': 0.25})"),
    (charsum.CharSumReport(7, 3, 5, 2.5, 2.6457513110645907, 0.0),
     "CharSumReport(p=7, g=3, setA_size=5, max_nontrivial_sum=2.5, "
     "sqrt_p=2.6457513110645907, identity_residual=0.0)"),
    (discriminator.salajan_discriminator_closed(20),
     "DiscriminatorRecord(n=20, value=25, method='closed_form')"),
    (discriminator.NonValueCertificate(6, "non_value", "divisible_by_3", {"d_mod_3": 0}),
     "NonValueCertificate(d=6, verdict='non_value', reason='divisible_by_3', "
     "witness={'d_mod_3': 0})"),
    (periods.salajan_period_formula(99991),
     "PeriodInfo(modulus=99991, pre_period=1, period=19998)"),
    (sequences.linear_recurrence(2, 3, 2, 1),
     "SequenceSpec(kind='linear_recurrence', coeffs=(2, 3), initial=(2, 1))"),
    (sequences.salajan(),
     "SequenceSpec(kind='salajan', coeffs=(), initial=())"),
    (sequences.polynomial(0, 0, 1),
     "SequenceSpec(kind='polynomial', coeffs=(0, 0, 1), initial=())"),
    (verify.CheckResult("table", True, "ok"),
     "CheckResult(suite='table', passed=True, detail='ok')"),
]
IDS = [want.partition("(")[0] for _, want in RECORDS]


def test_every_record_type_is_covered():
    assert set(IDS) == {
        "PrimeClassRecord", "FsetRecord", "DensityReport", "CharSumReport", "DiscriminatorRecord",
        "NonValueCertificate", "PeriodInfo", "SequenceSpec", "CheckResult",
    }


@pytest.mark.parametrize("record,want", RECORDS, ids=IDS)
def test_repr_is_frozen(record, want):
    assert repr(record) == want


@pytest.mark.parametrize("record,want", RECORDS, ids=IDS)
def test_fields_cannot_be_set(record, want):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("args,message", [
    (("salajan", (1,)), "salajan spec takes no parameters"),
    (("linear_recurrence", (1, 2), (1,)),
     "linear recurrence needs coefficients (c1, c2) and initial (v1, v2)"),
    (("polynomial", ()), "polynomial needs a nonempty coefficient list and no initial terms"),
    (("mystery",), "unknown sequence kind 'mystery'"),
])
def test_spec_validation_messages(args, message):
    with pytest.raises(ValueError) as exc:
        sequences.SequenceSpec(*args)
    assert str(exc.value) == message


def test_equal_specs_share_one_memo_entry():
    first = sequences.linear_recurrence(1, 1, 1, 2)
    second = sequences.SequenceSpec("linear_recurrence", coeffs=(1, 1), initial=(1, 2))
    assert first == second and first is not second
    discriminator.discriminator_brute(first, 6)
    discriminator.discriminator_brute(second, 7)
    assert list(discriminator._PROVEN_RUNS) == [first]


def test_the_flagship_spec_differs_from_its_recurrence():
    assert sequences.salajan() != sequences.linear_recurrence(2, 3, 2, 1)
    discriminator.discriminator_brute(sequences.salajan(), 20)
    discriminator.discriminator_brute(sequences.linear_recurrence(2, 3, 2, 1), 20)
    assert len(discriminator._PROVEN_RUNS) == 2
