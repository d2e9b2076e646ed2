from fractions import Fraction

import pytest

from toeplitz_lab import (
    BINARY,
    FillingSchedule,
    PeriodicPattern,
    Status,
    aperiodic_residues,
    check_oxtoby,
    classify_residues,
    gallery,
    hole_block_counts,
    min_hole_gap,
    parse_seed,
    periodic_density,
    schedule_from_text,
    verify_period_structure,
)
from toeplitz_lab.errors import DivisibilityViolation, NoHoles, ToeplitzError


def statuses(source, p):
    return {s.residue: s for s in classify_residues(source, p)}


def test_classify_constant_pattern():
    st = statuses(PeriodicPattern("a"), 1)
    assert st[0].status is Status.PERIODIC and st[0].letter == "a"
    with pytest.raises(TypeError):
        classify_residues(gallery("ex4.3"), 2)


def test_classify_ex43_level2():
    st = statuses(gallery("ex4.3").pattern(2), 16)
    undetermined = [r for r, s in st.items() if s.status is Status.UNDETERMINED]
    assert undetermined == [5, 9]
    assert all(s.status is Status.PERIODIC for r, s in st.items() if r not in (5, 9))


def test_classify_ex57_period8_at_depth4():
    # derived by direct window scan: nonperiodic at 1,2,5,6; the rest settle
    st = statuses(gallery("ex5.7").pattern(4), 8)
    nonper = sorted(r for r, s in st.items() if s.status is Status.NONPERIODIC)
    assert nonper == [1, 2, 5, 6]
    assert st[3].status is Status.PERIODIC and st[3].letter == "b"
    assert st[0].status is Status.PERIODIC and st[0].letter == "a"


def test_classification_monotone_in_resolution():
    s = gallery("ex5.7")
    for p in (4, 8, 16):
        lo = statuses(s.pattern(3), p)
        hi = statuses(s.pattern(5), p)
        for r in range(p):
            if lo[r].status is Status.PERIODIC:
                assert hi[r].status is Status.PERIODIC and hi[r].letter == lo[r].letter
            if lo[r].status is Status.NONPERIODIC:
                assert hi[r].status is Status.NONPERIODIC


def test_divisor_period_containment():
    s = gallery("ex5.7")
    pat = s.pattern(5)
    small = statuses(pat, 4)
    large = statuses(pat, 16)
    for r in range(16):
        if small[r % 4].status is Status.PERIODIC:
            # a 4-periodic class stays periodic for the refined period
            assert large[r].status is Status.PERIODIC
            assert large[r].letter == small[r % 4].letter


def test_aperiodic_residues_examples():
    assert aperiodic_residues(gallery("ex4.3"), 2, 4) == (5, 9)
    assert aperiodic_residues(gallery("ex5.7"), 2, 4) == (5, 6, 9, 10)
    for l in (1, 2, 3):
        assert len(aperiodic_residues(gallery("ex4.4-mini"), l, l + 1)) == 1


def test_aperiodic_residues_mismatch_with_holes_raises():
    # the second seed fills both level-1 holes, so no residue mod 4 stays open
    s = schedule_from_text("ab\na??b\nab\n")
    assert s.holes(1) == (1, 2)
    with pytest.raises(ToeplitzError, match="hole set"):
        aperiodic_residues(s, 1, 2)


def test_aperiodic_counts_ex43():
    s = gallery("ex4.3")
    for l in (1, 2, 3, 4):
        assert len(aperiodic_residues(s, 2 * l, 2 * l + 2)) == 2 ** l


def test_density_examples():
    assert periodic_density(gallery("ex4.3"), 2) == Fraction(14, 16)
    m = gallery("ex4.4-mini")
    for l in (1, 2, 3):
        p = m.period(l)
        assert periodic_density(m, l) == Fraction(p - 1, p)
    s = FillingSchedule(BINARY, [parse_seed("a?b"), parse_seed("ab")])
    assert periodic_density(s, 2) == 1


def test_min_hole_gap_examples():
    m = gallery("ex4.4-mini")
    assert min_hole_gap(m, 2) == m.period(2)
    assert min_hole_gap(gallery("ex3.5"), 1) == 1
    assert min_hole_gap(gallery("ex5.7"), 2) == 1
    with pytest.raises(NoHoles):
        min_hole_gap(FillingSchedule(BINARY, [parse_seed("a?b"), parse_seed("ab")]), 2)


def test_gap_times_count_bounds_period():
    # separated holes force density -> 1: h * gap <= p, so density >= 1 - 1/gap
    for name in ("ex4.3", "ex5.7", "ex3.5", "ex4.4-mini", "williams"):
        s = gallery(name)
        for l in (1, 2, 3):
            gap = min_hole_gap(s, l)
            assert periodic_density(s, l) >= 1 - Fraction(1, gap)


def test_check_oxtoby_verdicts():
    assert check_oxtoby(gallery("ex3.5"), 4).certified
    assert check_oxtoby(gallery("ex5.7"), 4).certified
    assert check_oxtoby(gallery("williams", ratio=4), 4).certified
    v = check_oxtoby(gallery("ex4.4-mini"), 3)
    assert not v.certified and v.level == 1


def test_oxtoby_hole_growth():
    # blocks of the base scale that still contain deep holes keep them all
    for name in ("ex3.5", "ex5.7"):
        s = gallery(name)
        for l in range(1, 5):
            for t in range(1, l + 1):
                assert all(c >= 2 ** (t - 1) for c in hole_block_counts(s, t, l))


def test_verify_period_structure_ex57():
    s = gallery("ex5.7")
    cert = verify_period_structure(s, [4 ** l for l in range(1, 6)], 7)
    assert cert.all_pass


def test_essentiality_witness_position():
    # the first deep hole is periodic at the next scale entry but not at
    # half of it: e.g. residue 5 settles modulo 64 yet splits modulo 32
    pat = gallery("ex5.7").pattern(6)
    st64 = statuses(pat, 64)
    st32 = statuses(pat, 32)
    assert st64[5].status is Status.PERIODIC
    assert st32[5].status is Status.NONPERIODIC


def test_divisibility_violation():
    with pytest.raises(DivisibilityViolation):
        verify_period_structure(gallery("ex5.7"), [2, 3], 3)


def test_mixed_prime_scale_structure():
    s = gallery("ex3.5")
    cert = verify_period_structure(s, [8, 48, 480], 4, coverage_window=(-8, 8))
    assert cert.divisible and all(e.certified for e in cert.essentiality)


def test_prime_exponents_and_prime_power_scales():
    from toeplitz_lab.periodicity import _prime_power_scale, prime_exponents

    assert prime_exponents(1) == {}
    assert prime_exponents(2 ** 5 * 3 * 53 ** 2) == {2: 5, 3: 1, 53: 2}
    with pytest.raises(ValueError):
        prime_exponents(0)
    # powers of a prime above 13 still get the prime-power candidate list
    assert _prime_power_scale((17, 17 ** 2, 17 ** 3)) == 17
    assert _prime_power_scale((17, 34)) is None
    assert _prime_power_scale((8, 48)) is None


def test_williams_levels_form_a_period_structure():
    w = gallery("williams", ratio=4)
    cert = verify_period_structure(w, [4, 16, 64], 4)
    assert cert.all_pass
