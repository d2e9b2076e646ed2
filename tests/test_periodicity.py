from fractions import Fraction

import pytest

from toeplitz_lab import (
    BINARY,
    FillingSchedule,
    PeriodicPattern,
    aperiodic_residues,
    check_oxtoby,
    classify_residues,
    gallery,
    hole_block_counts,
    min_hole_gap,
    parse_seed,
    periodic_density,
    schedule_from_text,
    VerdictKind,
    periodicity,
    verify_period_structure,
)
from toeplitz_lab.errors import DivisibilityViolation, NoHoles, ToeplitzError


def test_classify_constant_pattern():
    c = classify_residues(PeriodicPattern("a"), 1)
    assert c.modulus == 1 and c.periodic == {0: "a"}
    assert c.nonperiodic == c.undetermined == ()
    with pytest.raises(ToeplitzError):
        classify_residues(gallery("ex4.3"), 2)


def test_classify_ex43_level2():
    c = classify_residues(gallery("ex4.3").pattern(2), 16)
    assert c.undetermined == (5, 9)
    assert c.nonperiodic == ()
    assert sorted(c.periodic) == [r for r in range(16) if r not in (5, 9)]


def test_classify_ex57_period8_at_depth4():
    # derived by direct window scan: nonperiodic at 1,2,5,6; the rest settle
    c = classify_residues(gallery("ex5.7").pattern(4), 8)
    assert c.nonperiodic == (1, 2, 5, 6)
    assert c.periodic[3] == "b"
    assert c.periodic[0] == "a"


def test_classification_monotone_in_resolution():
    s = gallery("ex5.7")
    for p in (4, 8, 16):
        lo = classify_residues(s.pattern(3), p)
        hi = classify_residues(s.pattern(5), p)
        for r, letter in lo.periodic.items():
            assert hi.periodic.get(r) == letter
        assert set(lo.nonperiodic) <= set(hi.nonperiodic)


def test_divisor_period_containment():
    s = gallery("ex5.7")
    pat = s.pattern(5)
    small = classify_residues(pat, 4)
    large = classify_residues(pat, 16)
    for r in range(16):
        if r % 4 in small.periodic:
            # a 4-periodic class stays periodic for the refined period
            assert large.periodic.get(r) == small.periodic[r % 4]


def test_aperiodic_residues_examples():
    assert aperiodic_residues(gallery("ex4.3"), 2, 4) == (5, 9)
    assert aperiodic_residues(gallery("ex5.7"), 2, 4) == (5, 6, 9, 10)
    for l in (1, 2, 3):
        assert len(aperiodic_residues(gallery("ex4.4-mini"), l, l + 1)) == 1
    # the holes die out at the last seed, so a deeper resolution reads no further seed
    assert aperiodic_residues(schedule_from_text("ab\na?b\nab\n"), 1, 4) == (1,)


def test_aperiodic_residues_mismatch_with_holes_raises():
    # the second seed fills both level-1 holes, so no residue mod 4 stays open
    s = schedule_from_text("ab\na??b\nab\n")
    assert s.holes(1) == (1, 2)
    with pytest.raises(ToeplitzError, match="hole set"):
        aperiodic_residues(s, 1, 2)
    # one letter closes the only hole class
    with pytest.raises(ToeplitzError, match="not certified periodic"):
        aperiodic_residues(schedule_from_text("ab\na?b\na\n"), 1, 2)
    # holes still open after the last seed leave the resolution depth unreachable
    with pytest.raises(ToeplitzError, match="no seed at level 3"):
        aperiodic_residues(schedule_from_text("ab\na?b\na?b\n"), 1, 3)


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


def test_check_oxtoby_certifies_nothing_without_a_pair_of_levels():
    # ex4.3 is refuted at depth 2; depth 1 compares no pair of levels, so it cannot say either way
    assert check_oxtoby(gallery("ex4.3"), 2).kind is VerdictKind.REFUTED
    for name in ("ex4.3", "ex3.5", "ex4.4"):
        v = check_oxtoby(gallery(name), 1)
        assert (v.kind, v.unfilled_blocks) == (VerdictKind.UNKNOWN, ())
        assert "no pair of levels" in v.reason


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
    assert 5 in classify_residues(pat, 64).periodic
    assert 5 in classify_residues(pat, 32).nonperiodic


@pytest.mark.parametrize("scale", [[], [0, 4], [-2, 4]])
def test_verify_period_structure_refuses_an_empty_scale_or_a_period_below_one(scale):
    with pytest.raises(ToeplitzError, match="scale must be"):
        verify_period_structure(gallery("ex5.7"), scale, 3)


@pytest.mark.parametrize("source", [gallery("ex5.7"), PeriodicPattern("ab?b")])
def test_verify_period_structure_refuses_a_reversed_coverage_window(source):
    with pytest.raises(ToeplitzError, match="coverage window"):
        verify_period_structure(source, [4, 16], 3, coverage_window=(5, -5))
    # lo == hi is a one-position window
    assert verify_period_structure(gallery("ex5.7"), [4, 16], 3, coverage_window=(5, 5)).coverage_window == (5, 5)


def test_period_structure_records_the_depth_it_read():
    # two seeds: a depth-3 request reads level 2, and the certificate says so
    s = schedule_from_text("ab\na?b\na?b\n")
    cert = verify_period_structure(s, [3, 9], 3)
    assert cert.depth == 2
    assert cert == verify_period_structure(s, [3, 9], 2)
    assert verify_period_structure(gallery("ex5.7"), [4, 16], 3).depth == 3  # a seed rule reads the depth asked for


def test_coverage_reads_at_most_one_period(monkeypatch):
    # a window longer than the period repeats it, so one period decides coverage, also past the window cap
    import toeplitz_lab.words as words

    monkeypatch.setattr(words, "PATTERN_CAP", 16)
    for text, covered in (("ab\na?b\nab\n", True), ("ab\na?b\na?b\n", False)):
        s = schedule_from_text(text)
        cert = verify_period_structure(s, [3], 2, coverage_window=(-20, 20))
        assert cert.covered is covered
        assert cert == verify_period_structure(s.pattern(2), [3], 2, coverage_window=(-20, 20))


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
    with pytest.raises(ToeplitzError):
        prime_exponents(0)
    # powers of a prime above 13 still get the prime-power candidate list
    assert _prime_power_scale((17, 17 ** 2, 17 ** 3)) == 17
    assert _prime_power_scale((17, 34)) is None
    assert _prime_power_scale((8, 48)) is None


def test_williams_levels_form_a_period_structure():
    w = gallery("williams", ratio=4)
    cert = verify_period_structure(w, [4, 16, 64], 4)
    assert cert.all_pass


def count_class_reads(monkeypatch):
    """The moduli ``_residue_classes`` is called with, collected from now on."""
    calls, original = [], periodicity._residue_classes

    def counted(p, row, columns):
        calls.append(p)
        return original(p, row, columns)
    monkeypatch.setattr(periodicity, "_residue_classes", counted)
    return calls


def test_schedule_classes_classify_once(monkeypatch):
    s = gallery("ex4.3")
    calls = count_class_reads(monkeypatch)
    for l in range(1, 6):
        calls.clear()
        classes = periodicity.schedule_classes(s, 4 ** l, 10)
        assert calls == [4 ** l] and classes.modulus == 4 ** l
    calls.clear()
    cert = verify_period_structure(s, s.scale(11), 12)
    assert cert.all_pass and calls == list(s.scale(11))[::-1]


def test_pattern_source_is_read_once_for_the_whole_scale(monkeypatch):
    # the ex4.4 factor image of 2^21 letters: the classes mod 32768 are read off it, and those mod 1024
    # and 64 off the classes of the next larger entry
    from test_oracles import isolating_image

    pat, scale = isolating_image("ex4.4")
    reads, original = [], periodicity._pattern_columns

    def counted(source, p):
        reads.append((source is pat, p))
        return original(source, p)
    monkeypatch.setattr(periodicity, "_pattern_columns", counted)
    cert = verify_period_structure(pat, scale, 4, coverage_window=(-64, 64))
    assert cert.all_pass and reads == [(True, 32768), (False, 1024), (False, 64)]


@pytest.mark.parametrize("p", [0, -4])
def test_schedule_classes_refuse_a_modulus_below_one(p):
    with pytest.raises(ToeplitzError, match="period must be positive"):
        periodicity.schedule_classes(gallery("ex5.7"), p, 3)
