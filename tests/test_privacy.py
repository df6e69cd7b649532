"""Randomized-response perturbation, budgets, and the empirical audit."""

import hashlib
import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from bloomlab import filters, privacy
from bloomlab.errors import DomainError, ParameterError, UnsupportedOperationError
from bloomlab.filters import BloomFilter, FilterParams, HashFamily, Universe, expected_fpr
from bloomlab.privacy import (
    ENUMERATION_CAP,
    FnrEstimate,
    FprWithInjected,
    MANGAT,
    WARNER,
    PerturbedSet,
    PrivacyParams,
    audit_perturbation,
    build_private_filter,
    dp_audit,
    expected_cardinality,
    expected_fnr,
    mangat_perturb,
    measure_fpr_excluding_injected,
    measure_member_negative_rate,
    perturb,
    privacy_budget,
    warner_perturb,
)
from bloomlab.stats import mix_seed, standard_error


def test_params_validation():
    PrivacyParams(MANGAT, 1.0)
    PrivacyParams(MANGAT, 0.3)
    PrivacyParams(WARNER, 0.75)
    with pytest.raises(ParameterError):
        PrivacyParams(MANGAT, 0.0)
    with pytest.raises(ParameterError):
        PrivacyParams(MANGAT, 1.0001)
    with pytest.raises(ParameterError):
        PrivacyParams(WARNER, 0.5)
    with pytest.raises(ParameterError):
        PrivacyParams(WARNER, 1.0)
    with pytest.raises(ParameterError):
        PrivacyParams("other", 0.7)


def test_enumeration_cap():
    params = PrivacyParams(MANGAT, 0.5)
    with pytest.raises(UnsupportedOperationError):
        perturb({0}, Universe(ENUMERATION_CAP + 1), params, seed=0)
    perturb({0}, Universe(64), params, seed=0)


class _Unreadable:
    """A member collection that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("the member collection was read")


def test_audit_refuses_a_universe_past_the_cap_before_reading_its_members():
    with pytest.raises(UnsupportedOperationError, match="exceeds cap"):
        audit_perturbation(PrivacyParams(MANGAT, 0.5), _Unreadable(), Universe(ENUMERATION_CAP + 1), 0,
                           trials=1, seed=1)


@pytest.mark.parametrize("bad", [-1, 64, 1 << 70, 2.0, "7", None])
def test_member_sets_refuse_a_bad_member_by_name(bad):
    u, fparams, mangat = Universe(64), FilterParams(m=64, k=3, n=3), PrivacyParams(MANGAT, 0.5)
    calls = [
        lambda ms: mangat_perturb(ms, u, 0.5, 1),
        lambda ms: warner_perturb(ms, u, 0.75, 1),
        lambda ms: audit_perturbation(mangat, ms, u, 1, trials=1, seed=1),
        lambda ms: measure_member_negative_rate(ms, u, fparams, mangat, trials=1, seed=1),
        lambda ms: measure_fpr_excluding_injected(ms, u, fparams, mangat, trials=1, queries_per_trial=1, seed=1),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=re.escape(f"element {bad!r} outside universe [0, 64)")):
            call([1, 5, bad])
    # The audit and the two measurements check the caller's collection in its
    # own order, before any set could absorb 3.0 into 3.
    for members, named in (([1, 70, -1], 70), ([1, 3, 3.0], 3.0)):
        for call in calls[2:]:
            with pytest.raises(DomainError, match=re.escape(f"element {named!r} outside")):
                call(members)


def test_checked_inputs_are_remembered_only_for_themselves():
    """An accepted (set, universe size, mode, p) is not checked again, and
    nothing else rides on it: the same set under another universe, p or
    mode, an equal set that is another object, and a fresh bad set all
    raise as they would on a first call."""
    members = frozenset(range(8))
    assert 3 in mangat_perturb(members, Universe(64), 0.5, 7).members
    first = next(x for x in members if x >= 5)  # the offender require_all names first
    with pytest.raises(DomainError, match=re.escape(f"element {first!r} outside universe [0, 5)")):
        mangat_perturb(members, Universe(5), 0.5, 7)
    with pytest.raises(ParameterError):
        mangat_perturb(members, Universe(64), 1.5, 7)
    with pytest.raises(ParameterError):
        warner_perturb(members, Universe(64), 0.5, 7)
    with pytest.raises(UnsupportedOperationError):
        mangat_perturb(members, Universe(ENUMERATION_CAP + 1), 0.5, 7)
    lookalike = frozenset([0.0, *range(1, 8)])
    assert lookalike == members and lookalike is not members
    with pytest.raises(DomainError, match=re.escape("element 0.0 outside")):
        mangat_perturb(lookalike, Universe(64), 0.5, 7)
    with pytest.raises(DomainError, match=re.escape("element 70 outside universe [0, 64)")):
        mangat_perturb(frozenset({3, 70}), Universe(64), 0.5, 7)
    assert mangat_perturb(members, Universe(64), 0.5, 7) == mangat_perturb(set(members), Universe(64), 0.5, 7)


def test_checked_perturbation_inputs_share_the_filters_memo():
    """A perturbation remembers its inputs under (members, size, mode, p) in
    the one memo of checked sets, beside the (members, size) entry of the
    universe's own check."""
    filters._CHECKED.clear()  # room for both entries: a full memo is cleared before it stores
    members = frozenset(range(3, 11))
    mangat_perturb(members, Universe(64), 0.5, 7)
    assert privacy._CHECKED is filters._CHECKED
    assert filters._CHECKED[(members, 64, MANGAT, 0.5)] is members
    assert filters._CHECKED[(members, 64)] is members


def test_estimators_leave_an_audits_checked_sets_in_the_memo():
    """The estimators freeze their member set once per call and build over a
    set copy of each drawn set, so ten trials leave two entries in the one
    memo of checked sets, and the four of an audit before them survive."""
    filters._CHECKED.clear()
    u, fparams = Universe(64), FilterParams(m=64, k=3, n=10)
    audit_perturbation(PrivacyParams(MANGAT, 0.5), range(3, 11), u, 5, trials=5, seed=1)
    audit = dict(filters._CHECKED)
    assert len(audit) == 4
    measure_fpr_excluding_injected(set(range(10)), u, fparams, PrivacyParams(MANGAT, 0.5),
                                   trials=10, queries_per_trial=3, seed=2)
    assert len(filters._CHECKED) == 6
    assert all(filters._CHECKED.get(key) is value for key, value in audit.items())
    filters._CHECKED.clear()
    measure_member_negative_rate(set(range(10)), u, fparams, PrivacyParams(WARNER, 0.75), trials=10, seed=2)
    assert len(filters._CHECKED) == 2


@pytest.mark.parametrize("direction", ["removal", "reverse"])
@pytest.mark.parametrize("mode,p", [(MANGAT, 0.5), (WARNER, 0.75)])
def test_audit_perturbs_through_the_module_once_per_world(monkeypatch, mode, p, direction):
    """The benchmark's tracer wraps the module's mangat_perturb and
    warner_perturb and expects 2 calls per audit trial: one per neighbour."""
    calls = {MANGAT: 0, WARNER: 0}
    for name, fn in ((MANGAT, privacy.mangat_perturb), (WARNER, privacy.warner_perturb)):
        def counted(*args, _name=name, _fn=fn):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(privacy, f"{name}_perturb", counted)
    trials = 37
    audit_perturbation(PrivacyParams(mode, p), set(range(8)), Universe(64), x=0,
                       trials=trials, seed=5, direction=direction)
    assert calls == {mode: 2 * trials, (WARNER if mode == MANGAT else MANGAT): 0}


def test_mangat_keeps_members_always():
    members = set(range(0, 50, 5))
    for seed in range(200):
        out = mangat_perturb(members, Universe(64), 0.3, seed)
        assert members <= set(out.members)
        assert out.original_size == len(members)
        assert all(x in out for x in members)


def test_mangat_p_one_is_identity():
    members = {3, 9, 12}
    for seed in range(50):
        out = mangat_perturb(members, Universe(40), 1.0, seed)
        assert set(out.members) == members


def test_mangat_mean_size():
    u, s, p, trials = 100, 10, 0.8, 10_000
    members = set(range(s))
    sizes = [len(mangat_perturb(members, Universe(u), p, seed)) for seed in range(trials)]
    mean = math.fsum(sizes) / trials
    expected = expected_cardinality(MANGAT, s, u, p)
    assert expected == pytest.approx(s + (1 - p) * (u - s))
    se = math.sqrt((u - s) * p * (1 - p)) / math.sqrt(trials)
    assert abs(mean - expected) < 3 * se


def test_warner_marginals():
    u, p, trials = 60, 0.75, 10_000
    members = {7, 21}
    kept = 0
    added = 0
    for seed in range(trials):
        out = warner_perturb(members, Universe(u), p, seed)
        kept += 7 in out
        added += 3 in out
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(kept / trials - p) < 3 * se
    assert abs(added / trials - (1 - p)) < 3 * se


def test_warner_decisions_independent_across_elements():
    u, p, trials = 16, 0.75, 10_000
    members = {1, 2}
    both = kept1 = kept2 = 0
    for seed in range(trials):
        out = warner_perturb(members, Universe(u), p, seed)
        a, b = 1 in out, 2 in out
        kept1 += a
        kept2 += b
        both += a and b
    cov = both / trials - (kept1 / trials) * (kept2 / trials)
    assert abs(cov) < 0.015


def test_warner_mean_size():
    u, s, p, trials = 100, 10, 0.75, 10_000
    members = set(range(s))
    sizes = [len(warner_perturb(members, Universe(u), p, seed)) for seed in range(trials)]
    mean = math.fsum(sizes) / trials
    expected = expected_cardinality(WARNER, s, u, p)
    assert expected == pytest.approx(p * s + (1 - p) * (u - s))
    var = s * p * (1 - p) + (u - s) * p * (1 - p)
    assert abs(mean - expected) < 3 * math.sqrt(var / trials)


def test_perturb_dispatch_and_determinism():
    members = {1, 5, 9}
    u = Universe(32)
    a = perturb(members, u, PrivacyParams(WARNER, 0.8), seed=11)
    b = perturb(members, u, PrivacyParams(WARNER, 0.8), seed=11)
    assert set(a.members) == set(b.members)
    c = perturb(members, u, PrivacyParams(MANGAT, 0.8), seed=11)
    assert members <= set(c.members)
    assert a.mode == WARNER and c.mode == MANGAT


def _reference_word(seed, x):
    """Element x's word under ``seed``, from the rule's definition: the
    little-endian word x % 8 of the 64-byte blake2b digest of the two
    little-endian 8-byte integers seed and x // 8, personalised "perturb"."""
    payload = seed.to_bytes(8, "little") + (x // 8).to_bytes(8, "little")
    digest = hashlib.blake2b(payload, digest_size=64, person=b"perturb").digest()
    return int.from_bytes(digest[8 * (x % 8):8 * (x % 8) + 8], "little")


def _reference_keeps(mode, members, p, seed, x):
    """The keep rule: a mangat member is kept and reads no word; any other
    element is kept when its word's top 53 bits, read as a uniform in
    [0, 1), are below p (a warner member) or 1 - p (a non-member)."""
    if x in members:
        if mode == MANGAT:
            return True
        q = p
    else:
        q = 1.0 - p
    return (_reference_word(seed, x) >> 11) / 2.0 ** 53 < q


def _loop_perturb(mode, members, size, p, seed):
    """Randomized response restated as a plain loop over the universe, one
    keep decision per element."""
    return frozenset(x for x in range(size) if _reference_keeps(mode, members, p, seed, x))


_SEEDS = st.integers(0, (1 << 64) - 1)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from([MANGAT, WARNER]),
    size=st.integers(1, 300),
    p=st.floats(0.51, 0.99),
    seed=_SEEDS,
    data=st.data(),
)
def test_perturbation_matches_plain_loop(mode, size, p, seed, data):
    members = data.draw(st.sets(st.integers(0, size - 1), max_size=size))
    got = perturb(members, Universe(size), PrivacyParams(mode, p), seed)
    assert got.members == _loop_perturb(mode, members, size, p, seed)
    assert isinstance(got.members, frozenset) and got.original_size == len(members)


_P_RANGE = {
    MANGAT: st.floats(0.0, 1.0, exclude_min=True),
    WARNER: st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
}


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from([MANGAT, WARNER]), size=st.integers(1, 300),
       seed=_SEEDS, data=st.data())
def test_undrawn_membership_matches_the_drawn_set(mode, size, seed, data):
    p = data.draw(st.one_of(st.just(1.0), _P_RANGE[MANGAT]) if mode == MANGAT else _P_RANGE[WARNER])
    members = data.draw(st.sets(st.integers(0, size - 1), max_size=size))
    params, universe = PrivacyParams(mode, p), Universe(size)
    drawn = _loop_perturb(mode, members, size, p, seed)
    assert perturb(members, universe, params, seed).members == drawn
    for x in [*range(size), -1, size, 3.0, True, "a"]:
        fresh = perturb(members, universe, params, seed)
        assert (x in fresh) == (x in drawn)
    fresh = perturb(members, universe, params, seed)
    assert all((x in fresh) == (x in drawn) for x in range(size))
    assert fresh._members is None  # answered from single blocks, nothing drawn
    eager = PerturbedSet(drawn, mode, p, len(members))
    assert perturb(members, universe, params, seed) == eager
    assert hash(perturb(members, universe, params, seed)) == hash(eager)
    assert pickle.loads(pickle.dumps(perturb(members, universe, params, seed))) == eager
    assert len(perturb(members, universe, params, seed)) == len(drawn)


@given(q=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 2.0 ** -53, 0.25, 0.5, 1.0 - 2.0 ** -53, 1.0])))
def test_the_integer_bound_keeps_exactly_the_words_whose_uniform_is_below_q(q):
    """The full draw compares words with ``privacy._threshold(q)``; the rule
    reads the word's top 53 bits as a uniform. The two agree on either side
    of the bound, so everywhere."""
    bound = privacy._threshold(q)
    for w in (bound - 2048, bound - 1, bound, bound + 2047):
        if 0 <= w < 1 << 64:
            assert (w < bound) == ((w >> 11) / 2.0 ** 53 < q)


@pytest.mark.parametrize("seed", [0, 5])
def test_a_mangat_probe_below_every_member_reads_its_own_draw(seed):
    """Probes 0 and 1 lie below both members {2, 3} and probes 4 and 5 above
    them; each reads its own word of block 0, however many members lie below
    it. The two seeds put words 4 and 5 on either side of 1 - p, each unlike
    words 2 and 3, so a probe that reads the word of its rank among the
    non-members (word 2 for 4, word 3 for 5), or its neighbour's word,
    answers wrongly."""
    below = [_reference_keeps(MANGAT, set(), 0.5, seed, x) for x in range(6)]  # word x below 1 - p
    assert below[4] != below[5] and below[2] != below[4] and below[3] != below[5]
    params, universe = PrivacyParams(MANGAT, 0.5), Universe(6)
    drawn = _loop_perturb(MANGAT, {2, 3}, 6, 0.5, seed)
    assert drawn == {2, 3} | {x for x in (0, 1, 4, 5) if below[x]}
    assert perturb({2, 3}, universe, params, seed).members == drawn
    for x in range(6):
        assert (x in perturb({2, 3}, universe, params, seed)) == (x in drawn)


@pytest.mark.parametrize("members", [set(), {7, 8}])
@pytest.mark.parametrize("mode,p", [(MANGAT, 0.5), (WARNER, 0.75)])
def test_probes_at_block_edges_of_the_largest_universe_match_the_reference(mode, p, members):
    """At u = 2**20, the first and last words of block 0, the first word of
    block 1 and the last element of the universe, probed one at a time and
    read from the drawn set. With no members each probe reads its word under
    1 - p; members 7 and 8, on the edge between blocks 0 and 1, read theirs
    under p (warner) or are kept unread (mangat)."""
    universe, params = Universe(ENUMERATION_CAP), PrivacyParams(mode, p)
    seed = mix_seed(31, "block-edges", 0)
    probes = (0, 7, 8, ENUMERATION_CAP - 1)
    expected = [_reference_keeps(mode, members, p, seed, x) for x in probes]
    lazy = perturb(members, universe, params, seed)
    assert [x in lazy for x in probes] == expected
    assert lazy._members is None
    drawn = perturb(members, universe, params, seed).members
    assert [x in drawn for x in probes] == expected


@pytest.mark.parametrize("mode,p", [(MANGAT, 0.5), (WARNER, 0.75)])
@pytest.mark.parametrize("seed", [0, 1, 1 << 32, (1 << 63) + 5, (1 << 64) - 1, 0x0123456789ABCDEF])
def test_probe_matches_the_drawn_set_for_any_seed(mode, p, seed):
    """Every seed in [0, 2**64), both ends included: the probe, the drawn
    members and the plain loop over the reference words agree."""
    members, universe, params = {0, 3, 17, 40}, Universe(48), PrivacyParams(mode, p)
    drawn = _loop_perturb(mode, members, universe.size, p, seed)
    assert perturb(members, universe, params, seed).members == drawn
    assert all((x in perturb(members, universe, params, seed)) == (x in drawn)
               for x in range(universe.size))
    assert perturb(frozenset(members), universe, params, seed).members == drawn


@pytest.mark.parametrize("perturb_one", [mangat_perturb, warner_perturb])
@pytest.mark.parametrize("seed", [-1, -(1 << 70) - 3, 1 << 64, (1 << 64) + 12345, 1 << 200,
                                  True, False, b"bytes seed", "str seed", 7.0, None])
def test_perturbation_refuses_a_seed_outside_its_domain(perturb_one, seed):
    """A seed is an int in [0, 2**64): a negative or wider int, a bool, str,
    bytes, float or None is refused before any member is read, so s and -s
    can no longer name one perturbation."""
    with pytest.raises(ParameterError, match=r"^perturbation seed must be an int in \[0, 2\*\*64\), not "):
        perturb_one(_Unreadable(), Universe(48), 0.75, seed)


def test_distinct_seeds_draw_distinct_sets():
    """Seeds that differ in one bit, in the low or the high word, or at the
    ends of the domain draw different sets: the seed enters the digest whole."""
    seeds = [0, 1, 2, 1 << 32, 1 << 63, (1 << 64) - 1, (1 << 64) - 2, mix_seed(5, "distinct", 0)]
    for mode, p in ((MANGAT, 0.5), (WARNER, 0.75)):
        drawn = {perturb(range(8), Universe(256), PrivacyParams(mode, p), s).members for s in seeds}
        assert len(drawn) == len(seeds)


@pytest.mark.parametrize("mode,p", [(MANGAT, 0.5), (WARNER, 0.75)])
@pytest.mark.parametrize("size", [47, 1001, 4099])
def test_keep_decisions_pass_a_chi_square_test(mode, p, size):
    """Keep counts over 300 seeds, per element and pooled by word slot x % 8,
    against their binomial expectations. No size is a multiple of 8, so
    the last block is read in part. Critical values at level 0.999, fixed
    before the test was first run; mangat members are kept always and left out."""
    trials, members = 300, frozenset(range(0, size, 7))
    params, universe = PrivacyParams(mode, p), Universe(size)
    counts = [0] * size
    for i in range(trials):
        for x in perturb(members, universe, params, mix_seed(2024, "chi-square", i)).members:
            counts[x] += 1
    deviation, variance = [0.0] * 8, [0.0] * 8
    per_element = 0.0
    for x in range(size):
        if mode == MANGAT and x in members:
            assert counts[x] == trials
            continue
        q = p if x in members else 1.0 - p
        dev, var = counts[x] - trials * q, trials * q * (1.0 - q)
        per_element += dev * dev / var
        deviation[x % 8] += dev
        variance[x % 8] += var
    df = size - (len(members) if mode == MANGAT else 0)
    assert per_element < chi2.ppf(0.999, df)
    per_slot = sum(d * d / v for d, v in zip(deviation, variance))
    assert per_slot < chi2.ppf(0.999, 8)


def test_budget_closed_forms():
    p = 0.5
    b = privacy_budget(PrivacyParams(MANGAT, p))
    assert b.epsilon == pytest.approx(math.log(1.0 / (1.0 - p)))
    assert b.epsilon_prime == pytest.approx(math.log(1.0 - p))
    assert b.delta == 0.0 and not b.symmetric

    w = privacy_budget(PrivacyParams(WARNER, 0.75))
    assert w.epsilon == pytest.approx(math.log(0.75 / 0.25))
    assert w.epsilon_prime is None  # one bound covers both directions
    assert w.symmetric

    degenerate = privacy_budget(PrivacyParams(MANGAT, 1.0))
    assert degenerate.epsilon == math.inf
    assert degenerate.epsilon_prime == -math.inf

    weak = privacy_budget(PrivacyParams(MANGAT, 1e-9))
    assert abs(weak.epsilon) < 2e-9


def test_expected_fnr():
    assert expected_fnr(MANGAT, 0.4) == 0.0
    assert expected_fnr(WARNER, 0.75) == pytest.approx(0.25)


def test_private_filter_mangat_complete():
    u = Universe(128)
    members = set(range(0, 128, 16))
    fparams = FilterParams(m=256, k=4, n=len(members))
    privacy = PrivacyParams(MANGAT, 0.6)
    for seed in range(300):
        filt = build_private_filter(members, u, fparams, privacy, seed)
        assert all(filt.query(x) == 1 for x in members)


def test_private_filter_p_one_equals_plain_build():
    u = Universe(64)
    members = {2, 17, 40}
    fparams = FilterParams(m=128, k=3, n=3)
    private = build_private_filter(members, u, fparams, PrivacyParams(MANGAT, 1.0), 7)
    plain = BloomFilter.build(members, fparams, HashFamily.public(), u)
    assert private.bit_bytes() == plain.bit_bytes()


def test_warner_member_negative_rate():
    u = Universe(100)
    members = set(range(20))
    fparams = FilterParams(m=1024, k=5, n=30)
    est = measure_member_negative_rate(members, u, fparams, PrivacyParams(WARNER, 0.75), 4000, seed=3)
    assert est.trials == 4000
    assert abs(est.rate - 0.25) < 4 * est.se
    assert est.se < 0.01


def test_mangat_member_negative_rate_is_zero():
    u = Universe(100)
    members = set(range(10))
    fparams = FilterParams(m=512, k=4, n=40)
    est = measure_member_negative_rate(members, u, fparams, PrivacyParams(MANGAT, 0.5), 500, seed=3)
    assert est.rate == 0.0


def test_audit_mangat_removal():
    report = audit_perturbation(
        PrivacyParams(MANGAT, 0.5), set(range(8)), Universe(64), x=0,
        trials=20_000, seed=101,
    )
    assert report.verdict == "pass"
    assert report.prob_with == 1.0
    assert report.ratio_lo <= 2.0 <= report.ratio_hi


def test_audit_warner_removal():
    report = audit_perturbation(
        PrivacyParams(WARNER, 0.75), set(range(8)), Universe(64), x=0,
        trials=20_000, seed=202,
    )
    assert report.verdict == "pass"
    assert report.ratio_lo <= 3.0 <= report.ratio_hi


def test_audit_reverse_direction():
    mang = audit_perturbation(
        PrivacyParams(MANGAT, 0.5), set(range(8)), Universe(64), x=0,
        trials=8_000, seed=9, direction="reverse",
    )
    assert mang.verdict == "pass"
    assert mang.ratio_lo <= 0.5 <= mang.ratio_hi
    warn = audit_perturbation(
        PrivacyParams(WARNER, 0.75), set(range(8)), Universe(64), x=0,
        trials=8_000, seed=9, direction="reverse",
    )
    assert warn.verdict == "pass"
    assert warn.ratio_lo <= 1.0 / 3.0 <= warn.ratio_hi


def test_audit_requires_member_target():
    with pytest.raises(ParameterError):
        audit_perturbation(PrivacyParams(MANGAT, 0.5), {1, 2}, Universe(16), x=5, trials=10, seed=0)


def test_dp_audit_identical_inputs_ratio_one():
    members = frozenset(range(6))

    def mech(s, seed):
        return perturb(s, Universe(32), PrivacyParams(MANGAT, 0.5), seed).members

    report = dp_audit(mech, members, members, x=0, trials=4000, epsilon_claimed=0.1, seed=5)
    assert report.verdict == "pass"
    assert report.ratio_point == pytest.approx(1.0, abs=1e-9)


def test_dp_audit_zero_denominator_is_inconclusive():
    def identity(s, seed):
        return set(s)

    report = dp_audit(identity, {5}, set(), x=5, trials=500, epsilon_claimed=1.0, seed=1)
    assert report.verdict == "inconclusive"
    assert math.isnan(report.ratio_point)
    assert report.prob_without == 0.0


def test_dp_audit_flags_a_leaky_mechanism():
    """A mechanism that never adds noise should fail any finite claim."""

    def leaky(s, seed):
        return set(s)

    report = dp_audit(leaky, {5, 6}, {6}, x=5, trials=2000, epsilon_claimed=0.5, seed=2)
    assert report.verdict == "inconclusive" or report.ratio_lo > math.exp(0.5)
    assert report.verdict != "pass"


@pytest.mark.parametrize("mode,p", [
    (MANGAT, 0.2), (MANGAT, 0.5), (MANGAT, 0.8),
    (WARNER, 0.6), (WARNER, 0.75), (WARNER, 0.9),
])
def test_audit_never_fails_honest_perturbation(mode, p):
    report = audit_perturbation(
        PrivacyParams(mode, p), set(range(6)), Universe(48), x=2,
        trials=1500, seed=77,
    )
    assert report.verdict != "fail"


def test_fpr_excluding_injected_elements():
    u = Universe(256)
    members = set(range(16))
    fparams = FilterParams(m=512, k=3, n=16)
    privacy = PrivacyParams(MANGAT, 0.5)
    out = measure_fpr_excluding_injected(members, u, fparams, privacy, trials=400,
                                         queries_per_trial=50, seed=8)
    mean_size = 16 + 0.5 * (256 - 16)
    assert abs(out.mean_perturbed_size - mean_size) < 3.0
    assert out.expected == pytest.approx(expected_fpr(fparams, n_effective=out.mean_perturbed_size))
    assert abs(out.rate - out.expected) < 0.05
    assert out.queries == 400 * 50


def _reference_member_negative_rate(members, universe, fparams, params, trials, seed):
    """The per-trial loop written out, with its seeds derived inline."""
    members = sorted(set(members))
    per_trial = []
    for t in range(trials):
        filt = build_private_filter(members, universe, fparams, params, mix_seed(seed, "fnr", t))
        per_trial.append(sum(1 - filt.query(x) for x in members) / len(members))
    return FnrEstimate(math.fsum(per_trial) / trials, standard_error(per_trial), trials)


def _reference_fpr_excluding_injected(members, universe, fparams, params, trials, queries_per_trial, seed):
    """The per-trial loop written out, with both of its seeds derived inline."""
    members = set(members)
    hits = total = 0
    sizes = []
    for t in range(trials):
        perturbed = perturb(members, universe, params, mix_seed(seed, "private-fpr", t))
        filt = BloomFilter.build(perturbed.members, fparams, HashFamily.public(), universe)
        rng = random.Random(mix_seed(seed, "private-fpr-queries", t))
        excluded = set(perturbed.members) | members
        sizes.append(len(perturbed))
        if len(excluded) >= universe.size:
            continue
        for _ in range(queries_per_trial):
            hits += filt.query(universe.sample_outside(rng, excluded))
            total += 1
    mean_size = math.fsum(sizes) / len(sizes)
    return FprWithInjected(hits / total, expected_fpr(fparams, mean_size), mean_size, total)


@pytest.mark.parametrize("mode,p", [(MANGAT, 0.9), (MANGAT, 0.2), (WARNER, 0.75), (WARNER, 0.55)])
@pytest.mark.parametrize("seed", [0, 7, 31337])
def test_private_filter_estimates_match_their_written_out_loops(mode, p, seed):
    """Pins both library estimators, which no golden digest covers: a moved
    seed tag or trial index changes the numbers. At mangat p=0.2 some trials
    inject every non-member of the small universe and are skipped."""
    params = PrivacyParams(mode, p)
    fparams = FilterParams(m=48, k=3, n=6)
    for universe, members in ((Universe(12), range(6)), (Universe(96), range(0, 30, 5))):
        assert measure_member_negative_rate(members, universe, fparams, params, 25, seed) == \
            _reference_member_negative_rate(members, universe, fparams, params, 25, seed)
        assert measure_fpr_excluding_injected(members, universe, fparams, params, 25, 7, seed) == \
            _reference_fpr_excluding_injected(members, universe, fparams, params, 25, 7, seed)


def test_private_filter_estimates_refuse_bad_counts():
    u, members, fparams = Universe(64), {1, 2, 3}, FilterParams(m=64, k=3, n=3)
    params = PrivacyParams(MANGAT, 0.5)
    with pytest.raises(ParameterError, match=r"^trials must be >= 1$"):
        measure_member_negative_rate(members, u, fparams, params, trials=0, seed=1)
    with pytest.raises(ParameterError, match=r"^trials must be >= 1$"):
        measure_fpr_excluding_injected(members, u, fparams, params, trials=0, queries_per_trial=5, seed=1)
    for queries in (0, -2):
        with pytest.raises(ParameterError, match=r"^queries_per_trial must be >= 1$"):
            measure_fpr_excluding_injected(members, u, fparams, params, trials=3,
                                           queries_per_trial=queries, seed=1)


def test_refusals_of_the_closed_forms_and_the_audit():
    with pytest.raises(ParameterError, match=r"^need 0 <= set size <= universe size$"):
        expected_cardinality(MANGAT, 65, 64, 0.5)
    with pytest.raises(ParameterError, match=r"^need 0 <= set size <= universe size$"):
        expected_cardinality(WARNER, -1, 64, 0.75)
    with pytest.raises(ParameterError, match=r"^unknown audit direction 'sideways'$"):
        audit_perturbation(PrivacyParams(MANGAT, 0.5), {0, 1}, Universe(16), 0, trials=10, seed=1,
                           direction="sideways")
