"""Seed derivation, the counter-mode draw stream and interval helpers."""

import copy
import hashlib
import pickle
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from bloomlab import filic, filters, games, privacy
from bloomlab.errors import ParameterError
from bloomlab.filic import NullAdversary, OracleBudget, estimate_advantage, simulator_factory
from bloomlab.filters import PUBLIC, FilterParams, Universe, estimate_fpr, filter_factory
from bloomlab.games import (
    GameConfig,
    SaturationAdversary,
    UniformAdversary,
    run_ab_experiment,
    run_bp_experiment,
    saturation_frequency,
)
from bloomlab.privacy import (
    MANGAT,
    PrivacyParams,
    dp_audit,
    measure_fpr_excluding_injected,
    measure_member_negative_rate,
)
from bloomlab.stats import (
    Z99,
    DrawStream,
    floored_binomial_se,
    mean_confidence_interval,
    mix_seed,
    run_trials,
    seed_stream,
    standard_error,
    wilson_interval,
)


def test_mix_seed_depends_on_every_input():
    base = mix_seed(1, "tag", 0)
    assert mix_seed(1, "tag", 0) == base
    assert mix_seed(2, "tag", 0) != base
    assert mix_seed(1, "gat", 0) != base
    assert mix_seed(1, "tag", 1) != base
    assert 0 <= base < 1 << 64


def _reference_mix(master_seed, tag, index):
    """The documented mix in one blake2b call over the whole payload."""
    payload = (struct.pack("<Q", master_seed % (1 << 64)) + tag.encode("utf-8")
               + struct.pack("<Q", index % (1 << 64)))
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def test_mix_seed_pinned_values():
    assert mix_seed(0, "", 0) == 1041621211125469266
    assert mix_seed(4242, "audit-with", 3999) == 11040617262222084935
    assert mix_seed((1 << 64) - 1, "Prüfung-試験", (1 << 64) - 1) == 8426546506688896314
    assert mix_seed(-1, "x", -5) == 18445583596212363091


@settings(max_examples=100, deadline=None)
@given(master_seed=st.integers(-(1 << 70), 1 << 70), tag=st.text(max_size=40),
       indices=st.lists(st.integers(-(1 << 70), 1 << 70), max_size=20))
def test_seed_stream_matches_mix_seed(master_seed, tag, indices):
    stream = seed_stream(master_seed, tag)
    for index in [*range(50), *indices]:
        expected = _reference_mix(master_seed, tag, index)
        assert stream(index) == mix_seed(master_seed, tag, index) == expected


@settings(max_examples=200, deadline=None)
@given(master_seed=st.one_of(st.integers(-(1 << 70), -1), st.integers(1 << 64, 1 << 70),
                             st.integers(0, (1 << 64) - 1)),
       tag=st.one_of(st.text(max_size=40),
                     st.text(st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
                             min_size=1, max_size=20)),
       index=st.one_of(st.integers(-(1 << 70), -1), st.integers(0, 1 << 70)))
def test_mix_seed_is_the_stream_seed(master_seed, tag, index):
    """One digest of the whole payload equals the stream's absorbed state
    fed the index: negative seeds and indices, seeds of 2**64 and more, and
    non-ASCII tags included."""
    assert mix_seed(master_seed, tag, index) == seed_stream(master_seed, tag)(index)


def test_unencodable_tag_is_refused_alike():
    """A lone surrogate has no UTF-8 form, so neither seed derivation takes it."""
    with pytest.raises(UnicodeEncodeError):
        mix_seed(1, "\ud800", 0)
    with pytest.raises(UnicodeEncodeError):
        seed_stream(1, "\ud800")


class _ReferenceStream:
    """The draw stream and its rule, from scratch: block c is the keyed,
    personalised 64-byte blake2b digest of c as 8 little-endian bytes, the
    stream is the blocks in order, and a draw below m reads (w + 7) // 8
    bytes, w = (m - 1).bit_length(), little-endian, keeps the low w bits and
    is drawn again while >= m. One byte string, one draw at a time."""

    def __init__(self, key, person):
        self.key, self.person, self.data, self.position = key, person, b"", 0

    def read(self, n):
        while len(self.data) < self.position + n:
            c = len(self.data) // 64
            self.data += hashlib.blake2b(c.to_bytes(8, "little"), key=self.key, digest_size=64,
                                         person=self.person).digest()
        self.position += n
        return self.data[self.position - n:self.position]

    def below(self, m, count):
        width = (m - 1).bit_length()
        draws = []
        while len(draws) < count:
            value = int.from_bytes(self.read((width + 7) // 8), "little") % (1 << width)
            if value < m:
                draws.append(value)
        return draws


_WIDTHS = st.one_of(
    st.integers(1, 300),
    st.integers(1, 64).flatmap(lambda w: st.integers((1 << (w - 1)) + 1, 1 << w)),
    st.sampled_from([37, 256, 257, 65536, 65537, (1 << 24) + 1, (1 << 64) + 1]),
)


@settings(max_examples=300, deadline=None)
@given(
    key=st.binary(max_size=64),
    person=st.binary(max_size=16),
    calls=st.lists(st.one_of(st.tuples(st.just("read"), st.integers(0, 150)),
                             st.tuples(_WIDTHS, st.integers(0, 90))), max_size=8),
)
@example(key=b"k", person=b"p", calls=[(8, 60), (8, 3), (8, 3), ("read", 1), (37, 40), (65537, 30)])
@example(key=b"", person=b"", calls=[(1, 50), (2, 64), (3, 1), ("read", 0), (3, 100)])
def test_draw_stream_matches_the_reference_rule(key, person, calls):
    """Reads and draws below m, in any mix and split into any calls, are the
    from-scratch stream and rule, continuing where the last call stopped."""
    stream, reference = DrawStream(key, person), _ReferenceStream(key, person)
    for m, count in calls:
        if m == "read":
            assert stream.read(count) == reference.read(count)
        else:
            got = stream.below(m, count)
            assert list(got) == reference.below(m, count)
            assert type(got) is (bytes if m <= 256 else list)
        assert stream.position == reference.position


def test_a_draw_below_one_reads_nothing():
    stream = DrawStream(b"k", b"p")
    assert stream.below(1, 5) == bytes(5) and stream.position == 0
    stream.below(2, 1)
    assert stream.below(1, 3) == bytes(3) and stream.position == 1


def test_draw_streams_compare_copy_and_pickle_by_key_person_and_position():
    stream = DrawStream(b"key", b"person")
    assert stream == DrawStream(b"key", b"person")
    assert stream != DrawStream(b"kez", b"person") and stream != DrawStream(b"key", b"persoo")
    stream.below(1000, 33)
    assert stream != DrawStream(b"key", b"person")
    assert stream == DrawStream(b"key", b"person", stream.position)
    twins = copy.copy(stream), copy.deepcopy(stream), pickle.loads(pickle.dumps(stream))
    for twin in twins:
        assert twin == stream and twin is not stream
    ahead = [list(stream.below(m, 25)) for m in (8, 70000, 3)]
    for twin in twins:
        assert [list(twin.below(m, 25)) for m in (8, 70000, 3)] == ahead and twin == stream


def test_draw_stream_refuses_a_key_longer_than_blake2b_takes():
    assert DrawStream(b"x" * 64, b"p").below(256, 1)
    with pytest.raises(ParameterError, match="at most 64 bytes"):
        DrawStream(b"x" * 65, b"p")


# Significance of each uniformity test, fixed before the first run: 11 widths
# at 0.001 each make a false alarm about 1% likely for a given key.
_CHI_ALPHA = 0.001


@pytest.mark.parametrize("m", [2, 3, 7, 8, 37, 64, 255, 256, 257, 1000, 65537])
def test_draws_below_m_pass_a_chi_square_test(m):
    """Counts of draws below m, taken in calls of 1 to 97 draws, against the
    uniform distribution: per value for m <= 1000, and per residue mod 257
    (exact expected counts) for m = 65537. Every draw is below m."""
    cells = m if m <= 1000 else 257
    expected = [(m - c + cells - 1) // cells for c in range(cells)]  # values v < m with v % cells == c
    samples = 100 * cells
    stream, counts, drawn, size = DrawStream(b"chi-square", b"uniformity"), [0] * cells, 0, 1
    while drawn < samples:
        got = stream.below(m, min(size, samples - drawn))
        assert max(got) < m
        for v in got:
            counts[v % cells] += 1
        drawn += len(got)
        size = size % 97 + 1
    statistic = sum((counts[c] - samples * e / m) ** 2 / (samples * e / m) for c, e in enumerate(expected))
    assert statistic < chi2.ppf(1 - _CHI_ALPHA, cells - 1)


def test_wilson_interval_contains_point_estimate():
    for successes, trials in ((0, 10), (5, 10), (10, 10), (73, 10_000)):
        lo, hi = wilson_interval(successes, trials)
        assert 0.0 <= lo <= successes / trials <= hi <= 1.0
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0.0


def test_wilson_interval_narrows_with_trials():
    lo1, hi1 = wilson_interval(50, 100)
    lo2, hi2 = wilson_interval(5000, 10_000)
    assert (hi2 - lo2) < (hi1 - lo1)


def test_wilson_rejects_bad_counts():
    with pytest.raises(Exception):
        wilson_interval(5, 0)
    with pytest.raises(Exception):
        wilson_interval(11, 10)


def test_mean_confidence_interval():
    values = [1.0, 2.0, 3.0, 4.0]
    mean, lo, hi = mean_confidence_interval(values)
    assert mean == pytest.approx(2.5)
    se = standard_error(values)
    assert lo == pytest.approx(mean - Z99 * se)
    assert hi == pytest.approx(mean + Z99 * se)
    const_mean, const_lo, const_hi = mean_confidence_interval([7.0, 7.0, 7.0])
    assert const_mean == const_lo == const_hi == 7.0


def test_one_value_interval_degenerates():
    mean, lo, hi = mean_confidence_interval([3.5])
    assert mean == 3.5 and lo == 3.5 and hi == 3.5


def test_floored_binomial_se_floors_the_variance_at_one_over_trials():
    """sqrt(max(r(1 - r), 1/n) / n): at r = 0 and r = 1 the floor 1/n gives
    1/n; inside, r(1 - r) does once it exceeds 1/n. Powers of two keep every
    value exact."""
    assert floored_binomial_se(0.0, 16) == 0.0625
    assert floored_binomial_se(1.0, 16) == 0.0625
    assert floored_binomial_se(0.5, 16) == 0.125


def test_run_trials_feeds_each_trial_its_mixed_seed_in_order():
    for master_seed, tag, trials in ((0, "", 1), (42, "ab-trial", 6), (-3, "Prüfung", 4)):
        seeds = [mix_seed(master_seed, tag, i) for i in range(trials)]
        assert list(run_trials(lambda s: s, master_seed, tag, trials)) == seeds
        assert list(run_trials(lambda s: s % 1000, master_seed, tag, trials)) == [s % 1000 for s in seeds]


def test_run_trials_calls_nothing_until_iterated():
    calls = []
    results = run_trials(lambda s: calls.append(s) or len(calls), 9, "lazy", 3)
    assert calls == []
    assert next(results) == 1 and calls == [mix_seed(9, "lazy", 0)]
    assert list(results) == [2, 3]
    assert calls == [mix_seed(9, "lazy", i) for i in range(3)]


def _refusal(trials) -> str:
    """The message ``run_trials`` refuses ``trials`` with."""
    if type(trials) is int:
        return r"^trials must be >= 1$"
    return rf"^trials must be an int, not {type(trials).__name__}$"


# True once ran one trial, and 2.5 or "3" raised TypeError.
@pytest.mark.parametrize("trials", [0, -1, -(1 << 70), True, False, 2.5, 3.0, "3", None])
def test_run_trials_refuses_a_bad_count_when_called(trials):
    calls = []
    with pytest.raises(ParameterError, match=_refusal(trials)):
        run_trials(calls.append, 1, "eager", trials)  # never iterated: the refusal is eager
    assert calls == []


def _estimator_at(name, trials=0):
    """A call of the named estimator with every argument valid but ``trials``."""
    universe = Universe(64)
    params = FilterParams(m=64, k=3, n=4)
    cfg = GameConfig(universe=universe, n=4, t=2, threshold=0.5)
    factory = filter_factory(params, universe, PUBLIC)
    audit_params = PrivacyParams(MANGAT, 0.5)
    members = frozenset(range(4))
    return {
        "run_ab_experiment": lambda: run_ab_experiment(factory, UniformAdversary(), cfg, trials, 1),
        "run_bp_experiment": lambda: run_bp_experiment(factory, SaturationAdversary(), cfg, trials, 1),
        "saturation_frequency": lambda: saturation_frequency(64, 3, 4, trials, 1),
        "estimate_fpr": lambda: estimate_fpr(params, universe, PUBLIC, trials, 100, 1),
        "dp_audit": lambda: dp_audit(lambda s, sd: privacy.perturb(s, universe, audit_params, sd),
                                     members, members - {0}, 0, trials, 1.0, 1),
        "measure_member_negative_rate": lambda: measure_member_negative_rate(
            members, universe, params, audit_params, trials, 1),
        "measure_fpr_excluding_injected": lambda: measure_fpr_excluding_injected(
            members, universe, params, audit_params, trials, 10, 1),
        "estimate_advantage": lambda: estimate_advantage(
            NullAdversary(universe, 4), factory, simulator_factory(params), OracleBudget(1, 1, 1), trials, 1),
    }[name]


ESTIMATORS = ("run_ab_experiment", "run_bp_experiment", "saturation_frequency", "estimate_fpr",
              "dp_audit", "measure_member_negative_rate", "measure_fpr_excluding_injected",
              "estimate_advantage")


def _record_trial_entry_points(monkeypatch) -> list:
    """Replace every per-trial entry point with one that records its name."""
    calls = []
    for module, attr in ((games, "run_ab_test"), (games, "run_bp_test"), (filic, "run_real"),
                         (filic, "run_ideal"), (privacy, "mangat_perturb"), (privacy, "warner_perturb"),
                         (filters.BloomFilter, "build")):
        monkeypatch.setattr(module, attr, lambda *args, _attr=attr, **kwargs: calls.append(_attr))
    return calls


@pytest.mark.parametrize("trials", [0, True, 2.5, "3"])
@pytest.mark.parametrize("name", ESTIMATORS)
def test_every_estimator_refuses_a_bad_trial_count_before_any_trial(monkeypatch, name, trials):
    """Each Monte Carlo estimator runs through ``run_trials``: at ``trials=0``,
    or a count that is not an int, it raises its refusal and none of the
    per-trial entry points runs."""
    calls = _record_trial_entry_points(monkeypatch)
    estimator = _estimator_at(name, trials)
    with pytest.raises(ParameterError, match=_refusal(trials)):
        estimator()
    assert calls == []


@pytest.mark.parametrize("queries", [True, 3000.0, "3000"])
@pytest.mark.parametrize("name, count", [("estimate_fpr", "queries"),
                                         ("measure_fpr_excluding_injected", "queries_per_trial")])
def test_fpr_estimators_refuse_a_query_count_that_is_not_an_int_before_any_trial(monkeypatch, name, count,
                                                                                 queries):
    """True once ran one query per build, and 3000.0 or "3000" raised TypeError."""
    calls = _record_trial_entry_points(monkeypatch)
    params, universe = FilterParams(m=64, k=3, n=4), Universe(64)
    estimator = {
        "estimate_fpr": lambda: estimate_fpr(params, universe, PUBLIC, 1, queries, 1),
        "measure_fpr_excluding_injected": lambda: measure_fpr_excluding_injected(
            frozenset(range(4)), universe, params, PrivacyParams(MANGAT, 0.5), 1, queries, 1),
    }[name]
    with pytest.raises(ParameterError, match=rf"^{count} must be an int, not {type(queries).__name__}$"):
        estimator()
    assert calls == []
