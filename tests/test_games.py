"""Adaptive membership games, saturation analysis, profit accounting."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomlab.errors import DomainError, ParameterError, UnsupportedOperationError
from bloomlab.filic import OracleBudget, ab_to_filic_adversary, run_ideal, run_real, simulator_factory
from bloomlab.filters import TRUE_RANDOM, FilterParams, Universe, expected_fpr, filter_factory
from bloomlab.games import (
    SATURATION_CAP,
    Adversary,
    GameConfig,
    SaturationAdversary,
    UniformAdversary,
    expected_profit_formula,
    profit_lower_bound,
    run_ab_experiment,
    run_ab_test,
    run_bp_experiment,
    run_bp_test,
    choose_members,
    saturation_frequency,
    saturation_probability,
)


def _coverage_distribution(m, throws):
    """Distribution of distinct bits covered by uniform throws.

    Independent of the library's inclusion-exclusion: a one-step occupancy
    recurrence, used as an oracle.
    """
    dist = [0.0] * (m + 1)
    dist[0] = 1.0
    for _ in range(throws):
        nxt = [0.0] * (m + 1)
        for c, pr in enumerate(dist):
            if pr == 0.0:
                continue
            nxt[c] += pr * (c / m)
            if c < m:
                nxt[c + 1] += pr * ((m - c) / m)
        dist = nxt
    return dist


class _FixedAnswerFilter:
    def __init__(self, answer):
        self.answer = answer

    def query(self, x):
        return self.answer

    def is_saturated(self):
        return self.answer == 1


def _fixed_factory(answer):
    return lambda members, rng: _FixedAnswerFilter(answer)


class _Scripted(Adversary):
    def __init__(self, members, queries=(), bet=1, target=None):
        self._members = set(members)
        self._queries = list(queries)
        self._bet = bet
        self._target = target

    def choose_set(self):
        return set(self._members)

    def next_query(self, history):
        if len(history) < len(self._queries):
            return self._queries[len(history)]
        return None

    def finalize(self, history):
        return self._bet, self._target


def test_config_validation():
    u = Universe(64)
    GameConfig(universe=u, n=4, t=2, threshold=0.5)
    with pytest.raises(ParameterError):
        GameConfig(universe=u, n=0, t=2, threshold=0.5)
    with pytest.raises(ParameterError):
        GameConfig(universe=u, n=4, t=-1, threshold=0.5)
    with pytest.raises(ParameterError):
        GameConfig(universe=u, n=4, t=2, threshold=1.0)
    with pytest.raises(ParameterError):
        GameConfig(universe=Universe(5), n=4, t=2, threshold=0.5)  # no room for target


@pytest.mark.parametrize("n, t, name, kind", [(2.5, 2, "n", "float"), (True, 2, "n", "bool"),
                                              (4, 1.5, "t", "float")])
def test_game_config_refuses_a_count_that_is_not_an_int(n, t, name, kind):
    with pytest.raises(ParameterError, match=rf"^{name} must be an int, not {kind}$"):
        GameConfig(universe=Universe(64), n=n, t=t, threshold=0.5)


def test_transcript_shape_uniform_adversary():
    u = Universe(4096)
    cfg = GameConfig(universe=u, n=10, t=6, threshold=0.5)
    params = FilterParams(m=128, k=3, n=10)
    transcript = run_ab_test(filter_factory(params, u), UniformAdversary(), cfg, seed=5).transcript
    assert len(transcript.members) == 10
    assert len(transcript.queries) == 6
    assert len(set(transcript.queries)) == 6
    assert not set(transcript.queries) & transcript.members
    assert all(a in (0, 1) for a in transcript.answers)
    assert not transcript.forfeited


def test_zero_probe_budget():
    u = Universe(256)
    cfg = GameConfig(universe=u, n=3, t=0, threshold=0.5)
    adv = _Scripted(members={1, 2, 3}, queries=[9, 10], bet=1, target=50)
    out = run_ab_test(_fixed_factory(1), adv, cfg, seed=0)
    assert out.transcript.queries == []  # probe budget ignored the script
    assert out.win == 1


def test_forfeit_on_member_query():
    u = Universe(256)
    cfg = GameConfig(universe=u, n=3, t=2, threshold=0.5)
    adv = _Scripted(members={1, 2, 3}, queries=[2], target=50)
    out = run_ab_test(_fixed_factory(1), adv, cfg, seed=0)
    assert out.transcript.forfeited
    assert out.transcript.forfeit_reason == "queried a member"
    assert out.win == 0


def test_forfeit_on_repeated_query():
    u = Universe(256)
    cfg = GameConfig(universe=u, n=3, t=3, threshold=0.5)
    adv = _Scripted(members={1, 2, 3}, queries=[7, 7], target=50)
    run = run_bp_test(_fixed_factory(1), adv, cfg, seed=0)
    assert run.transcript.forfeited
    assert run.transcript.forfeit_reason == "repeated a query"
    assert run.outcome.profit == 0.0


def test_forfeit_on_stale_target():
    u = Universe(256)
    cfg = GameConfig(universe=u, n=3, t=2, threshold=0.5)
    for target in (2, 7):  # a member, then an earlier query
        adv = _Scripted(members={1, 2, 3}, queries=[7], target=target)
        out = run_ab_test(_fixed_factory(1), adv, cfg, seed=0)
        assert out.transcript.forfeited
        assert out.win == 0


def _wrapped_bit(factory, adversary, cfg, seed, queries=None):
    """The reveal-oracle embedding's output bit in the real world."""
    wrapper = ab_to_filic_adversary(adversary, cfg)
    budget = OracleBudget(inserts=0, queries=cfg.t + 1 if queries is None else queries, reveals=0)
    return run_real(wrapper, factory, budget, seed)


@pytest.mark.parametrize(
    "queries, target, win",
    [
        ([3], 50, 0),  # probed a member
        ([25, 25], 50, 0),  # repeated a probe
        ([25], 3, 0),  # targeted a member
        ([25], 25, 0),  # targeted an earlier probe
        ([25, 26], 50, 1),  # clean run against a saturated filter
    ],
)
def test_referee_agrees_across_harnesses(queries, target, win):
    u = Universe(256)
    members = set(range(20))
    params = FilterParams(m=4, k=3, n=20)
    cfg = GameConfig(universe=u, n=20, t=3, threshold=0.5)
    factory = filter_factory(params, u)
    out = run_ab_test(factory, _Scripted(members, queries, target=target), cfg, seed=0)
    assert out.win == win
    assert out.transcript.forfeited == (win == 0)
    assert _wrapped_bit(factory, _Scripted(members, queries, target=target), cfg, seed=0) == win
    if win:
        # A budget short of the final query, or of the probes, refuses and scores 0.
        for short in (len(queries), 0):
            assert _wrapped_bit(factory, _Scripted(members, queries, target=target), cfg, 0, short) == 0


class _Recording(UniformAdversary):
    """Records the history of every call, then vandalizes the list it got."""

    def begin(self, cfg, rng):
        super().begin(cfg, rng)
        self.seen = []

    def next_query(self, history):
        self.seen.append(list(history))
        history.append((-1, 7))
        return super().next_query(history)

    def finalize(self, history):
        self.seen.append(list(history))
        history.clear()
        return super().finalize(history)


@pytest.mark.parametrize("run", [run_ab_test, run_bp_test])
def test_referee_passes_each_call_the_history_so_far(run):
    u = Universe(1 << 12)
    cfg = GameConfig(universe=u, n=20, t=6, threshold=0.5)
    factory = filter_factory(FilterParams(m=16, k=3, n=20), u, TRUE_RANDOM)
    recorder = _Recording()
    recorded = run(factory, recorder, cfg, 9)
    plain = run(factory, UniformAdversary(), cfg, 9)
    transcript = recorded.transcript
    pairs = list(zip(transcript.queries, transcript.answers))
    assert len(pairs) == cfg.t and not transcript.forfeited
    assert recorder.seen == [pairs[:i] for i in range(cfg.t + 1)]
    # Mutating the received lists reaches neither the transcript nor the result.
    assert recorded == plain


@pytest.mark.parametrize("run", [run_ab_test, run_bp_test])
def test_referee_applies_the_domain_rule_before_the_forfeit_rules(run):
    """The referee checks a probe's domain before its forfeit rules, as
    ``Universe.require`` does: 3.0 equals the member 3 and the earlier probe
    30.0 equals 30, yet each raises :class:`DomainError` rather than forfeit;
    True is the element 1 to that rule, so probing it forfeits as 1 would."""
    u = Universe(256)
    members = set(range(20))
    cfg = GameConfig(universe=u, n=20, t=3, threshold=0.5)
    factory = filter_factory(FilterParams(m=64, k=3, n=20), u)
    for queries in ([3.0], [30, 30.0], [30, 31, 3.0]):
        with pytest.raises(DomainError, match=re.escape(f"element {queries[-1]!r} outside")):
            run(factory, _Scripted(members, queries, target=50), cfg, seed=0)
    with pytest.raises(DomainError, match=re.escape("element 3.0 outside")):
        run(factory, _Scripted(members, [30], target=3.0), cfg, seed=0)
    for queries in ([True], [30, 31, 1]):
        out = run(factory, _Scripted(members, queries, target=50), cfg, seed=0)
        assert out.transcript.forfeit_reason == "queried a member"
    outside = set(range(2, 22))
    for queries in ([1, True], [True, 1]):
        out = run(factory, _Scripted(outside, queries, target=50), cfg, seed=0)
        assert out.transcript.forfeit_reason == "repeated a query"
        assert out.transcript.queries == queries[:1]


@pytest.mark.parametrize("queries, target", [([256], 50), ([25], 256)])
def test_out_of_universe_raises_in_every_harness(queries, target):
    u = Universe(256)
    members = set(range(20))
    params = FilterParams(m=64, k=3, n=20)
    cfg = GameConfig(universe=u, n=20, t=3, threshold=0.5)
    with pytest.raises(DomainError):
        run_ab_test(filter_factory(params, u), _Scripted(members, queries, target=target), cfg, seed=0)
    wrapper = ab_to_filic_adversary(_Scripted(members, queries, target=target), cfg)
    budget = OracleBudget(inserts=0, queries=cfg.t + 1, reveals=0)
    with pytest.raises(DomainError):
        run_real(wrapper, filter_factory(params, u), budget, seed=0)
    with pytest.raises(DomainError):
        run_ideal(wrapper, simulator_factory(params), budget, seed=0)


@pytest.mark.parametrize("bad", [-1, 256, 1 << 70, 2.0, "7", None])
def test_choose_members_refuses_a_bad_member_by_name(bad):
    u = Universe(256)
    cfg = GameConfig(universe=u, n=3, t=0, threshold=0.5)
    adv = _Scripted(members={1, 5, bad}, target=50)
    with pytest.raises(DomainError, match=re.escape(f"element {bad!r} outside universe [0, 256)")):
        choose_members(adv, cfg)


def test_wrong_set_size_rejected():
    u = Universe(256)
    cfg = GameConfig(universe=u, n=4, t=0, threshold=0.5)
    adv = _Scripted(members={1, 2, 3}, target=50)
    with pytest.raises(ParameterError):
        run_ab_test(_fixed_factory(0), adv, cfg, seed=0)


def test_invalid_bet_rejected():
    u = Universe(256)
    cfg = GameConfig(universe=u, n=3, t=0, threshold=0.5)
    adv = _Scripted(members={1, 2, 3}, bet=2, target=50)
    with pytest.raises(ParameterError):
        run_bp_test(_fixed_factory(0), adv, cfg, seed=0)


def test_profit_values_exact():
    u = Universe(256)
    cfg = GameConfig(universe=u, n=3, t=1, threshold=0.5)
    members = {1, 2, 3}
    win = run_bp_test(_fixed_factory(1), _Scripted(members, [7], bet=1, target=50), cfg, 0)
    assert win.outcome.profit == 2.0 and win.outcome.false_positive == 1
    loss = run_bp_test(_fixed_factory(0), _Scripted(members, [7], bet=1, target=50), cfg, 0)
    assert loss.outcome.profit == -2.0 and loss.outcome.bet == 1
    sit_out = run_bp_test(_fixed_factory(0), _Scripted(members, [7], bet=0, target=50), cfg, 0)
    assert sit_out.outcome.profit == 0.0 and sit_out.outcome.bet == 0


def test_saturation_attack_bets_only_on_all_ones():
    u = Universe(65536)
    cfg = GameConfig(universe=u, n=5, t=3, threshold=0.5)
    adv = SaturationAdversary()
    always_zero = run_bp_test(_fixed_factory(0), adv, cfg, seed=1)
    assert always_zero.outcome.bet == 0 and always_zero.outcome.profit == 0.0
    always_one = run_bp_test(_fixed_factory(1), adv, cfg, seed=1)
    assert always_one.outcome.bet == 1 and always_one.outcome.profit == 2.0


@settings(max_examples=40, deadline=None)
@given(
    delta=st.floats(0.05, 0.95),
    answer=st.integers(0, 1),
    bet=st.integers(0, 1),
)
def test_profit_support(delta, answer, bet):
    u = Universe(512)
    cfg = GameConfig(universe=u, n=2, t=0, threshold=delta)
    adv = _Scripted(members={1, 2}, bet=bet, target=100)
    run = run_bp_test(_fixed_factory(answer), adv, cfg, seed=3)
    if bet == 0:
        assert run.outcome.profit == 0.0
    elif answer == 1:
        assert run.outcome.profit == pytest.approx(1.0 / delta)
    else:
        assert run.outcome.profit == pytest.approx(-1.0 / (1.0 - delta))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16])
@pytest.mark.parametrize("n,k", [(0, 1), (1, 1), (5, 3), (20, 3)])
def test_saturation_probability_against_occupancy_oracle(m, n, k):
    got = saturation_probability(m, n, k)
    oracle = _coverage_distribution(m, n * k)[m]
    assert got.exact == pytest.approx(oracle, abs=1e-12)
    assert got.lower_bound <= got.exact + 1e-12
    assert 0.0 <= got.lower_bound <= 1.0


def test_saturation_probability_edges():
    assert saturation_probability(1, 1, 1).exact == 1.0
    assert saturation_probability(1, 0, 1).exact == 0.0  # no throws, one uncovered bit
    assert saturation_probability(4, 0, 3).exact == 0.0
    with pytest.raises(ParameterError):
        saturation_probability(0, 1, 1)
    with pytest.raises(ParameterError):
        saturation_probability(4, 1, 0)


def test_saturation_probability_reference_point():
    got = saturation_probability(8, 20, 3)
    assert got.exact == pytest.approx(0.997348895077887, rel=1e-12)
    assert got.lower_bound == pytest.approx(1.0 - 8.0 * math.exp(-7.5), rel=1e-12)


def _exact_saturation(m, throws):
    """Coverage probability as an exact fraction, from the integer
    inclusion-exclusion sum."""
    total = sum((-1) ** j * math.comb(m, j) * (m - j) ** throws for j in range(m + 1))
    return Fraction(total, m ** throws)


def _saturation_grid(m):
    """Throw counts around each cut-off of saturation_probability: T < m
    (pigeonhole), T near m, and the first T with m * miss < 2**-56, where the
    union-bound rule starts deciding 1.0. The first T with m * miss < 2**-52
    is added because P still rounds below 1.0 there, so a looser rule fails
    on it. Each first T is settled in exact integers from a float estimate."""
    if m == 1:
        return [0, 1, 2]
    grid = {0, m - 1, m, m + 1, 2 * m}
    for bits in (52, 56):

        def below(t):
            return m * (m - 1) ** t << bits < m ** t

        first = math.ceil((bits * math.log(2) + math.log(m)) / -math.log1p(-1 / m))
        while below(first - 1):
            first -= 1
        while not below(first):
            first += 1
        grid |= {first} if bits == 52 else {first - 1, first, first + 1}
    return sorted(grid)


@pytest.mark.parametrize("m", [*range(1, 13), 32, 64, 256])
def test_saturation_probability_matches_integer_reference_across_cutoffs(m):
    for throws in _saturation_grid(m):
        assert saturation_probability(m, throws, 1).exact == float(_exact_saturation(m, throws)), throws


def _union_bound_cutoff(m):
    """The first T with m * miss < 2**-56, where the union-bound rule decides."""
    return math.ceil((56 * math.log(2) + math.log(m)) / -math.log1p(-1 / m))


@pytest.mark.parametrize("m", [64, 256, 512])
def test_saturation_probability_early_stop_matches_the_whole_sum(m):
    """The sum stops at the first two consecutive partial sums that round to
    the same float; across the band the rules leave to it, from T = m up to
    the union-bound cut-off, that float is the whole sum's."""
    cutoff = _union_bound_cutoff(m)
    for throws in sorted({m + 1, *range(m, cutoff, (cutoff - m) // 4), cutoff - 1}):
        assert saturation_probability(m, throws, 1).exact == float(_exact_saturation(m, throws)), throws


@pytest.mark.parametrize("m,throws", [(256, 400), (512, 900), (1024, 1500), (791, 797)])
def test_saturation_probability_early_stop_in_the_deep_left_tail(m, throws):
    """Far left of the mean the terms cancel heavily and the sum runs long
    before its brackets agree; the value still is the whole sum's. At
    (791, 797) P rounds to 0.0 and the brackets agree as -0.0 and 0.0, so
    the sign is checked too."""
    got = saturation_probability(m, throws, 1).exact
    assert got == float(_exact_saturation(m, throws)) and math.copysign(1.0, got) == 1.0


def test_saturation_probability_negative_association_cutoff():
    """The negative-association rule, m * log1p(-miss) < -746, decides 0.0
    only for m above about 1627 (miss is at most 1/e once T >= m). At
    m = 1700 the test straddles the last T it decides."""
    m = 1700
    last = m
    while m * math.log1p(-((1 - 1 / m) ** (last + 1))) < -746:
        last += 1
    for throws in (last, last + 1):
        assert saturation_probability(m, throws, 1).exact == float(_exact_saturation(m, throws))


def test_integer_true_division_is_correctly_rounded():
    """saturation_probability divides two huge ints with ``/`` and relies on
    the quotient being the correctly rounded float, as Fraction's is. Checked
    on random operands of up to 4000 bits, the smallest reaching into the
    subnormal range."""
    rng = random.Random(2501)
    for _ in range(2000):
        den = rng.getrandbits(rng.randrange(1, 4000)) | 1
        num = rng.randrange(den + 1) >> rng.randrange(0, 1200)
        assert num / den == float(Fraction(num, den)), (num, den)


def test_negative_association_bound_dominates_exact_probability():
    for m in range(1, 17):
        for throws in range(0, 8 * m):
            miss = Fraction(m - 1, m) ** throws
            assert (1 - miss) ** m >= _exact_saturation(m, throws)


def test_saturation_probability_refuses_past_the_cap():
    # No rule decides m=1024 with 20000 throws, and m * n * k exceeds 2**24.
    assert 1024 * 20000 > SATURATION_CAP
    with pytest.raises(UnsupportedOperationError, match="m=1024, n\\*k=20000"):
        saturation_probability(1024, 2000, 10)
    # Past the cap but decided by a rule (union bound, negative association,
    # pigeonhole), so the cap does not apply.
    for m, n, k, exact in ((8, 300 * 10**4, 7, 1.0), (4096, 1000, 5, 0.0), (1 << 20, 300, 7, 0.0)):
        assert m * n * k > SATURATION_CAP
        assert saturation_probability(m, n, k).exact == exact


@pytest.mark.parametrize("m, n, k, name, kind", [(8, 20, 3.0, "k", "float"), (64, 60, 7.0, "k", "float"),
                                                 (8.0, 20, 3, "m", "float"), (8, True, 3, "n", "bool")])
def test_saturation_probability_refuses_a_count_that_is_not_an_int(m, n, k, name, kind):
    """A float count would take the sum off its exact integers: a wrong last bit, or an overflow."""
    with pytest.raises(ParameterError, match=rf"^{name} must be an int, not {kind}$"):
        saturation_probability(m, n, k)


def test_saturation_frequency_matches_exact():
    exact = saturation_probability(8, 20, 3).exact
    freq = saturation_frequency(8, 3, 20, trials=2000, seed=6)
    assert abs(freq.rate - exact) < 3 * freq.se + 1e-9
    assert freq.trials == 2000


def test_expected_profit_formula_identities():
    assert expected_profit_formula(1.0, 0.3, 5, 0.25) == pytest.approx(4.0)
    for t in (1, 3, 10):
        assert expected_profit_formula(0.9, 0.0, t, 0.4) == pytest.approx(profit_lower_bound(0.9, 0.4))
    assert profit_lower_bound(0.5, 0.5) == pytest.approx(0.0)
    assert profit_lower_bound(0.9956, 0.5) == pytest.approx(1.97367744, rel=1e-12)
    independent = 0.9956 * 0.9956 / 0.5 - 0.9956 * (1 - 0.9956) / 0.5
    assert profit_lower_bound(0.9956, 0.5) == pytest.approx(independent, rel=1e-12)
    with pytest.raises(ParameterError):
        expected_profit_formula(1.2, 0.5, 1, 0.5)
    with pytest.raises(ParameterError):
        profit_lower_bound(0.5, 1.0)


def test_profit_bound_monotone_in_saturation_probability():
    deltas = [0.2, 0.5, 0.8]
    for delta in deltas:
        values = [profit_lower_bound(p, delta) for p in (0.6, 0.8, 0.95, 0.999)]
        assert values == sorted(values)
    ps = [saturation_probability(m, n, 3).exact for m, n in ((8, 20), (16, 40), (32, 80))]
    assert ps[0] > ps[1] > ps[2]  # same load factor, larger filters saturate less
    bounds = [profit_lower_bound(p, 0.5) for p in ps]
    assert bounds[0] > bounds[1] > bounds[2] > 0.0


def test_bp_zero_mean_at_fair_threshold():
    """With the bet threshold set to the true hit probability the always-bet
    strategy has zero expected profit."""
    m, k, n = 8, 3, 4
    dist = _coverage_distribution(m, n * k)
    p_star = math.fsum(pr * (c / m) ** k for c, pr in enumerate(dist))
    u = Universe(65536)
    cfg = GameConfig(universe=u, n=n, t=0, threshold=p_star)
    params = FilterParams(m=m, k=k, n=n)
    exp = run_bp_experiment(filter_factory(params, u, TRUE_RANDOM), UniformAdversary(), cfg, 6000, seed=11)
    assert exp.bet_rate == 1.0
    assert exp.ci_lo <= 0.0 <= exp.ci_hi
    assert abs(exp.win_rate - p_star) < 0.02


def test_bp_saturation_attack_on_tiny_filter():
    m, k, n, t = 4, 3, 20, 8
    u = Universe(65536)
    cfg = GameConfig(universe=u, n=n, t=t, threshold=0.5)
    params = FilterParams(m=m, k=k, n=n)
    exp = run_bp_experiment(filter_factory(params, u, TRUE_RANDOM), SaturationAdversary(), cfg, 500, seed=12)
    assert exp.mean_profit > 1.9
    assert exp.saturation_rate > 0.99
    assert exp.forfeits == 0
    exact = saturation_probability(m, n, k).exact
    assert profit_lower_bound(exact, 0.5) > 1.99


def test_ab_uniform_adversary_tracks_closed_form_fpr():
    params = FilterParams(m=1024, k=7, n=100)
    u = Universe(1 << 20)
    cfg = GameConfig(universe=u, n=100, t=4, threshold=0.5)
    exp = run_ab_experiment(filter_factory(params, u), UniformAdversary(), cfg, 2000, seed=42)
    assert exp.forfeits == 0
    assert exp.ci_lo <= expected_fpr(params) <= exp.ci_hi


def test_bp_experiment_reports_unsaturated_probe_rate():
    m, k, n = 8, 3, 20
    u = Universe(65536)
    cfg = GameConfig(universe=u, n=n, t=16, threshold=0.5)
    params = FilterParams(m=m, k=k, n=n)
    exp = run_bp_experiment(filter_factory(params, u, TRUE_RANDOM), SaturationAdversary(), cfg, 1500, seed=13)
    exact = saturation_probability(m, n, k).exact
    assert abs(exp.saturation_rate - exact) < 0.01
    assert 0.0 <= exp.probe_fp_rate_unsaturated < 1.0
    assert exp.mean_profit > profit_lower_bound(exact, 0.5) - 3 * (exp.ci_hi - exp.ci_lo)


@pytest.mark.parametrize("call, message", [
    (lambda: expected_profit_formula(0.5, 0.1, -1, 0.5), r"^t must be >= 0$"),
    (lambda: expected_profit_formula(0.5, 0.1, 1.5, 0.5), r"^t must be an int, not float$"),
    (lambda: expected_profit_formula(0.5, 0.1, True, 0.5), r"^t must be an int, not bool$"),
    (lambda: expected_profit_formula(0.5, 0.1, 4, 0.0), r"^delta must lie in \(0, 1\)$"),
    (lambda: expected_profit_formula(0.5, 0.1, 4, 1.0), r"^delta must lie in \(0, 1\)$"),
    (lambda: profit_lower_bound(1.5, 0.5), r"^p_s must lie in \[0, 1\]$"),
    (lambda: profit_lower_bound(-0.1, 0.5), r"^p_s must lie in \[0, 1\]$"),
    (lambda: profit_lower_bound(0.5, 1.0), r"^delta must lie in \(0, 1\)$"),
])
def test_profit_closed_forms_refuse_bad_arguments(call, message):
    with pytest.raises(ParameterError, match=message):
        call()
