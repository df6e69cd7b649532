"""Acceptance gate: end-to-end checks with stated tolerances and runtimes.

Each test prints one [PASS]/[FAIL] line (visible with ``pytest -s`` or in
captured output on failure) and asserts the same condition.
"""

import copy
import io
import math
import random
import time

from bloomlab import cli
from bloomlab.filic import (
    OracleBudget,
    RepresentationPredictionAdversary,
    SimulatorState,
    ab_to_filic_adversary,
    estimate_advantage,
    key_leaking_filter_factory,
    key_leaking_simulator_factory,
    run_real,
)
from bloomlab.filters import (
    TRUE_RANDOM,
    BloomFilter,
    FilterParams,
    HashFamily,
    NyFilter,
    Universe,
    estimate_fpr,
    filter_factory,
    fresh_family,
)
from bloomlab.games import (
    GameConfig,
    SaturationAdversary,
    UniformAdversary,
    expected_profit_formula,
    profit_lower_bound,
    run_ab_experiment,
    run_bp_experiment,
    saturation_frequency,
    saturation_probability,
)
from bloomlab.learned import learned_build, make_training_set, private_learned_build, train_threshold_model
from bloomlab.privacy import (
    MANGAT,
    WARNER,
    PrivacyParams,
    audit_perturbation,
    build_private_filter,
    measure_member_negative_rate,
    privacy_budget,
)
from bloomlab.stats import Z99, DrawStream, mix_seed

Z = Z99


def _check(label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def test_1_honest_false_positive_rate():
    started = time.perf_counter()
    params = FilterParams(m=1024, k=7, n=100)
    est = estimate_fpr(params, Universe(1 << 20), "public", builds=50, queries=100_000, seed=20_240)
    elapsed = time.perf_counter() - started
    diff = abs(est.rate - est.expected)
    ok = diff <= 0.002 and elapsed < 10.0
    _check(
        "1 honest-fpr",
        ok,
        f"rate={est.rate:.6f} expected={est.expected:.6f} |diff|={diff:.2e} <= 0.002, {elapsed:.1f}s < 10s",
    )


def test_2_completeness_every_insertable_kind():
    u = Universe(256)
    n = 24
    fparams = FilterParams(m=256, k=4, n=n)
    failures = 0
    builds = 0

    def standard(members, rng):
        return BloomFilter.build(members, fparams, HashFamily.public(), u)

    def prf(members, rng):
        return BloomFilter.build(members, fparams, HashFamily.keyed(rng.randbytes(16)), u)

    def true_random(members, rng):
        return BloomFilter.build(members, fparams, fresh_family(TRUE_RANDOM, rng), u)

    def ny(members, rng):
        return NyFilter.build(members, fparams, rng.randbytes(16), u)

    def mangat(members, rng):
        return build_private_filter(members, u, fparams, PrivacyParams(MANGAT, 0.6), rng.randrange(1 << 32))

    def learned(members, rng):
        data = make_training_set(members, u, 48, rng.randrange(1 << 32))
        model = train_threshold_model(data, noise=0.15, seed=rng.randrange(1 << 32))
        return learned_build(members, u, fparams, model)

    def private_learned(members, rng):
        return private_learned_build(members, u, fparams, PrivacyParams(MANGAT, 0.6),
                                     rng.randrange(1 << 32), noise=0.15)

    kinds = [standard, prf, true_random, ny, mangat, learned, private_learned]
    for seed in range(1000):
        rng = random.Random(mix_seed(7, "completeness", seed))
        members = set(rng.sample(range(u.size), n))
        filt = kinds[seed % len(kinds)](members, rng)
        builds += 1
        failures += sum(filt.query(x) != 1 for x in members)
    _check(
        "2 completeness",
        failures == 0,
        f"{builds} seeded builds across {len(kinds)} kinds, u=256: {failures} false negatives",
    )


def test_3_warner_member_negative_rate():
    members = set(range(20))
    est = measure_member_negative_rate(
        members, Universe(100), FilterParams(m=1024, k=5, n=40),
        PrivacyParams(WARNER, 0.75), trials=10_000, seed=33,
    )
    diff = abs(est.rate - 0.25)
    ok = diff <= 3 * est.se
    _check(
        "3 warner-fnr",
        ok,
        f"rate={est.rate:.4f} vs 0.25, |diff|={diff:.4f} <= 3*SE={3 * est.se:.4f} over {est.trials} seeds",
    )


def test_4_privacy_audits_and_budgets():
    started = time.perf_counter()
    mangat = audit_perturbation(
        PrivacyParams(MANGAT, 0.5), set(range(8)), Universe(64), x=0, trials=20_000, seed=404,
    )
    warner = audit_perturbation(
        PrivacyParams(WARNER, 0.75), set(range(8)), Universe(64), x=0, trials=20_000, seed=405,
    )
    mb = privacy_budget(PrivacyParams(MANGAT, 0.5))
    wb = privacy_budget(PrivacyParams(WARNER, 0.75))
    budgets_exact = (
        mb.epsilon == math.log(1.0 / (1.0 - 0.5))
        and mb.epsilon_prime == math.log(1.0 - 0.5)
        and wb.epsilon == math.log(0.75 / (1.0 - 0.75))
    )
    elapsed = time.perf_counter() - started
    ok = (
        mangat.verdict == "pass" and mangat.ratio_lo <= 2.0 <= mangat.ratio_hi
        and warner.verdict == "pass" and warner.ratio_lo <= 3.0 <= warner.ratio_hi
        and budgets_exact and elapsed < 30.0
    )
    _check(
        "4 privacy-audits",
        ok,
        f"mangat ratio={mangat.ratio_point:.3f} CI=({mangat.ratio_lo:.3f},{mangat.ratio_hi:.3f})∋2, "
        f"warner ratio={warner.ratio_point:.3f} CI=({warner.ratio_lo:.3f},{warner.ratio_hi:.3f})∋3, "
        f"budgets exact={budgets_exact}, {elapsed:.1f}s < 30s",
    )


def test_5_saturation_probability_and_frequency():
    prob = saturation_probability(8, 20, 3)
    bound = 1.0 - 8.0 * math.exp(-7.5)
    freq = saturation_frequency(8, 3, 20, trials=10_000, seed=55)
    diff = abs(freq.rate - prob.exact)
    ok = prob.exact >= bound and diff <= 3 * freq.se
    _check(
        "5 saturation-probability",
        ok,
        f"exact={prob.exact:.6f} >= bound={bound:.6f}; MC rate={freq.rate:.4f} "
        f"|diff|={diff:.4f} <= 3*SE={3 * freq.se:.4f} over {freq.trials} builds",
    )


def test_6_saturation_attack_profit():
    started = time.perf_counter()
    m, k, n, t, delta = 8, 3, 20, 16, 0.5
    u = Universe(65_536)
    cfg = GameConfig(universe=u, n=n, t=t, threshold=delta)
    params = FilterParams(m=m, k=k, n=n)
    exp = run_bp_experiment(filter_factory(params, u, TRUE_RANDOM), SaturationAdversary(), cfg,
                            trials=10_000, seed=66)
    elapsed = time.perf_counter() - started
    p_s = saturation_probability(m, n, k).exact
    se = (exp.ci_hi - exp.ci_lo) / (2 * Z)
    floor_simple = profit_lower_bound(p_s, delta)
    floor_formula = expected_profit_formula(p_s, exp.probe_fp_rate_unsaturated, t, delta)
    ok = (
        exp.ci_lo > 0.0
        and exp.mean_profit >= floor_simple - 3 * se
        and exp.mean_profit >= floor_formula - 3 * se
        and elapsed < 60.0
    )
    _check(
        "6 saturation-attack-profit",
        ok,
        f"mean={exp.mean_profit:.4f} (99% CI lo={exp.ci_lo:.4f} > 0), "
        f"floor={floor_simple:.4f}, formula(p_fp={exp.probe_fp_rate_unsaturated:.3f})={floor_formula:.4f}, "
        f"3*SE={3 * se:.4f}, {elapsed:.1f}s < 60s",
    )


def test_7_reveal_reduction_harness():
    params = FilterParams(m=64, k=5, n=9)
    u = Universe(4096)
    budget = OracleBudget(inserts=0, queries=4, reveals=1)
    adv = RepresentationPredictionAdversary(params, u, n=9, expects_snapshot=True)
    make_ideal = key_leaking_simulator_factory(params, u)
    trials = 1000
    densities = []

    def probe(members, rng):
        # The ideal world itself, noting the density^k each trial's simulator starts from.
        sim = make_ideal(members, rng)
        densities.append(sim.fill_ratio() ** params.k)
        return sim

    report = estimate_advantage(adv, key_leaking_filter_factory(params, u), probe,
                                budget, trials=trials, seed=777)
    mu = math.fsum(densities) / trials
    se_ideal = math.sqrt((mu * (1 - mu)) / trials)
    ideal_matches_density = abs(report.p_ideal - mu) <= 3 * se_ideal + 1e-6

    ab_params = FilterParams(m=32, k=2, n=8)
    ab_u = Universe(1024)
    cfg = GameConfig(universe=ab_u, n=8, t=3, threshold=0.5)
    n_ab = 1500
    ab = run_ab_experiment(filter_factory(ab_params, ab_u), UniformAdversary(),
                           cfg, trials=n_ab, seed=778)
    wrapper = ab_to_filic_adversary(UniformAdversary(), cfg)
    wrap_budget = OracleBudget(inserts=0, queries=cfg.t + 1, reveals=0)
    wrap_hits = sum(
        run_real(wrapper, filter_factory(ab_params, ab_u), wrap_budget,
                 mix_seed(779, "wrap", i))
        for i in range(n_ab)
    )
    p1, p2 = ab.win_rate, wrap_hits / n_ab
    pooled = (ab.wins + wrap_hits) / (2 * n_ab)
    margin = Z * math.sqrt(max(pooled * (1 - pooled), 1.0 / n_ab) * 2 / n_ab)
    reduction_consistent = abs(p1 - p2) <= margin

    ok = report.p_real >= 0.9 and report.advantage >= 0.9 and ideal_matches_density and reduction_consistent
    _check(
        "7 reveal-reduction",
        ok,
        f"advantage={report.advantage:.3f} >= 0.9 (real={report.p_real:.3f}, ideal={report.p_ideal:.3f}); "
        f"ideal hit rate {report.p_ideal:.4f} vs density^k {mu:.4f} (3*SE={3 * se_ideal:.4f}); "
        f"AB {p1:.4f} vs wrapped {p2:.4f} (99% margin {margin:.4f})",
    )


_SIM_KEY = b"fidelity"


class _ReferenceSimulator:
    """Plain dict/list re-statement of the ideal-world rules, drawing its
    indices one at a time from the simulator's keyed stream."""

    def __init__(self, m, k, stream):
        self.m, self.k, self.stream = m, k, stream
        self.assigned = {}
        self.inserted = []
        self.fps = []
        self.set_bits = set()

    def draw(self):
        return self.stream.below(self.m, 1)[0]

    def clone(self):
        twin = _ReferenceSimulator(self.m, self.k, copy.copy(self.stream))
        twin.assigned = dict(self.assigned)
        twin.inserted = list(self.inserted)
        twin.fps = list(self.fps)
        twin.set_bits = set(self.set_bits)
        return twin

    def insert(self, x):
        if x in self.inserted:
            return
        if x not in self.assigned:
            self.assigned[x] = tuple(self.draw() for _ in range(self.k))
        self.set_bits.update(self.assigned[x])
        self.inserted.append(x)

    def query(self, x):
        if x in self.inserted or x in self.fps:
            return 1
        draw = [self.draw() for _ in range(self.k)]
        if all(j in self.set_bits for j in draw):
            self.fps.append(x)
            return 1
        return 0


def _clone_sim(sim):
    twin = SimulatorState(sim.m, sim.k, _SIM_KEY)
    twin.stream = copy.copy(sim.stream)
    twin.flags = bytearray(sim.flags)
    twin.f = dict(sim.f)
    twin.inserted = list(sim.inserted)
    twin.fp_list = list(sim.fp_list)
    twin._inserted_set = set(sim._inserted_set)
    twin._fp_set = set(sim._fp_set)
    return twin


def _states_agree(sim, ref):
    packed = sim.reveal()
    bits = {j for j in range(sim.m) if packed[j >> 3] & (1 << (j & 7))}
    return (
        sim.ctr == len(ref.inserted)
        and sim.inserted == ref.inserted
        and sim.fp_list == ref.fps
        and bits == ref.set_bits
        and sim.popcount() == len(ref.set_bits)
    )


def test_8_simulator_exhaustive_fidelity():
    m = k_universe = 4
    k = 2
    ops = [("i", x) for x in range(k_universe)] + [("q", x) for x in range(k_universe)]
    sequences = 0
    mismatches = 0

    def walk(sim, ref, depth):
        nonlocal sequences, mismatches
        sequences += 1
        if not _states_agree(sim, ref) or sim.stream != ref.stream:
            mismatches += 1
            return
        if depth == 6:
            return
        for op, x in ops:
            s2, r2 = _clone_sim(sim), ref.clone()
            if op == "i":
                s2.insert(x)
                r2.insert(x)
            else:
                if s2.query(x) != r2.query(x):
                    mismatches += 1
                    continue
            walk(s2, r2, depth + 1)

    walk(SimulatorState(m, k, _SIM_KEY), _ReferenceSimulator(m, k, DrawStream(_SIM_KEY, b"simulator")), 0)

    replays_ok = True
    for trial in range(50):
        seed = mix_seed(8, "replay", trial)
        rng = random.Random(seed)
        script = [(rng.choice("iq"), rng.randrange(64)) for _ in range(40)]
        mapping = dict(zip(range(64), random.Random(seed + 1).sample(range(1000, 1064), 64)))

        def run(seq):
            sim = SimulatorState(4, 2, (seed + 2).to_bytes(8, "little"))
            answers = []
            for op, x in seq:
                if op == "i":
                    sim.insert(x)
                else:
                    answers.append(sim.query(x))
            return answers, sim.ctr, sim.reveal()

        if run(script) != run([(op, mapping[x]) for op, x in script]):
            replays_ok = False
    ok = mismatches == 0 and replays_ok
    _check(
        "8 simulator-fidelity",
        ok,
        f"{sequences} oracle-sequence states (length <= 6, u=4, m=4) against the reference: "
        f"{mismatches} mismatches; 50 label-permutation replays identical={replays_ok}",
    )


def test_9_cli_determinism():
    args = {
        "fpr-estimate": ["--trials", "2", "--queries", "2000"],
        "privacy-audit": ["--trials", "300"],
        "bp-attack": ["--trials", "50"],
        "ab-game": ["--trials", "40"],
        "filic-distinguish": ["--trials", "25"],
        "saturation-scan": ["--trials", "2"],
        "error-analysis": [],
    }
    stable = []
    for experiment, extra in sorted(args.items()):
        for fmt in ("csv", "json"):
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = cli.main([experiment, "--seed", "12", "--format", fmt, *extra], out=out, err=err)
                assert code == 0, f"{experiment} exited {code}: {err.getvalue()}"
                outputs.append(out.getvalue())
            stable.append(outputs[0] == outputs[1] and bool(outputs[0]))
    ok = all(stable)
    _check(
        "9 cli-determinism",
        ok,
        f"{len(stable)} experiment/format reruns byte-identical={sum(stable)}/{len(stable)}",
    )
