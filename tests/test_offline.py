import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shortsight as ss
from shortsight import offline
from shortsight.errors import InvalidParam, InvalidTrajectory, ModelMismatch, PolicyMismatch
from shortsight.serialize import parse_dataset, serialize_dataset

from conftest import half_behavior
from oracle import oracle_pick, oracle_sample_dataset, oracle_tally, plain_from_library
from randmdp import dense_mdp, random_mdp, random_model

# Frozen oracle values, recorded before these tests were written:
#  - exact Binomial(1000, 1/2) central 99% interval: [459, 541]
#  - L-count at seed 2024 observed: 500
#  - TV(empirical, exact) for the identity-phi prefix model at n=10^4,
#    seed 77: exactly 67/10000; pre-registered threshold 1/20
#  - seed schedule with non-increasing TV across n in {100, 1000, 10000}
#    for all three families: seed 12
BINOMIAL_99 = (459, 541)
TV_SEED = 77
TV_OBSERVED = Fraction(67, 10000)
TV_THRESHOLD = Fraction(1, 20)
MONOTONE_SEED = 12


def test_prefix_behavior_split_within_binomial_interval(prefix3):
    mdp, _ = prefix3
    behavior = half_behavior(mdp)
    ds = ss.sample_dataset(mdp, behavior, 1000, 2024)
    l_count = sum(1 for t in ds.trajectories if t.actions[0] == "L")
    assert BINOMIAL_99[0] <= l_count <= BINOMIAL_99[1]
    assert l_count == 500  # frozen draw for this seed


def test_deterministic_dynamics_give_identical_trajectories(greedy310):
    mdp, _ = greedy310
    all_greedy, _ = ss.greedy_policies(mdp)
    ds = ss.sample_dataset(mdp, all_greedy, 5, 1)
    assert len(set(ds.trajectories)) == 1
    assert ds.trajectories[0].rewards[-2] == -10


def test_single_trajectory_dataset(prefix3):
    mdp, _ = prefix3
    pol, _ = ss.commit_policies(mdp)
    ds = ss.sample_dataset(mdp, pol, 1, 0)
    assert ds.n == 1
    traj = ds.trajectories[0]
    assert len(traj.states) == mdp.horizon + 1
    assert len(traj.actions) == len(traj.rewards) == mdp.horizon


def test_sampling_is_reproducible_byte_for_byte(prefix3):
    mdp, _ = prefix3
    behavior = half_behavior(mdp)
    a = ss.sample_dataset(mdp, behavior, 64, 7)
    b = ss.sample_dataset(mdp, behavior, 64, 7)
    assert a == b
    assert serialize_dataset(a) == serialize_dataset(b)
    c = ss.sample_dataset(mdp, behavior, 64, 8)
    assert serialize_dataset(a) != serialize_dataset(c)


def test_sample_rejects_bad_inputs(prefix3):
    mdp, _ = prefix3
    behavior = half_behavior(mdp)
    with pytest.raises(InvalidParam):
        ss.sample_dataset(mdp, behavior, 0, 1)
    broken = ss.Policy("deterministic", mdp.horizon, ({},) * mdp.horizon, True)
    with pytest.raises(PolicyMismatch):
        ss.sample_dataset(mdp, broken, 3, 1)


@pytest.mark.parametrize(
    "n, seed, message",
    [
        (2.5, 1, "n must be an integer, got 2.5"),
        (True, 1, "n must be an integer, got True"),
        (0, 1, "n must be >= 1, got 0"),
        (3, 1.5, "seed must be an integer, got 1.5"),
        (3, "x", "seed must be an integer, got 'x'"),
        (3, False, "seed must be an integer, got False"),
    ],
)
def test_sample_rejects_a_count_or_seed_that_is_not_an_integer(prefix3, n, seed, message):
    # Once: 2.5 raised a raw TypeError, True drew one trajectory, and a float
    # or str seed gave a dataset that could not be written or read back.
    mdp, _ = prefix3
    with pytest.raises(InvalidParam, match=re.escape(message)):
        ss.sample_dataset(mdp, half_behavior(mdp), n, seed)
    ds = ss.sample_dataset(mdp, half_behavior(mdp), 3, -7)
    assert parse_dataset(serialize_dataset(ds)) == ds


def test_empirical_prefix_windows_all_identical(prefix3):
    mdp, model = prefix3
    behavior = half_behavior(mdp)
    ds = ss.sample_dataset(mdp, behavior, 200, 5)
    stats = ss.empirical_segments(ds, model)
    for start in stats.starts:
        counts = stats.counts(start)
        assert len(counts) == 1
        assert sum(counts.values()) == ds.n
        assert set(stats.frequencies(start).values()) == {Fraction(1)}


def test_empirical_aliasing_identity_matches_branch_split(aliasing3):
    mdp, model = aliasing3
    ident = ss.ObservationModel.make(
        model.window_length, model.window_starts, ss.identity_phi(mdp)
    )
    behavior = half_behavior(mdp)
    ds = ss.sample_dataset(mdp, behavior, 500, 3)
    left = sum(1 for t in ds.trajectories if t.actions[0] == "L")
    stats = ss.empirical_segments(ds, ident)
    freqs = stats.frequencies(1)
    assert len(freqs) == 2
    by_branch = {seg.features[0]: f for seg, f in freqs.items()}
    assert by_branch["u1"] == Fraction(left, 500)
    assert by_branch["v1"] == Fraction(500 - left, 500)


def test_empirical_blind_model_single_segment():
    mdp = ss.build_mdp(
        states=["a", "b"],
        actions={"a": ["go"], "b": ["stay"]},
        transitions={("a", "go"): [("b", 1, 1)], ("b", "stay"): [("b", 1, 0)]},
        horizon=2,
        initial={"a": 1},
    )
    pol = ss.make_stationary(mdp)
    model = ss.ObservationModel.make(
        1, (0, 1), {"a": "x", "b": "x"}, observe_actions=False, observe_rewards=False
    )
    ds = ss.sample_dataset(mdp, pol, 10, 0)
    stats = ss.empirical_segments(ds, model)
    for start in stats.starts:
        assert len(stats.counts(start)) == 1


def test_tv_zero_for_deterministic_single_path(greedy310):
    mdp, model = greedy310
    all_patient = ss.greedy_policies(mdp)[1]
    ds = ss.sample_dataset(mdp, all_patient, 25, 9)
    stats = ss.empirical_segments(ds, model)
    exact = ss.segment_distribution(mdp, all_patient, model)
    assert set(ss.tv_distance(stats, exact).values()) == {Fraction(0)}


def test_tv_one_on_disjoint_support(aliasing3):
    mdp, model = aliasing3
    ident = ss.ObservationModel.make(
        model.window_length, model.window_starts, ss.identity_phi(mdp)
    )
    pol_l, pol_r = ss.commit_policies(mdp)
    ds = ss.sample_dataset(mdp, pol_l, 20, 2)
    stats = ss.empirical_segments(ds, ident)
    exact_r = ss.segment_distribution(mdp, pol_r, ident)
    assert set(ss.tv_distance(stats, exact_r).values()) == {Fraction(1)}


def test_tv_model_mismatch(prefix3):
    mdp, model = prefix3
    behavior = half_behavior(mdp)
    ds = ss.sample_dataset(mdp, behavior, 10, 4)
    stats = ss.empirical_segments(ds, model)
    ident = ss.ObservationModel.make(
        model.window_length, model.window_starts, ss.identity_phi(mdp)
    )
    exact = ss.segment_distribution(mdp, behavior, ident)
    with pytest.raises(ModelMismatch):
        ss.tv_distance(stats, exact)


def test_tv_below_preregistered_threshold_at_recorded_seed(prefix3):
    mdp, model = prefix3
    ident = ss.ObservationModel.make(
        model.window_length, model.window_starts, ss.identity_phi(mdp)
    )
    behavior = half_behavior(mdp)
    ds = ss.sample_dataset(mdp, behavior, 10**4, TV_SEED)
    stats = ss.empirical_segments(ds, ident)
    exact = ss.segment_distribution(mdp, behavior, ident)
    tv = ss.tv_distance(stats, exact)[1]
    assert tv == TV_OBSERVED
    assert tv < TV_THRESHOLD


def test_tv_monotone_on_recorded_seed_schedule():
    # statistical, not logical: verified on the recorded seed schedule
    builders = (
        lambda: ss.build_prefix(3),
        lambda: ss.build_greedy(3, 10),
        lambda: ss.build_aliasing(3),
    )
    for build in builders:
        mdp, model = build()
        ident = ss.ObservationModel.make(
            model.window_length, model.window_starts, ss.identity_phi(mdp)
        )
        behavior = half_behavior(mdp)
        exact = ss.segment_distribution(mdp, behavior, ident)
        tvs = []
        for n in (100, 1000, 10000):
            ds = ss.sample_dataset(mdp, behavior, n, MONOTONE_SEED)
            stats = ss.empirical_segments(ds, ident)
            tvs.append(max(ss.tv_distance(stats, exact).values()))
        assert tvs[0] >= tvs[1] >= tvs[2]


def test_lonly_and_ronly_stats_identical_under_aliased_model(prefix3):
    mdp, model = prefix3
    pol_l, pol_r = ss.commit_policies(mdp)
    for n in (1, 10, 100):
        left = ss.empirical_segments(ss.sample_dataset(mdp, pol_l, n, 6), model)
        right = ss.empirical_segments(ss.sample_dataset(mdp, pol_r, n, 6), model)
        assert left == right


def test_dataset_prefix_partitioning_is_consistent(prefix3):
    # trajectory i depends only on (seed, i), so a prefix of a larger dataset
    # equals the smaller dataset drawn with the same seed
    mdp, _ = prefix3
    behavior = half_behavior(mdp)
    small = ss.sample_dataset(mdp, behavior, 10, 21)
    large = ss.sample_dataset(mdp, behavior, 30, 21)
    assert large.trajectories[:10] == small.trajectories


# Odd, large and above-2^53 denominators, so that cumulative probabilities are
# rarely floats and their float roundings fall on either side.
DENOMINATORS = (3, 7, 10, 1_000_003, 2**61 - 1, 3**40, 10**30 + 7)


def _split(rng, k):
    """k positive probabilities summing to 1 over one drawn denominator."""
    den = max(rng.choice(DENOMINATORS), k)
    cuts = set()
    while len(cuts) < k - 1:
        cuts.add(rng.randrange(1, den))
    cuts = sorted(cuts)
    return [Fraction(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]


def _reweighted(rng, mdp):
    """The same MDP with new initial and transition probabilities from `_split`."""
    support = [s for s, p in enumerate(mdp.initial) if p > 0]
    initial = [Fraction(0)] * mdp.n_states
    for s, p in zip(support, _split(rng, len(support))):
        initial[s] = p
    transitions = tuple(
        tuple(
            tuple((s2, p, r) for (s2, _, r), p in zip(outs, _split(rng, len(outs))))
            for outs in row
        )
        for row in mdp.transitions
    )
    return ss.TabularMDP(mdp.states, mdp.actions, transitions, mdp.horizon, tuple(initial), mdp.terminal)


def _stochastic_behavior(rng, mdp, stationary):
    def row():
        return {
            s: tuple(enumerate(_split(rng, len(mdp.actions[s]))))
            for s in mdp.nonterminal()
        }

    rows = (row(),) * mdp.horizon if stationary else tuple(row() for _ in range(mdp.horizon))
    return ss.Policy("stochastic", mdp.horizon, rows, stationary)


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), stationary=st.booleans(), n=st.integers(1, 40))
def test_sampler_matches_fraction_inverse_cdf(seed, stationary, n):
    rng = random.Random(seed)
    mdp = _reweighted(rng, random_mdp(rng, max_states=5, max_actions=3))
    behavior = _stochastic_behavior(rng, mdp, stationary)
    data_seed = rng.randrange(1000)
    ds = ss.sample_dataset(mdp, behavior, n, data_seed)
    reference = oracle_sample_dataset(mdp, behavior, n, data_seed)
    assert ds == reference
    assert serialize_dataset(ds) == serialize_dataset(reference)


@pytest.mark.parametrize("seed", [5, 2026])
@pytest.mark.parametrize(
    "build, repeats",
    [
        pytest.param(lambda: ss.build_greedy(3, 10)[0], True, id="greedy-H3"),
        pytest.param(lambda: dense_mdp(7, 6), False, id="dense"),
    ],
)
def test_sampler_matches_the_oracle_on_repeated_and_distinct_paths(build, repeats, seed):
    # Greedy H=3 has a handful of paths; the dense MDP has 7 * 14^6, so at
    # n=3000 nearly every path is distinct.
    mdp = build()
    behavior = half_behavior(mdp)
    ds = ss.sample_dataset(mdp, behavior, 3000, seed)
    assert ds == oracle_sample_dataset(mdp, behavior, 3000, seed)
    distinct = len(set(ds.trajectories))
    assert distinct < 100 if repeats else distinct > 2900
    # Equal sampled trajectories are one object.
    assert len(set(map(id, ds.trajectories))) == distinct


class _Draws:
    """A stand-in generator that returns the given floats in order; reseeding
    it changes nothing."""

    def __init__(self, *xs):
        self.xs = list(xs)

    def seed(self, _):
        pass

    def random(self):
        return self.xs.pop(0)


def _picks(pairs, x):
    """(initial state, action, next state) that the sampler's draw loop takes
    when every draw is x, on a one-step MDP whose initial distribution,
    behaviour cell and transitions all follow (thing, probability) `pairs`;
    each label is `str(thing)`."""
    labels = [str(thing) for thing, _ in pairs]
    probs = [p for _, p in pairs]
    mdp = ss.build_mdp(
        states=labels,
        actions={s: labels for s in labels},
        transitions={(s, a): [(s2, p, 0) for s2, p in zip(labels, probs)] for s in labels for a in labels},
        horizon=1,
        initial=dict(zip(labels, probs)),
    )
    cell = tuple(enumerate(probs))
    behavior = ss.Policy("stochastic", 1, ({s: cell for s in range(len(labels))},), True)
    # Every state starts with positive probability, so each is reachable at
    # the one step (the MDP need not be valid: `pairs` may sum below 1).
    reachable = [dict.fromkeys(range(len(labels)))]
    (traj,) = offline._draw(mdp, behavior, reachable, 1, 0, _Draws(x, x, x))
    return traj.states[0], traj.actions[0], traj.states[1]


def _neighbours(x):
    """x and the two floats on either side of it that are valid draws."""
    below = math.nextafter(x, 0.0)
    above = math.nextafter(x, 1.0)
    near = (math.nextafter(below, 0.0), below, x, above, math.nextafter(above, 1.0))
    return [y for y in near if 0.0 <= y < 1.0]


@pytest.mark.parametrize(
    "pairs",
    [
        (("lo", Fraction(1, 2)), ("hi", Fraction(1, 2))),
        tuple((k, Fraction(1, 3)) for k in range(3)),
        (("lo", 1 - Fraction(1, 2**53)), ("hi", Fraction(1, 2**53))),
        (("lo", Fraction(1, 5)), ("hi", Fraction(4, 5))),
        (("lo", Fraction(1, 3**40)), ("hi", 1 - Fraction(1, 3**40))),
    ],
)
def test_pick_agrees_with_the_fraction_comparison_at_every_cut(pairs):
    acc = Fraction(0)
    for _, p in pairs:
        acc += p
        for x in _neighbours(float(acc)):
            assert _picks(pairs, x) == (str(oracle_pick(_Draws(x), pairs)),) * 3, x


def test_pick_boundary_draws():
    half = (("lo", Fraction(1, 2)), ("hi", Fraction(1, 2)))
    assert _picks(half, 0.5) == ("hi",) * 3
    assert _picks(half, math.nextafter(0.5, 0.0)) == ("lo",) * 3
    top = 1 - Fraction(1, 2**53)
    edge = (("lo", top), ("hi", 1 - top))
    assert _picks(edge, float(top)) == ("hi",) * 3
    assert _picks(edge, math.nextafter(float(top), 0.0)) == ("lo",) * 3
    # A float just above 1/5 but below the next multiple of 2^-53: a threshold
    # rounded up to a multiple of 2^-53 would wrongly put it below the cut.
    fifth = Fraction(1, 5)
    x = math.nextafter(float(fifth), 1.0)
    assert fifth < x < Fraction(math.ceil(fifth * 2**53), 2**53)
    assert _picks((("lo", fifth), ("hi", 1 - fifth)), x) == ("hi",) * 3
    # A draw past every threshold takes the last outcome, as the oracle does.
    short = (("lo", Fraction(1, 4)), ("hi", Fraction(1, 4)))
    assert _picks(short, 0.75) == ("hi",) * 3
    assert oracle_pick(_Draws(0.75), short) == "hi"


def _with_fresh_rewards(traj):
    """An equal trajectory whose rewards are different Fraction objects."""
    return ss.Trajectory(traj.states, traj.actions, tuple(Fraction(r.numerator, r.denominator) for r in traj.rewards))


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_tallies_match_per_trajectory_crops(seed):
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=5)
    model = random_model(rng, mdp)
    base = ss.sample_dataset(mdp, half_behavior(mdp), rng.randint(1, 12), seed)
    trajectories = [
        rng.choice((lambda t: t, _with_fresh_rewards))(rng.choice(base.trajectories))
        for _ in range(rng.randint(1, 200))
    ]
    ds = ss.OfflineDataset(tuple(trajectories), base.behavior_id, base.seed)
    stats = ss.empirical_segments(ds, model)
    assert stats.n == len(trajectories)
    assert plain_from_library(stats) == oracle_tally(trajectories, model)


def test_first_offending_trajectory_is_reported_after_repeats(prefix3):
    mdp, model = prefix3
    good = ss.sample_dataset(mdp, half_behavior(mdp), 4, 1).trajectories
    short = ss.Trajectory(good[0].states[:3], good[0].actions[:2], good[0].rewards[:2])
    ghost = ss.Trajectory(good[1].states[:2] + ("ghost",) + good[1].states[3:], good[1].actions, good[1].rewards)
    cases = (
        (short, f"window start out of range for a trajectory of {len(short.states) - 1} steps"),
        (ghost, "phi has no feature for state 'ghost'"),
    )
    for bad, message in cases:
        other = ghost if bad is short else short
        ds = ss.OfflineDataset(good * 500 + (bad,) + good + (other,), "b", 0)
        with pytest.raises(ModelMismatch) as exc:
            ss.empirical_segments(ds, model)
        assert str(exc.value) == message


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_grouping_does_not_depend_on_which_equal_objects_repeat(seed):
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=5)
    model = random_model(rng, mdp)
    shared = ss.sample_dataset(mdp, half_behavior(mdp), rng.randint(1, 80), seed)
    # The same trajectories, each position the shared object, a fresh equal
    # copy, or a copy made earlier for the same object.
    copies: dict[int, list] = {}
    mixed = []
    for traj in shared.trajectories:
        made = copies.setdefault(id(traj), [])
        kind = rng.randrange(3)
        if kind == 0:
            mixed.append(traj)
        elif kind == 1 or not made:
            made.append(_with_fresh_rewards(traj))
            mixed.append(made[-1])
        else:
            mixed.append(rng.choice(made))
    equal = ss.OfflineDataset(tuple(mixed), shared.behavior_id, shared.seed)
    assert equal == shared
    assert serialize_dataset(equal) == serialize_dataset(shared)
    assert ss.empirical_segments(equal, model) == ss.empirical_segments(shared, model)


def test_an_empty_dataset_has_no_segment_frequencies(prefix3):
    # Once: an empty dataset was tallied, and its TV distance read 1/2 at
    # every start.
    _, model = prefix3
    with pytest.raises(InvalidParam, match=re.escape("dataset.n must be >= 1, got 0")):
        ss.empirical_segments(ss.OfflineDataset((), "b", 0), model)


def test_an_empty_dataset_cannot_be_built():
    with pytest.raises(InvalidParam, match=re.escape("dataset.n must be >= 1, got 0")):
        ss.OfflineDataset((), "b", 0)


@pytest.mark.parametrize("n_states, n_actions, n_rewards", [(5, 2, 1), (5, 4, 3)])
def test_a_trajectory_refuses_a_bad_shape_where_it_is_built(n_states, n_actions, n_rewards):
    # Once: a Trajectory checked nothing, and `empirical_segments` turned 5
    # states, 2 actions and 1 reward into a segment with 1 action and no
    # rewards. The second shape fits its actions to its states but not its
    # rewards.
    shape = f"({n_states} states, {n_actions} actions, {n_rewards} rewards)"
    with pytest.raises(InvalidTrajectory, match=re.escape(shape)):
        ss.Trajectory(("s",) * n_states, ("a",) * n_actions, (Fraction(0),) * n_rewards)
    ss.Trajectory(("s",) * n_states, ("a",) * (n_states - 1), (Fraction(0),) * (n_states - 1))  # the shape that fits


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_dataset_cropper_agrees_with_observe(seed):
    # `empirical_segments` crops without an MDP and `observe` with one: on a
    # sampled trajectory, which both take, they give the same segments.
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=5)
    model = random_model(rng, mdp)
    ds = ss.sample_dataset(mdp, half_behavior(mdp), rng.randint(1, 20), seed)
    for traj in ds.trajectories:
        stats = ss.empirical_segments(ss.OfflineDataset((traj,), ds.behavior_id, ds.seed), model)
        assert stats.per_start == tuple((seg.start, ((seg, 1),)) for seg in ss.observe(mdp, traj, model))


def test_duplicate_and_unordered_starts_are_tallied_once_per_start():
    # Once: with window starts (1, 1, 0), start 1 tallied 400 segments of
    # 200 trajectories and its TV distance read 1/2.
    mdp, model = ss.build_greedy(2, 20)
    behavior = half_behavior(mdp)
    raw = ss.ObservationModel(2, (1, 1, 0), model.phi)
    canonical = ss.ObservationModel.make(2, (0, 1), model.phi_map)
    ds = ss.sample_dataset(mdp, behavior, 200, 0)
    stats = ss.empirical_segments(ds, raw)
    assert {t: sum(c for _, c in items) for t, items in stats.per_start} == {0: 200, 1: 200}
    exact = ss.segment_distribution(mdp, behavior, canonical)
    tv = ss.tv_distance(ss.empirical_segments(ds, canonical), exact)
    assert ss.tv_distance(stats, exact) == tv == {0: Fraction(3, 40), 1: Fraction(3, 40)}
    # Equal models built in different orders are one model: no ModelMismatch.
    reordered = ss.ObservationModel(2, (1, 0), tuple(reversed(model.phi)))
    assert ss.distributions_equal(exact, ss.segment_distribution(mdp, behavior, reordered))
    assert ss.tv_distance(ss.empirical_segments(ds, reordered), exact) == tv
