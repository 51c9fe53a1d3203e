import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import shortsight as ss
from shortsight.errors import InvalidTrajectory, ModelMismatch

from conftest import half_behavior
from oracle import (
    all_stationary_policies,
    oracle_full_return,
    oracle_occupancy,
    oracle_segments,
    oracle_truncated_return,
    plain_from_library,
    support_trajectories,
)
from randmdp import random_mdp, random_model


def one_trajectory(mdp, policy):
    trajs = support_trajectories(mdp, policy)
    assert len(trajs) == 1
    _, states, actions, rewards = trajs[0]
    return ss.Trajectory(states, actions, rewards)


def test_observe_aliases_branch_states(aliasing3):
    mdp, model = aliasing3
    pol_l, pol_r = ss.commit_policies(mdp)
    segs = ss.observe(mdp, one_trajectory(mdp, pol_l), model)
    assert len(segs) == 1
    assert segs[0].start == 1
    assert segs[0].features == ("w1", "w2", "w3", "w4")
    # the same window under the other branch is identical
    assert ss.observe(mdp, one_trajectory(mdp, pol_r), model) == segs


def test_observe_identity_full_window_is_the_trajectory(prefix3):
    mdp, _ = prefix3
    pol_l, _ = ss.commit_policies(mdp)
    traj = one_trajectory(mdp, pol_l)
    model = ss.ObservationModel.make(mdp.horizon, (0,), ss.identity_phi(mdp))
    (seg,) = ss.observe(mdp, traj, model)
    assert seg.features == traj.states
    assert seg.actions == traj.actions
    assert seg.rewards == traj.rewards


def test_observe_prefix_windows_identical_under_both_commitments(prefix3):
    mdp, model = prefix3
    pol_l, pol_r = ss.commit_policies(mdp)
    assert ss.observe(mdp, one_trajectory(mdp, pol_l), model) == ss.observe(
        mdp, one_trajectory(mdp, pol_r), model
    )


def test_segment_shape_follows_flags(prefix3):
    mdp, model = prefix3
    pol_l, _ = ss.commit_policies(mdp)
    traj = one_trajectory(mdp, pol_l)
    for oa in (True, False):
        for orw in (True, False):
            variant = ss.ObservationModel.make(
                model.window_length, model.window_starts, model.phi_map, oa, orw
            )
            (seg,) = ss.observe(mdp, traj, variant)
            assert len(seg.features) == variant.window_length + 1
            assert (seg.actions is None) == (not oa)
            assert (seg.rewards is None) == (not orw)
            if oa:
                assert len(seg.actions) == variant.window_length
            if orw:
                assert len(seg.rewards) == variant.window_length
            dist = ss.segment_distribution(mdp, pol_l, variant)
            (only,) = dist.table(1)
            assert only == seg  # deterministic chain: the one segment observed


def test_observe_rejects_unsupported_transitions(prefix3):
    mdp, model = prefix3
    pol_l, _ = ss.commit_policies(mdp)
    traj = one_trajectory(mdp, pol_l)
    # teleport where no transition exists
    broken = ss.Trajectory(
        ("s0", "s1_R") + traj.states[2:], traj.actions, traj.rewards
    )
    with pytest.raises(InvalidTrajectory):
        ss.observe(mdp, broken, model)
    # wrong reward on a supported edge
    bad_reward = ss.Trajectory(
        traj.states, traj.actions, (Fraction(9),) + traj.rewards[1:]
    )
    with pytest.raises(InvalidTrajectory):
        ss.observe(mdp, bad_reward, model)
    short = ss.Trajectory(traj.states[:-1], traj.actions[:-1], traj.rewards[:-1])
    with pytest.raises(InvalidTrajectory):
        ss.observe(mdp, short, model)


def test_prefix_distributions_identical(prefix3):
    mdp, model = prefix3
    pol_l, pol_r = ss.commit_policies(mdp)
    dist_l = ss.segment_distribution(mdp, pol_l, model)
    dist_r = ss.segment_distribution(mdp, pol_r, model)
    assert ss.distributions_equal(dist_l, dist_r)
    assert dist_l.per_start == dist_r.per_start


def test_aliasing_identity_distributions_differ_vs_oracle(aliasing3):
    mdp, _ = aliasing3
    model = ss.ObservationModel.make(3, (1,), ss.identity_phi(mdp))
    pol_l, pol_r = ss.commit_policies(mdp)
    dist_l = ss.segment_distribution(mdp, pol_l, model)
    dist_r = ss.segment_distribution(mdp, pol_r, model)
    assert not ss.distributions_equal(dist_l, dist_r)
    # windows end at the final branch states, which identity phi keeps apart
    assert plain_from_library(dist_l) == oracle_segments(mdp, pol_l, model)
    assert plain_from_library(dist_r) == oracle_segments(mdp, pol_r, model)
    (seg_l,) = dist_l.table(1)
    (seg_r,) = dist_r.table(1)
    assert seg_l.features[-1] == "u4" and seg_r.features[-1] == "v4"


def test_deterministic_single_path_is_point_mass(greedy310):
    mdp, model = greedy310
    all_greedy, _ = ss.greedy_policies(mdp)
    dist = ss.segment_distribution(mdp, all_greedy, model)
    for start, items in dist.per_start:
        assert len(items) == 1
        assert items[0][1] == 1


def test_distribution_sums_to_one_per_start():
    rng = random.Random(31)
    for _ in range(30):
        mdp = random_mdp(rng)
        model = random_model(rng, mdp)
        dist = ss.segment_distribution(mdp, half_behavior(mdp), model)
        assert dist.starts == tuple(sorted(model.window_starts))
        for _, items in dist.per_start:
            assert sum(p for _, p in items) == 1


def test_segment_distribution_matches_oracle_random():
    rng = random.Random(47)
    for _ in range(25):
        mdp = random_mdp(rng)
        model = random_model(rng, mdp)
        for pol in (half_behavior(mdp), next(iter(all_stationary_policies(mdp)))):
            dist = ss.segment_distribution(mdp, pol, model)
            assert plain_from_library(dist) == oracle_segments(mdp, pol, model)


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    policy_kind=st.sampled_from(["stationary", "nonstationary", "half"]),
    observe_actions=st.booleans(),
    observe_rewards=st.booleans(),
    coarse=st.booleans(),
)
def test_engine_matches_oracle_on_every_view(seed, policy_kind, observe_actions, observe_rewards, coarse):
    # Action labels are drawn per state from one pool of two, in either
    # order, so one label sits at different action ids at different states;
    # with `coarse`, rewards are 0 or 1, so equal reward values occur on
    # different transitions. Interning must merge both exactly as the
    # oracle's label tuples do.
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=5, max_horizon=4)
    mdp = ss.TabularMDP(
        mdp.states,
        tuple(acts if len(acts) != 2 else tuple(rng.sample(["x", "y"], 2)) for acts in mdp.actions),
        tuple(
            tuple(tuple((s2, p, Fraction(r > 0) if coarse else r) for s2, p, r in outs) for outs in row)
            for row in mdp.transitions
        ),
        mdp.horizon,
        mdp.initial,
        mdp.terminal,
    )
    model = random_model(rng, mdp)
    model = ss.ObservationModel.make(
        model.window_length, model.window_starts, model.phi_map, observe_actions, observe_rewards
    )
    if policy_kind == "half":
        policy = half_behavior(mdp)
    else:
        stationary = policy_kind == "stationary"
        policy = ss.mdp.policy_at_index(mdp, rng.randrange(ss.policy_class_size(mdp, stationary)), stationary)

    dist = ss.segment_distribution(mdp, policy, model)
    assert plain_from_library(dist) == oracle_segments(mdp, policy, model)
    last_step = rng.randint(0, mdp.horizon)
    assert ss.full_return(mdp, policy) == oracle_full_return(mdp, policy)
    assert ss.truncated_return(mdp, policy, last_step) == oracle_truncated_return(mdp, policy, last_step)
    assert sum(ss.step_rewards(mdp, policy), Fraction(0)) == oracle_full_return(mdp, policy)
    assert list(ss.occupancy(mdp, policy).rows) == oracle_occupancy(mdp, policy)


@pytest.mark.parametrize("observe_actions", [True, False])
@pytest.mark.parametrize("observe_rewards", [True, False])
def test_segments_come_in_sort_key_order(observe_actions, observe_rewards):
    # The engine interns "f2" before "f10", action "y" before "x" and
    # rewards in no value order, so neither id order nor string order of
    # the ids can stand in for `ObservedSegment.sort_key` order.
    half = Fraction(1, 2)
    mdp = ss.build_mdp(
        states=["s0", "s1", "s2", "s3"],
        actions={s: ["y", "x"] for s in ["s0", "s1", "s2", "s3"]},
        transitions={
            (s, a): [(f"s{(k + shift) % 4}", half, r1), (f"s{(k + shift + 1) % 4}", half, r2)]
            for k, s in enumerate(["s0", "s1", "s2", "s3"])
            for a, shift, r1, r2 in (("y", 1, Fraction(3, 2), Fraction(-1)), ("x", 2, Fraction(-3, 2), Fraction(0)))
        },
        horizon=4,
        initial={"s0": 1},
    )
    phi = {"s0": "f2", "s1": "f10", "s2": "f2", "s3": "f1"}
    model = ss.ObservationModel(2, (0, 1, 2), phi, observe_actions, observe_rewards)
    dist = ss.segment_distribution(mdp, half_behavior(mdp), model)
    assert plain_from_library(dist) == oracle_segments(mdp, half_behavior(mdp), model)
    for _, items in dist.per_start:
        keys = [seg.sort_key() for seg, _ in items]
        assert len(keys) > 1
        assert keys == sorted(set(keys))


@pytest.mark.parametrize("observe_actions", [True, False])
@pytest.mark.parametrize("observe_rewards", [True, False])
@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1))
def test_per_start_is_sorted_by_sort_key(observe_actions, observe_rewards, seed):
    # The engine interns values in sorted order and sorts segments on their
    # symbols' ids, so the order must be `ObservedSegment.sort_key`'s.
    # Features "f7" and "f14" and shuffled action labels make first-seen
    # order, string order and numeric order disagree.
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=6, max_horizon=4)
    mdp = dataclasses.replace(
        mdp, actions=tuple(acts if len(acts) != 2 else tuple(rng.sample(["x", "y"], 2)) for acts in mdp.actions)
    )
    model = random_model(rng, mdp)
    phi = {s: f"f{7 * int(f[1:])}" for s, f in model.phi}
    model = ss.ObservationModel(model.window_length, model.window_starts, phi, observe_actions, observe_rewards)
    for _, items in ss.segment_distribution(mdp, half_behavior(mdp), model).per_start:
        keys = [seg.sort_key() for seg, _ in items]
        assert keys == sorted(set(keys))


def test_coarsening_preserves_equality():
    # if two policies are indistinguishable under phi, they stay
    # indistinguishable under any g(phi)
    for mdp, model in (ss.build_prefix(3), ss.build_aliasing(3)):
        pol_l, pol_r = ss.commit_policies(mdp)
        assert ss.distributions_equal(
            ss.segment_distribution(mdp, pol_l, model),
            ss.segment_distribution(mdp, pol_r, model),
        )
        features = {f for _, f in model.phi}
        target = sorted(features)[0]
        merged = ss.coarsen(model, {f: target for f in features})
        assert ss.distributions_equal(
            ss.segment_distribution(mdp, pol_l, merged),
            ss.segment_distribution(mdp, pol_r, merged),
        )


@given(st.integers(0, 10**9))
def test_full_window_distribution_reconstructs_return(seed):
    mdp = random_mdp(random.Random(seed))
    model = ss.ObservationModel.make(mdp.horizon, (0,), ss.identity_phi(mdp))
    pol = half_behavior(mdp)
    dist = ss.segment_distribution(mdp, pol, model)
    ((_, items),) = dist.per_start
    rebuilt = sum((p * sum(seg.rewards, Fraction(0)) for seg, p in items), Fraction(0))
    assert rebuilt == ss.full_return(mdp, pol)


def test_exactness_with_awkward_rationals():
    # primes and huge denominators end to end: sums must still be exactly 1
    # and the DP must agree with trajectory enumeration to the last digit
    p = Fraction(10**18 + 9, 3 * 10**18)
    q = 1 - p
    r1 = Fraction(22, 7)
    r2 = Fraction(-355, 113)
    mdp = ss.build_mdp(
        states=["a", "b", "c"],
        actions={"a": ["go"], "b": ["go"], "c": ["go"]},
        transitions={
            ("a", "go"): [("b", p, r1), ("c", q, r2)],
            ("b", "go"): [("a", Fraction(1, 97), 0), ("c", Fraction(96, 97), r1)],
            ("c", "go"): [("c", 1, r2)],
        },
        horizon=4,
        initial={"a": Fraction(1, 3), "b": Fraction(2, 3)},
    )
    assert ss.validate_mdp(mdp) == []
    pol = ss.make_stationary(mdp)
    assert ss.full_return(mdp, pol) == oracle_full_return(mdp, pol)
    model = ss.ObservationModel.make(2, (0, 1, 2), ss.identity_phi(mdp))
    dist = ss.segment_distribution(mdp, pol, model)
    for _, items in dist.per_start:
        assert sum(x for _, x in items) == 1
    assert plain_from_library(dist) == oracle_segments(mdp, pol, model)


def test_distributions_equal_reflexive_and_model_checked(prefix3):
    mdp, model = prefix3
    pol_l, _ = ss.commit_policies(mdp)
    dist = ss.segment_distribution(mdp, pol_l, model)
    assert ss.distributions_equal(dist, dist)
    other = ss.ObservationModel.make(
        model.window_length, model.window_starts, ss.identity_phi(mdp)
    )
    dist_other = ss.segment_distribution(mdp, pol_l, other)
    with pytest.raises(ModelMismatch):
        ss.distributions_equal(dist, dist_other)


def test_model_validation_rejects_bad_starts_and_partial_phi(prefix3):
    mdp, model = prefix3
    out_of_range = ss.ObservationModel.make(3, (9,), ss.identity_phi(mdp))
    pol_l, _ = ss.commit_policies(mdp)
    with pytest.raises(ModelMismatch):
        ss.segment_distribution(mdp, pol_l, out_of_range)
    partial = ss.ObservationModel.make(3, (1,), {"s0": "s0"})
    with pytest.raises(ModelMismatch):
        ss.segment_distribution(mdp, pol_l, partial)
    assert ss.validate_model(mdp, model) == []


@pytest.mark.parametrize(
    "args, field",
    [
        ((2.7, [0], {"a": "b"}), "window_length"),
        ((True, [0], {"a": "b"}), "window_length"),
        ((2, [0.9], {"a": "b"}), "window_starts"),
        ((2, [False], {"a": "b"}), "window_starts"),
        ((2, [0], {"a": "b"}, "false"), "observe_actions"),
        ((2, [0], {"a": "b"}, True, 0), "observe_rewards"),
    ],
)
def test_model_make_checks_instead_of_coercing(args, field):
    with pytest.raises(ss.InvalidParam, match=field):
        ss.ObservationModel.make(*args)


def test_model_make_accepts_ints_and_bools():
    model = ss.ObservationModel.make(2, [1, 0, 1], {"a": "b"}, observe_actions=False, observe_rewards=True)
    assert (model.window_length, model.window_starts) == (2, (0, 1))
    assert (model.observe_actions, model.observe_rewards) == (False, True)


def test_a_model_is_canonical_whatever_builds_it():
    # Once: the constructor and `replace` kept starts as given, so
    # ObservationModel(2, (1, 1, 0), phi) passed validation and counted
    # start 1 twice downstream.
    _, model = ss.build_greedy(2, 20)
    canonical = ss.ObservationModel.make(2, (0, 1), model.phi_map)
    assert ss.ObservationModel(2, (1, 1, 0), model.phi) == canonical
    assert ss.ObservationModel(2, [1, 0], tuple(reversed(model.phi))) == canonical
    assert dataclasses.replace(canonical, window_starts=(1, 1, 0)) == canonical
    assert dataclasses.replace(canonical, phi=model.phi_map) == canonical
    assert canonical.window_starts == (0, 1) and canonical.phi == model.phi


def test_observe_refuses_an_mdp_with_a_missing_actions_table(prefix3):
    # Once: observe was the one public call on an MDP that did not check it,
    # and this MDP raised a raw IndexError.
    mdp, model = prefix3
    pol_l, _ = ss.commit_policies(mdp)
    traj = one_trajectory(mdp, pol_l)
    with pytest.raises(ss.InvalidParam, match="do not cover every state"):
        ss.observe(dataclasses.replace(mdp, actions=()), traj, model)


def test_observe_refuses_an_mdp_whose_probabilities_do_not_sum_to_one():
    # Once: observe accepted this MDP silently.
    mdp = ss.build_mdp(["a", "b"], {"a": ["x"]}, {("a", "x"): [("b", Fraction(1, 2), 1)]}, 1, {"a": 1}, ["b"])
    model = ss.ObservationModel.make(1, (0,), ss.identity_phi(mdp))
    traj = ss.Trajectory(("a", "b"), ("x",), (Fraction(1),))
    with pytest.raises(ss.InvalidParam, match=r"\(a, x\) sum to 1/2"):
        ss.observe(mdp, traj, model)
