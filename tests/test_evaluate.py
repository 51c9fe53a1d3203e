import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import shortsight as ss
from shortsight.errors import InvalidParam, PolicyMismatch

from conftest import half_behavior
from oracle import all_stationary_policies, oracle_full_return, oracle_occupancy, oracle_truncated_return
from randmdp import random_mdp


def test_prefix_returns(prefix3):
    mdp, _ = prefix3
    pol_l, pol_r = ss.commit_policies(mdp)
    assert ss.full_return(mdp, pol_l) == 1
    assert ss.full_return(mdp, pol_r) == 0


def test_greedy_returns(greedy310):
    mdp, _ = greedy310
    all_greedy, all_patient = ss.greedy_policies(mdp)
    assert ss.full_return(mdp, all_patient) == 0
    assert ss.full_return(mdp, all_greedy) == -6  # (H+1) - M = 4 - 10
    assert ss.truncated_return(mdp, all_greedy, 3) == 4  # H+1 reward terms
    assert ss.truncated_return(mdp, all_patient, 3) == 0


def test_truncation_beyond_horizon_is_identity():
    for mdp, _ in (ss.build_prefix(2), ss.build_greedy(2, 5), ss.build_aliasing(2)):
        for pol in all_stationary_policies(mdp):
            full = ss.full_return(mdp, pol)
            assert ss.truncated_return(mdp, pol, mdp.horizon - 1) == full
            assert ss.truncated_return(mdp, pol, mdp.horizon + 7) == full


def test_truncated_rejects_negative_index(prefix3):
    mdp, _ = prefix3
    pol, _ = ss.commit_policies(mdp)
    with pytest.raises(InvalidParam, match="last_step must be >= 0, got -1"):
        ss.truncated_return(mdp, pol, -1)
    with pytest.raises(InvalidParam, match="last_step must be >= 0, got -1"):
        ss.check_objective_consistency(mdp, -1)


@pytest.mark.parametrize("last_step", [True, 1.5, None, "1"])
def test_last_step_must_be_an_integer(prefix3, last_step):
    mdp, _ = prefix3
    pol, _ = ss.commit_policies(mdp)
    message = re.escape(f"last_step must be an integer, got {last_step!r}")
    with pytest.raises(InvalidParam, match=message):
        ss.truncated_return(mdp, pol, last_step)
    with pytest.raises(InvalidParam, match=message):
        ss.check_objective_consistency(mdp, last_step)


def test_occupancy_prefix_point_masses(prefix3):
    mdp, _ = prefix3
    pol_l, _ = ss.commit_policies(mdp)
    occ = ss.occupancy(mdp, pol_l)
    assert occ.rows[0] == mdp.initial
    assert occ.distribution(0) == {mdp.index("s0"): Fraction(1)}
    assert occ.distribution(1) == {mdp.index("s1_L"): Fraction(1)}
    for t in range(mdp.horizon + 1):
        assert sum(occ.rows[t]) == 1


def test_occupancy_symmetric_chain_mixes_immediately():
    # Frozen oracle: P = [[1/2,1/2],[1/2,1/2]] from a point mass gives the
    # uniform row (1/2, 1/2) at every t >= 1 (hand matrix powers).
    half = Fraction(1, 2)
    mdp = ss.build_mdp(
        states=["a", "b"],
        actions={"a": ["go"], "b": ["go"]},
        transitions={
            ("a", "go"): [("a", half, 0), ("b", half, 0)],
            ("b", "go"): [("a", half, 0), ("b", half, 0)],
        },
        horizon=3,
        initial={"a": 1},
    )
    pol = ss.make_stationary(mdp)
    occ = ss.occupancy(mdp, pol)
    assert occ.rows[0] == (1, 0)
    for t in range(1, 4):
        assert occ.rows[t] == (half, half)
    # independent matrix-power recomputation
    row = [Fraction(1), Fraction(0)]
    P = [[half, half], [half, half]]
    for t in range(1, 4):
        row = [sum(row[i] * P[i][j] for i in range(2)) for j in range(2)]
        assert tuple(row) == occ.rows[t]


def test_forward_dp_matches_trajectory_enumeration():
    rng = random.Random(81)
    for _ in range(40):
        mdp = random_mdp(rng)
        policies = list(all_stationary_policies(mdp))
        policies.append(half_behavior(mdp))
        for pol in policies:
            assert ss.full_return(mdp, pol) == oracle_full_return(mdp, pol)
            h = rng.randint(0, mdp.horizon)
            assert ss.truncated_return(mdp, pol, h) == oracle_truncated_return(mdp, pol, h)
            occ = ss.occupancy(mdp, pol)
            assert list(occ.rows) == oracle_occupancy(mdp, pol)


def test_occupancy_rows_sum_to_one_random():
    rng = random.Random(9)
    for _ in range(25):
        mdp = random_mdp(rng)
        occ = ss.occupancy(mdp, half_behavior(mdp))
        for row in occ.rows:
            assert sum(row) == 1


@given(st.integers(0, 10**9), st.fractions(min_value=Fraction(1, 7), max_value=7))
def test_reward_scaling_scales_returns(seed, scale):
    mdp = random_mdp(random.Random(seed))
    scaled = ss.TabularMDP(
        mdp.states,
        mdp.actions,
        tuple(
            tuple(tuple((s2, p, r * scale) for s2, p, r in outs) for outs in per_state)
            for per_state in mdp.transitions
        ),
        mdp.horizon,
        mdp.initial,
        mdp.terminal,
    )
    pol = next(iter(all_stationary_policies(mdp)))
    assert ss.full_return(scaled, pol) == scale * ss.full_return(mdp, pol)
    assert ss.truncated_return(scaled, pol, 1) == scale * ss.truncated_return(mdp, pol, 1)
    # positive scaling leaves the policy argmax sets untouched
    base = ss.check_objective_consistency(mdp, 1)
    after = ss.check_objective_consistency(scaled, 1)
    assert base.truncated_argmax == after.truncated_argmax
    assert base.full_argmax == after.full_argmax


def test_truncation_step_difference_is_occupancy_weighted_reward(greedy310):
    # Adding one more reward term changes the truncated return by exactly the
    # expected reward collected at that step.
    mdp, _ = greedy310
    pol = half_behavior(mdp)
    rewards = ss.step_rewards(mdp, pol)
    for h in range(mdp.horizon - 1):
        diff = ss.truncated_return(mdp, pol, h + 1) - ss.truncated_return(mdp, pol, h)
        assert diff == rewards[h + 1]


def test_policy_mismatch_on_horizon(prefix3):
    mdp, _ = prefix3
    other, _ = ss.build_prefix(4)
    pol, _ = ss.commit_policies(other)
    with pytest.raises(PolicyMismatch):
        ss.full_return(mdp, pol)


def test_policy_mismatch_on_missing_cell():
    mdp, _ = ss.build_prefix(2)
    pol = ss.Policy("deterministic", mdp.horizon, ({},) * mdp.horizon, True)
    with pytest.raises(PolicyMismatch):
        ss.full_return(mdp, pol)


def test_public_entry_points_check_the_policy_once(prefix3):
    # Every public entry point checks a caller's policy with validate_policy
    # before the engine, which trusts it, runs.
    mdp, model = prefix3
    row = {mdp.index("s0"): ((0, Fraction(1, 2)),)}
    bad = ss.Policy("stochastic", mdp.horizon, (row,) * mdp.horizon, True)
    calls = (
        ss.step_rewards,
        ss.full_return,
        ss.occupancy,
        lambda mdp, pol: ss.truncated_return(mdp, pol, 1),
        lambda mdp, pol: ss.segment_distribution(mdp, pol, model),
    )
    for call in calls:
        with pytest.raises(PolicyMismatch, match="does not sum to 1"):
            call(mdp, bad)


def test_a_horizon_past_the_recursion_limit_evaluates():
    # The engine's walk keeps its own stack: a one-state chain longer than
    # the interpreter's recursion limit still evaluates, one step per time.
    horizon = sys.getrecursionlimit() + 500
    mdp = ss.build_mdp(["a"], {"a": ["x"]}, {("a", "x"): [("a", 1, 1)]}, horizon, {"a": 1}, [])
    pol = ss.make_stationary(mdp, {"a": "x"})
    assert ss.full_return(mdp, pol) == horizon
    assert ss.truncated_return(mdp, pol, 9) == 10
    occ = ss.occupancy(mdp, pol)
    assert len(occ.rows) == horizon + 1 and all(row == (1,) for row in occ.rows)
    model = ss.ObservationModel.make(1, [0, horizon - 1], {"a": "f"})
    dist = ss.segment_distribution(mdp, pol, model)
    assert [len(dist.table(t)) for t in dist.starts] == [1, 1]


def test_single_policy_entry_points_reject_an_invalid_mdp():
    # The only row of a sums to 1/2: every entry point refuses to evaluate it.
    mdp = ss.build_mdp(["a", "b"], {"a": ["x"]}, {("a", "x"): [("b", Fraction(1, 2), 1)]}, 1, {"a": 1}, ["b"])
    assert ss.validate_mdp(mdp) == ["probabilities for (a, x) sum to 1/2, expected 1"]
    policy = ss.make_stationary(mdp, {"a": "x"})
    model = ss.ObservationModel.make(1, [0], ss.identity_phi(mdp))
    calls = [
        lambda: ss.full_return(mdp, policy),
        lambda: ss.truncated_return(mdp, policy, 0),
        lambda: ss.occupancy(mdp, policy),
        lambda: ss.step_rewards(mdp, policy),
        lambda: ss.segment_distribution(mdp, policy, model),
        lambda: ss.sample_dataset(mdp, policy, 1, 0),
    ]
    for call in calls:
        with pytest.raises(InvalidParam, match=r"\(a, x\) sum to 1/2"):
            call()
