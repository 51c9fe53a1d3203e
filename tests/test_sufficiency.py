import random
import re
from collections import Counter
from fractions import Fraction
from itertools import islice, permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shortsight as ss
from shortsight import observation, sufficiency
from shortsight.cli import _describe_policies

from oracle import (
    all_nonstationary_policies,
    all_stationary_policies,
    oracle_full_return,
    oracle_ordering,
    oracle_pair_indistinguishable,
    oracle_sufficient,
    oracle_truncated_return,
    oracle_witness,
)
from randmdp import dense_mdp, random_mdp, random_model
from test_goldens import workloads  # the benchmark's input builders


def test_prefix_not_sufficient_with_commit_witness(prefix3):
    mdp, model = prefix3
    verdict = ss.check_sufficiency(mdp, model)
    assert not verdict.sufficient
    w = verdict.witness
    assert (w.index_a, w.index_b) == (0, 1)
    assert (w.return_a, w.return_b) == (Fraction(1), Fraction(0))
    assert w.gap == 1
    assert w.policy_a.describe(mdp) == "s0=L"
    assert w.policy_b.describe(mdp) == "s0=R"
    assert verdict.policy_class.kind == "deterministic-stationary"
    assert verdict.policy_class.enumerated == 2
    assert not verdict.policy_class.truncated


def test_aliasing_identity_phi_sufficient(aliasing3):
    mdp, _ = aliasing3
    model = ss.ObservationModel.make(3, (1,), ss.identity_phi(mdp))
    verdict = ss.check_sufficiency(mdp, model)
    assert verdict.sufficient
    assert verdict.witness is None
    # independent bucket check over the same (two-policy) class
    assert oracle_sufficient(mdp, model, list(all_stationary_policies(mdp)))


def test_single_state_single_action_sufficient():
    mdp = ss.build_mdp(
        states=["only"],
        actions={"only": ["stay"]},
        transitions={("only", "stay"): [("only", 1, 0)]},
        horizon=2,
        initial={"only": 1},
    )
    model = ss.ObservationModel.make(1, (0,), ss.identity_phi(mdp))
    verdict = ss.check_sufficiency(mdp, model)
    assert verdict.sufficient and verdict.policy_class.enumerated == 1


def test_witness_replays_exactly(prefix3, aliasing3):
    for mdp, model in (prefix3, aliasing3):
        verdict = ss.check_sufficiency(mdp, model)
        w = verdict.witness
        dist_a = ss.segment_distribution(mdp, w.policy_a, model)
        dist_b = ss.segment_distribution(mdp, w.policy_b, model)
        assert ss.distributions_equal(dist_a, dist_b)
        assert ss.full_return(mdp, w.policy_a) == w.return_a
        assert ss.full_return(mdp, w.policy_b) == w.return_b
        assert w.return_a - w.return_b == w.gap != 0


def test_verdict_is_deterministic(prefix3):
    mdp, model = prefix3
    a = ss.check_sufficiency(mdp, model)
    b = ss.check_sufficiency(mdp, model)
    assert a == b


def test_cap_scopes_the_verdict(greedy310):
    mdp, model = greedy310
    verdict = ss.check_sufficiency(mdp, model, cap=3)
    assert verdict.policy_class.truncated
    assert verdict.policy_class.enumerated == 3
    assert verdict.policy_class.total == 2 ** 7
    assert "enumerated subset" in verdict.policy_class.describe()


def test_nonstationary_class_is_opt_in(prefix3):
    mdp, model = prefix3
    verdict = ss.check_sufficiency(mdp, model, stationary=False)
    assert verdict.policy_class.kind == "deterministic-nonstationary"
    assert verdict.policy_class.enumerated == 2 ** mdp.horizon
    assert not verdict.sufficient


def test_ordering_greedy_disjoint_argmax(greedy310):
    mdp, _ = greedy310
    report = ss.check_objective_consistency(mdp, 3)
    assert report.best_truncated == 4
    assert report.best_full == 0
    assert not report.argmax_intersects
    assert not report.ordering_agrees
    all_greedy, all_patient = ss.greedy_policies(mdp)
    assert ss.truncated_return(mdp, all_greedy, 3) == report.best_truncated
    assert ss.full_return(mdp, all_patient) == report.best_full
    # every truncated argmax policy plays greedy along its path: index 0
    # (all-greedy) is first; all-patient is the last enumerated policy
    assert report.truncated_argmax[0] == 0
    assert report.full_argmax[-1] == report.policy_class.enumerated - 1


def test_ordering_identity_when_window_covers_horizon(prefix3):
    mdp, _ = prefix3
    report = ss.check_objective_consistency(mdp, mdp.horizon - 1)
    assert report.ordering_agrees
    assert report.argmax_intersects
    assert report.truncated_argmax == report.full_argmax


def _with_rewards(mdp, remap):
    return ss.TabularMDP(
        mdp.states,
        mdp.actions,
        tuple(
            tuple(tuple((s2, p, remap(r)) for s2, p, r in outs) for outs in per_state)
            for per_state in mdp.transitions
        ),
        mdp.horizon,
        mdp.initial,
        mdp.terminal,
    )


def test_ordering_constant_objective_is_consistent(prefix3):
    mdp, _ = prefix3
    zeroed = _with_rewards(mdp, lambda r: Fraction(0))
    report = ss.check_objective_consistency(zeroed, 1)
    assert report.ordering_agrees
    assert report.argmax_intersects
    assert len(report.truncated_argmax) == report.policy_class.enumerated


def test_ordering_argmax_nonempty_random():
    rng = random.Random(3)
    for _ in range(10):
        mdp = random_mdp(rng)
        report = ss.check_objective_consistency(mdp, rng.randint(0, mdp.horizon))
        assert report.truncated_argmax and report.full_argmax


def test_verdict_matches_oracle_on_random_mdps():
    rng = random.Random(1234)
    for _ in range(40):
        mdp = random_mdp(rng)
        model = random_model(rng, mdp)
        verdict = ss.check_sufficiency(mdp, model)
        expected = oracle_sufficient(mdp, model, list(all_stationary_policies(mdp)))
        assert verdict.sufficient == expected
        if not verdict.sufficient:
            w = verdict.witness
            assert oracle_pair_indistinguishable(mdp, model, w.policy_a, w.policy_b)


def test_ordering_agreement_matches_all_pairs_oracle():
    rng = random.Random(555)
    for _ in range(30):
        mdp = random_mdp(rng)
        h = rng.randint(0, mdp.horizon)
        report = ss.check_objective_consistency(mdp, h)
        policies = list(all_stationary_policies(mdp))
        trunc = [oracle_truncated_return(mdp, pol, h) for pol in policies]
        full = [oracle_full_return(mdp, pol) for pol in policies]
        agrees = all(
            (trunc[i] > trunc[j]) == (full[i] > full[j])
            and (trunc[i] == trunc[j]) == (full[i] == full[j])
            for i in range(len(policies))
            for j in range(i + 1, len(policies))
        )
        assert report.ordering_agrees == agrees
        best_t, best_f = max(trunc), max(full)
        assert report.truncated_argmax == tuple(i for i, v in enumerate(trunc) if v == best_t)
        assert report.full_argmax == tuple(i for i, v in enumerate(full) if v == best_f)


def test_witness_is_lexicographically_first_pair():
    rng = random.Random(777)
    seen_insufficient = 0
    for _ in range(60):
        mdp = random_mdp(rng)
        model = random_model(rng, mdp)
        verdict = ss.check_sufficiency(mdp, model)
        if verdict.sufficient:
            continue
        seen_insufficient += 1
        policies = list(all_stationary_policies(mdp))
        first = None
        for i in range(len(policies)):
            for j in range(i + 1, len(policies)):
                if oracle_pair_indistinguishable(mdp, model, policies[i], policies[j]) and (
                    oracle_full_return(mdp, policies[i]) != oracle_full_return(mdp, policies[j])
                ):
                    first = (i, j)
                    break
            if first:
                break
        assert first == (verdict.witness.index_a, verdict.witness.index_b)
        assert policies[first[0]] == verdict.witness.policy_a
        assert policies[first[1]] == verdict.witness.policy_b
    assert seen_insufficient >= 5  # the sample must actually exercise witnesses


def test_richer_model_witness_survives_coarsening():
    # any witness that survives under a refined interface is also a witness
    # under a coarsened one; assert it concretely on the counterexamples by
    # merging the terminal features (which no window reaches)
    for mdp, model in (ss.build_prefix(3), ss.build_aliasing(3)):
        verdict = ss.check_sufficiency(mdp, model)
        assert not verdict.sufficient
        merged = ss.coarsen(model, {"g": "end", "b": "end"})
        coarse = ss.check_sufficiency(mdp, merged)
        assert not coarse.sufficient
        w = verdict.witness
        assert ss.distributions_equal(
            ss.segment_distribution(mdp, w.policy_a, merged),
            ss.segment_distribution(mdp, w.policy_b, merged),
        )
        # and the refined (identity) interface has no surviving witness pair:
        # the coarse witness pair becomes distinguishable
        ident = ss.ObservationModel.make(
            model.window_length, model.window_starts, ss.identity_phi(mdp)
        )
        assert not ss.distributions_equal(
            ss.segment_distribution(mdp, w.policy_a, ident),
            ss.segment_distribution(mdp, w.policy_b, ident),
        )


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), stationary=st.booleans(), data=st.data())
def test_quotiented_checkers_match_brute_force(seed, stationary, data):
    rng = random.Random(seed)
    if stationary:
        mdp = random_mdp(rng, max_states=8, max_horizon=5)
    else:
        mdp = random_mdp(rng, max_states=4, max_horizon=3)
    total = ss.policy_class_size(mdp, stationary)
    assume(total <= 256)
    if data.draw(st.booleans(), label="coarse rewards"):
        # Rewards in {0, 1}: returns tie often, which exercises the tie
        # handling of witnesses, argmax sets and the ordering scan.
        mdp = _with_rewards(mdp, lambda r: Fraction(r > 0))
    model = random_model(rng, mdp)
    view = data.draw(st.sampled_from(["random", "blind", "actions", "rewards"]), label="view")
    if view != "random":
        # One feature: "blind" puts every policy in one bucket, "actions"
        # buckets on window actions alone and "rewards" on window rewards
        # alone, so most buckets violate.
        model = ss.ObservationModel.make(
            model.window_length,
            model.window_starts,
            {s: "f" for s in mdp.states},
            observe_actions=view == "actions",
            observe_rewards=view == "rewards",
        )
    last_step = rng.randint(0, mdp.horizon)
    cap = data.draw(st.one_of(st.integers(1, total), st.just(ss.DEFAULT_CAP)), label="cap")
    enumerate_class = all_stationary_policies if stationary else all_nonstationary_policies
    policies = list(islice(enumerate_class(mdp), cap))

    verdict = ss.check_sufficiency(mdp, model, stationary=stationary, cap=cap)
    pclass = verdict.policy_class
    assert (pclass.enumerated, pclass.total, pclass.truncated) == (len(policies), total, total > cap)
    expected = oracle_witness(mdp, model, policies)
    assert verdict.sufficient == (expected is None)
    if expected is not None:
        w = verdict.witness
        assert (w.index_a, w.index_b, w.return_a, w.return_b) == expected
        assert (w.policy_a, w.policy_b) == (policies[expected[0]], policies[expected[1]])

    report = ss.check_objective_consistency(mdp, last_step, stationary=stationary, cap=cap)
    t_argmax, f_argmax, best_t, best_f, agrees = oracle_ordering(mdp, policies, last_step)
    assert (report.truncated_argmax, report.full_argmax) == (t_argmax, f_argmax)
    assert (report.best_truncated, report.best_full) == (best_t, best_f)
    assert report.argmax_intersects == bool(set(t_argmax) & set(f_argmax))
    assert report.ordering_agrees == agrees
    assert _describe_policies(mdp, t_argmax, stationary) == [policies[i].describe(mdp) for i in t_argmax]
    assert _describe_policies(mdp, f_argmax, stationary) == [policies[i].describe(mdp) for i in f_argmax]
    assert report.policy_class == pclass


def _count_evaluations(monkeypatch):
    """Count calls of the walk's per-leaf step, run once per behaviour."""
    calls = Counter()
    inner = observation._Engine._leaf

    def wrapper(*args, **kwargs):
        calls["leaf"] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(observation._Engine, "_leaf", wrapper)
    return calls


def test_checkers_evaluate_behaviours_not_policies(monkeypatch):
    # Rewards hidden, so that the sufficiency check walks the class.
    mdp, model = ss.build_greedy(6, 10)
    hidden = ss.ObservationModel(model.window_length, model.window_starts, model.phi, model.observe_actions, False)
    calls = _count_evaluations(monkeypatch)
    verdict = ss.check_sufficiency(mdp, hidden)
    assert verdict.policy_class.enumerated == 8192
    assert calls == {"leaf": 128}

    calls.clear()
    report = ss.check_objective_consistency(mdp, 6)
    assert report.policy_class.enumerated == 8192
    assert calls == {"leaf": 128}


def _count_windows(monkeypatch, calls):
    """Count window DPs in `calls` too."""
    inner = observation._Engine.window

    def wrapper(*args, **kwargs):
        calls["window"] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(observation._Engine, "window", wrapper)


def test_window_dps_run_only_where_a_bucket_needs_them(monkeypatch):
    # The windows of these benchmark inputs span every step and show
    # rewards, so the tables fix the return and nothing is walked. With
    # rewards hidden, round 0 is one bucket and the last start's table
    # alone separates all 108 behaviours. A blind view keeps every bucket
    # through every round, and still no leaf runs more than one window DP
    # per start.
    mdp, model, _ = workloads.random_dense_docs(ss, 0, 7)
    calls = _count_evaluations(monkeypatch)
    _count_windows(monkeypatch, calls)
    assert ss.check_sufficiency(mdp, model).sufficient
    assert calls == {}

    calls.clear()
    assert ss.check_sufficiency(*ss.build_greedy(6, 80)).sufficient
    assert calls == {}

    calls.clear()
    hidden = ss.ObservationModel(model.window_length, model.window_starts, model.phi, True, False)
    assert ss.check_sufficiency(mdp, hidden).sufficient
    assert calls == {"leaf": 108, "window": 108}

    calls.clear()
    blind = ss.ObservationModel(model.window_length, model.window_starts, {s: "f" for s in mdp.states}, False, False)
    assert not ss.check_sufficiency(mdp, blind).sufficient
    assert calls == {"leaf": 108, "window": 432}
    assert calls["window"] <= calls["leaf"] * len(blind.window_starts)

    # Rewards shown on some steps only: round 0 buckets on those steps'
    # rewards, and the window DPs run only for the buckets it leaves mixed.
    # Without round 0 each of these runs 108 (one per leaf at the last start).
    for starts, sufficient, expected in (
        ((0,), False, {"leaf": 108, "window": 41}),
        ((1,), False, {"leaf": 108, "window": 6}),
        ((2, 3), True, {"leaf": 108}),
    ):
        calls.clear()
        partial = ss.ObservationModel(model.window_length, starts, model.phi)
        assert ss.check_sufficiency(mdp, partial).sufficient == sufficient
        assert calls == expected, starts


def _covering_starts(rng, horizon, window):
    """A random set of window starts whose windows span every step."""
    starts = {t for t in range(horizon - window + 1) if rng.random() < 0.5}
    for t in range(horizon):
        if not any(t0 <= t < t0 + window for t0 in starts):
            starts.add(min(t, horizon - window))
    return starts


@settings(max_examples=500)
@given(
    seed=st.integers(0, 2**32 - 1),
    stationary=st.booleans(),
    window=st.integers(1, 4),
    view=st.sampled_from(["every start", "blind", "start subset"]),
)
def test_every_refinement_order_gives_the_oracle_verdict(seed, stationary, window, view):
    # Refining on one start at a time is exact whatever the order of the
    # starts (at most 4 here, so at most 24 orders). With every start
    # taken and rewards shown, round 0 decides alone. So "start subset"
    # shows rewards at two to four of the starts of a horizon of 3 to 6,
    # with rewards in {0, 1} so that behaviours tie at the spanned steps
    # and differ elsewhere: round 0 then leaves mixed buckets for the later
    # rounds. A blind view puts every behaviour in one bucket at every
    # start, so it survives every round whenever returns differ.
    subset = view == "start subset"
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=6 if stationary else 3, max_horizon=4)
    if subset:
        longer = ss.TabularMDP(mdp.states, mdp.actions, mdp.transitions, mdp.horizon + 2, mdp.initial, mdp.terminal)
        mdp = _with_rewards(longer, lambda r: Fraction(r > 0))
    total = ss.policy_class_size(mdp, stationary)
    assume((8 if subset else 1) <= total <= 128)
    model = random_model(rng, mdp)
    window = min(window, mdp.horizon - 2 * subset)
    starts = range(mdp.horizon - window + 1)
    if subset:
        starts = rng.sample(starts, rng.randint(2, min(4, len(starts) - 1)))
    blind = view == "blind"
    model = ss.ObservationModel(
        window,
        starts,
        {s: "f" for s in mdp.states} if blind else model.phi,
        model.observe_actions and not blind,
        subset or (model.observe_rewards and not blind),
    )
    policies = list((all_stationary_policies if stationary else all_nonstationary_policies)(mdp))
    expected = oracle_witness(mdp, model, policies)
    for order in permutations(model.window_starts):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sufficiency, "_refinement_order", lambda starts: order)
            verdict = ss.check_sufficiency(mdp, model, stationary)
        assert verdict.sufficient == (expected is None)
        if expected is not None:
            w = verdict.witness
            assert (w.index_a, w.index_b, w.return_a, w.return_b) == expected


@pytest.mark.parametrize("stationary", [True, False])
@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1))
def test_windows_spanning_every_step_with_rewards_settle_without_window_dps(stationary, seed):
    # Tables that show rewards fix the expected reward of every step their
    # windows span; when the windows span every step, they fix the return,
    # so no two behaviours with equal tables differ in return, and the
    # verdict needs no walk.
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=6 if stationary else 3, max_horizon=4)
    assume(ss.policy_class_size(mdp, stationary) <= 128)
    window = rng.randint(1, mdp.horizon)
    phi = {s: f"f{rng.randrange(mdp.n_states)}" for s in mdp.states}
    model = ss.ObservationModel(window, _covering_starts(rng, mdp.horizon, window), phi, rng.random() < 0.5, True)
    policies = list((all_stationary_policies if stationary else all_nonstationary_policies)(mdp))
    assert oracle_witness(mdp, model, policies) is None
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_evaluations(mp)
        _count_windows(mp, calls)
        verdict = ss.check_sufficiency(mdp, model, stationary)
    assert verdict.sufficient
    assert calls == {}


def test_cap_bounds_the_checkers_on_a_huge_class(monkeypatch):
    # 2 ** 42 nonstationary policies, each its own behaviour: a small cap
    # must bound the evaluations, not just the reported scope.
    mdp = dense_mdp(7, 6)
    model = ss.ObservationModel.make(2, [0], {s: "f" for s in mdp.states})
    calls = _count_evaluations(monkeypatch)
    verdict = ss.check_sufficiency(mdp, model, stationary=False, cap=50)
    assert verdict.policy_class == ss.PolicyClass("deterministic-nonstationary", 50, 2**42, True)
    assert calls == {"leaf": 50}

    calls.clear()
    report = ss.check_objective_consistency(mdp, 2, stationary=False, cap=50)
    assert report.policy_class.enumerated == 50
    assert calls == {"leaf": 50}


def test_checkers_reject_an_invalid_mdp():
    # A non-terminal state without actions empties the class; the verdict
    # must not be a vacuous "sufficient" over zero policies.
    mdp = ss.build_mdp(
        ["s0", "dead", "end"],
        {"s0": ["a", "b"]},
        {("s0", "a"): [("end", 1, 1)], ("s0", "b"): [("end", 1, 0)]},
        1,
        {"s0": 1},
        ["end"],
    )
    model = ss.ObservationModel.make(1, [0], ss.identity_phi(mdp))
    with pytest.raises(ss.InvalidParam, match="state dead has no available actions"):
        ss.check_sufficiency(mdp, model)
    with pytest.raises(ss.InvalidParam, match="state dead has no available actions"):
        ss.check_objective_consistency(mdp, 0)


@pytest.mark.parametrize("cap", [0, -5])
def test_checkers_reject_a_cap_below_one(prefix3, cap):
    mdp, model = prefix3
    with pytest.raises(ss.InvalidParam, match="cap must be >= 1"):
        ss.check_sufficiency(mdp, model, cap=cap)
    with pytest.raises(ss.InvalidParam, match="cap must be >= 1"):
        ss.check_objective_consistency(mdp, 1, cap=cap)
    with pytest.raises(ss.InvalidParam, match="cap must be >= 1"):
        ss.verify_proposition(1, 2, cap=cap)


@pytest.mark.parametrize("stationary", ["no", 0, None])
def test_checkers_reject_a_stationary_flag_that_is_not_a_bool(prefix3, stationary):
    # Once: any truthy value walked the stationary class, any falsy one the
    # nonstationary class.
    mdp, model = prefix3
    message = re.escape(f"stationary must be a bool, got {stationary!r}")
    with pytest.raises(ss.InvalidParam, match=message):
        ss.check_sufficiency(mdp, model, stationary)
    with pytest.raises(ss.InvalidParam, match=message):
        ss.check_objective_consistency(mdp, 1, stationary)


@pytest.mark.parametrize("cap", [True, "10", 2.5, None])
def test_checkers_reject_a_cap_that_is_not_an_integer(prefix3, cap):
    # Once: True capped the class at one policy, "10" raised a raw
    # TypeError and 2.5 was accepted.
    mdp, model = prefix3
    message = re.escape(f"cap must be an integer, got {cap!r}")
    with pytest.raises(ss.InvalidParam, match=message):
        ss.check_sufficiency(mdp, model, cap=cap)
    with pytest.raises(ss.InvalidParam, match=message):
        ss.check_objective_consistency(mdp, 1, cap=cap)
    with pytest.raises(ss.InvalidParam, match=message):
        ss.verify_proposition(1, 2, cap=cap)


def test_witness_is_first_across_violating_buckets():
    # Under an actions-only view several buckets can violate at once; the
    # witness is the lexicographically smallest (i, j) among them, which is
    # not always the bucket with the smallest j.
    crossing = 0
    for seed in range(300):
        rng = random.Random(seed)
        mdp = random_mdp(rng)
        model = random_model(rng, mdp)
        model = ss.ObservationModel.make(
            model.window_length, model.window_starts, {s: "f" for s in mdp.states},
            observe_actions=True, observe_rewards=False,
        )
        policies = list(all_stationary_policies(mdp))
        expected = oracle_witness(mdp, model, policies)
        verdict = ss.check_sufficiency(mdp, model)
        if expected is None:
            assert verdict.sufficient
            continue
        w = verdict.witness
        assert (w.index_a, w.index_b, w.return_a, w.return_b) == expected
        later = oracle_witness(mdp, model, policies[expected[0] + 1 :])
        if later is not None and later[1] + expected[0] + 1 < expected[1]:
            crossing += 1
    assert crossing >= 2  # the sample must contain buckets whose j's cross


def test_ordering_disagrees_when_full_returns_tie():
    # L earns its reward at step 0 and R at step 1: the truncated objective
    # strictly prefers L, the full one ties them, so the orderings differ.
    mdp = ss.build_mdp(
        states=["s0", "a", "b", "end"],
        actions={"s0": ["L", "R"], "a": ["go"], "b": ["go"]},
        transitions={
            ("s0", "L"): [("a", 1, 1)],
            ("s0", "R"): [("b", 1, 0)],
            ("a", "go"): [("end", 1, 0)],
            ("b", "go"): [("end", 1, 1)],
        },
        horizon=2,
        initial={"s0": 1},
        terminal=["end"],
    )
    report = ss.check_objective_consistency(mdp, 0)
    assert report.truncated_argmax == (0,)
    assert report.full_argmax == (0, 1)
    assert report.argmax_intersects
    assert not report.ordering_agrees


def _first_choice(values):
    """A horizon-2 MDP whose one choice, at step 0, picks policy i's pair of
    (truncated return at last step 0, full return) from `values`; the walk
    meets the policies in order."""
    mids = [f"m{i}" for i in range(len(values))]
    transitions = {}
    for i, (trunc, full) in enumerate(values):
        transitions[("s0", f"c{i}")] = [(mids[i], 1, trunc)]
        transitions[(mids[i], "go")] = [("end", 1, full - trunc)]
    return ss.build_mdp(
        states=["s0", *mids, "end"],
        actions={"s0": [f"c{i}" for i in range(len(values))], **{m: ["go"] for m in mids}},
        transitions=transitions,
        horizon=2,
        initial={"s0": 1},
        terminal=["end"],
    )


def test_ordering_argmax_drops_the_members_of_a_lower_maximum():
    # The walk meets truncated values 0, 1, 0 and full values 0, 1, 2: each
    # objective's maximum rises after members were kept at a lower one.
    report = ss.check_objective_consistency(_first_choice([(0, 0), (1, 1), (0, 2)]), 0)
    assert (report.best_truncated, report.truncated_argmax) == (1, (1,))
    assert (report.best_full, report.full_argmax) == (2, (2,))
    assert not report.argmax_intersects


def test_ordering_agreement_needs_full_values_rising_with_truncated_ones():
    # No two policies tie in the truncated return, so no tie can break; the
    # orderings differ because the full return falls as the truncated one rises.
    assert not ss.check_objective_consistency(_first_choice([(0, 2), (1, 1)]), 0).ordering_agrees
    assert not ss.check_objective_consistency(_first_choice([(1, 1), (0, 2)]), 0).ordering_agrees
    assert ss.check_objective_consistency(_first_choice([(1, 1), (0, 0), (2, 3)]), 0).ordering_agrees


@pytest.mark.parametrize("values", [
    [(0, 2), (1, 1)],  # policy 1 raises the truncated maximum alone
    [(1, 1), (0, 2)],  # policy 1 raises the full maximum alone
])
def test_argmax_sets_are_disjoint_once_the_maxima_part(values):
    # Policy 0 is at both maxima until policy 1 raises one of them alone.
    report = ss.check_objective_consistency(_first_choice(values), 0)
    assert {report.truncated_argmax, report.full_argmax} == {(0,), (1,)}
    assert not report.argmax_intersects
