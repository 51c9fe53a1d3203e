import gc
import random
import re
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import shortsight as ss
from shortsight import mdp as mdp_module
from shortsight.mdp import Behaviour, _place_values, policy_at_index
from shortsight.observation import _Engine
from shortsight.sufficiency import _walk_class

from oracle import all_nonstationary_policies, all_stationary_policies, oracle_members, oracle_occupancy
from randmdp import dense_mdp, random_mdp


def oracle_class(mdp, stationary):
    enumerate_class = all_stationary_policies if stationary else all_nonstationary_policies
    return list(enumerate_class(mdp))


def two_action_chain():
    """One choice state feeding two sinks."""
    return ss.build_mdp(
        states=["s", "up", "down"],
        actions={"s": ["u", "d"]},
        transitions={
            ("s", "u"): [("up", 1, 1)],
            ("s", "d"): [("down", 1, 0)],
        },
        horizon=2,
        initial={"s": 1},
        terminal=["up", "down"],
    )


def test_generated_counterexamples_validate():
    for mdp, _ in (ss.build_prefix(3), ss.build_greedy(3, 10), ss.build_aliasing(3)):
        assert ss.validate_mdp(mdp) == []


def test_bad_probability_sum_names_state_action():
    mdp = ss.build_mdp(
        states=["s0", "t"],
        actions={"s0": ["L"], "t": ["stay"]},
        transitions={
            ("s0", "L"): [("t", Fraction(1, 2), 0)],
            ("t", "stay"): [("t", 1, 0)],
        },
        horizon=1,
        initial={"s0": 1},
    )
    problems = ss.validate_mdp(mdp)
    assert len(problems) == 1
    assert "s0" in problems[0] and "L" in problems[0] and "1/2" in problems[0]


def test_zero_action_state_names_state():
    mdp = ss.build_mdp(
        states=["s0", "dead"],
        actions={"s0": ["go"], "dead": []},
        transitions={("s0", "go"): [("dead", 1, 0)]},
        horizon=1,
        initial={"s0": 1},
    )
    problems = ss.validate_mdp(mdp)
    assert len(problems) == 1
    assert "dead" in problems[0]


def test_terminal_invariant_enforced():
    mdp = ss.build_mdp(
        states=["s0", "end"],
        actions={"s0": ["go"], "end": ["stay"]},
        transitions={
            ("s0", "go"): [("end", 1, 0)],
            ("end", "stay"): [("end", 1, 5)],  # nonzero self-loop reward
        },
        horizon=2,
        initial={"s0": 1},
        terminal=["end"],
    )
    problems = ss.validate_mdp(mdp)
    assert any("end" in p and "self-loop" in p for p in problems)


def test_validate_is_pure():
    mdp = two_action_chain()
    first = ss.validate_mdp(mdp)
    second = ss.validate_mdp(mdp)
    assert first == second == []


def test_a_valid_mdp_is_checked_once(mdp_checks):
    mdp = two_action_chain()
    equal = two_action_chain()
    for _ in range(3):
        assert ss.validate_mdp(mdp) == ss.validate_mdp(equal) == []
    # Once per object: an equal MDP built apart is checked on its own.
    assert [id(m) for m in mdp_checks] == [id(mdp), id(equal)]


def test_an_invalid_mdp_is_checked_and_refused_every_time(mdp_checks):
    mdp = ss.build_mdp(["a", "b"], {"a": ["x"]}, {("a", "x"): [("b", Fraction(1, 2), 1)]}, 1, {"a": 1}, ["b"])
    policy = ss.make_stationary(mdp, {"a": "x"})
    for _ in range(3):
        assert ss.validate_mdp(mdp) == ["probabilities for (a, x) sum to 1/2, expected 1"]
        with pytest.raises(ss.InvalidParam, match=r"\(a, x\) sum to 1/2"):
            ss.full_return(mdp, policy)
    assert len(mdp_checks) == 6
    assert id(mdp) not in mdp_module._VALID


def test_the_memo_lets_go_of_a_collected_mdp():
    mdp = two_action_chain()
    key = id(mdp)
    assert ss.validate_mdp(mdp) == []
    assert mdp_module._VALID.get(key) is mdp
    del mdp
    gc.collect()
    assert key not in mdp_module._VALID


def test_enumeration_single_choice_state():
    mdp = two_action_chain()
    assert ss.policy_class_size(mdp, stationary=True) == 2
    policies = [policy_at_index(mdp, i) for i in range(2)]
    # lexicographic: action 0 ("u") first
    assert policies[0].rows[0][0] == ((0, Fraction(1)),)
    assert policies[1].rows[0][0] == ((1, Fraction(1)),)


def test_enumeration_count_matches_choice_state_oracle():
    # Frozen oracle: the H=2 greedy family has 1 + 2H = 5 states with two
    # actions, so 2**5 = 32 stationary deterministic policies.
    mdp, _ = ss.build_greedy(2, 10)
    choice = [s for s in range(mdp.n_states) if len(mdp.actions[s]) == 2]
    assert len(choice) == 5
    assert ss.policy_class_size(mdp, stationary=True) == 32 == 2 ** len(choice)


def test_enumeration_counts_match_closed_form():
    rng = random.Random(5)
    for _ in range(10):
        mdp = random_mdp(rng, max_states=4, max_horizon=2)
        stat = oracle_class(mdp, stationary=True)
        assert len(stat) == ss.policy_class_size(mdp, stationary=True)
        nonstat = oracle_class(mdp, stationary=False)
        assert len(nonstat) == ss.policy_class_size(mdp, stationary=False)
        assert len(nonstat) == len(stat) ** mdp.horizon


def test_enumeration_is_reproducible():
    mdp, _ = ss.build_greedy(2, 10)
    size = ss.policy_class_size(mdp)
    a = [policy_at_index(mdp, i) for i in range(size)]
    b = [policy_at_index(mdp, i) for i in range(size)]
    assert a == b


@pytest.mark.parametrize("stationary", [True, False])
def test_policy_at_index_follows_enumeration_order(stationary):
    rng = random.Random(8)
    for _ in range(10):
        mdp = random_mdp(rng, max_states=4, max_horizon=2)
        policies = oracle_class(mdp, stationary)
        assert [policy_at_index(mdp, i, stationary) for i in range(len(policies))] == policies
        with pytest.raises(IndexError):
            policy_at_index(mdp, len(policies), stationary)


@pytest.mark.parametrize("index", [2.5, True, "1", None])
def test_policy_at_index_rejects_an_index_that_is_not_an_integer(index):
    # Once: 2.5 gave a policy with float action ids and True read as index 1.
    mdp = two_action_chain()
    with pytest.raises(ss.InvalidParam, match=re.escape(f"index must be an integer, got {index!r}")):
        policy_at_index(mdp, index)
    with pytest.raises(IndexError):
        policy_at_index(mdp, -1)


@pytest.mark.parametrize("stationary", ["no", 1, None])
def test_class_functions_reject_a_stationary_flag_that_is_not_a_bool(stationary):
    # Once: "no" sized and enumerated the stationary class.
    mdp = two_action_chain()
    message = re.escape(f"stationary must be a bool, got {stationary!r}")
    with pytest.raises(ss.InvalidParam, match=message):
        ss.policy_class_size(mdp, stationary)
    with pytest.raises(ss.InvalidParam, match=message):
        policy_at_index(mdp, 0, stationary)


@pytest.mark.parametrize("stationary", [True, False])
def test_behaviours_partition_the_class(stationary):
    # Every policy belongs to exactly one behaviour, and every member of a
    # behaviour has the occupancy the walk carried to its leaf. Nonstationary
    # leaves come by ascending first member; stationary ones need not (a
    # state first reached deeper can own a more significant cell).
    rng = random.Random(13)
    for _ in range(15):
        mdp = random_mdp(rng, max_states=4, max_horizon=3)
        total = ss.policy_class_size(mdp, stationary)
        if total > 512:
            continue
        policies = oracle_class(mdp, stationary)
        engine = _Engine(mdp)
        seen, firsts = [], []
        for behaviour, dists, _, _ in _walk_class(engine, stationary, None):
            firsts.append(behaviour.first)
            members = list(behaviour.members(total))
            assert members[0] == behaviour.first
            assert list(behaviour.members(members[-1])) == members[:-1]
            carried = [
                tuple(Fraction(d.get(s, 0), engine.d0 * engine.step**t) for s in range(mdp.n_states))
                for t, d in enumerate(dists)
            ]
            assert all(oracle_occupancy(mdp, policies[i]) == carried for i in members)
            seen.extend(members)
        assert sorted(seen) == list(range(total))
        if not stationary:
            assert firsts == sorted(firsts)


@st.composite
def behaviours(draw):
    """A behaviour over a random mixed-radix class (radices 2-4): some cells
    free, at most 1024 members, and `first` any index whose free digits are 0."""
    radices, free, size = [], [], 1
    for radix, is_free in draw(st.lists(st.tuples(st.integers(2, 4), st.booleans()), max_size=16)):
        is_free = is_free and size * radix <= 1024
        size *= radix if is_free else 1
        radices.append(radix)
        free.append(is_free)
    places = _place_values(radices)
    first = sum(draw(st.integers(0, k - 1)) * w for k, w, f in zip(radices, places, free) if not f)
    return Behaviour(first, tuple((k, w) for k, w, f in zip(radices, places, free) if f))


@given(behaviours())
def test_members_match_the_digit_sum_at_every_cut(behaviour):
    # The reference is the digit sum over `itertools.product`; the cuts are
    # 0, and each of (up to) 64 evenly spaced members m taken as m and m + 1.
    everything = oracle_members(behaviour.first, behaviour.free, float("inf"))
    cuts = [0] + [c for m in everything[:: max(1, len(everything) // 64)] + everything[-1:] for c in (m, m + 1)]
    assert everything == sorted(everything)
    for below in cuts:
        assert behaviour.members(below) == everything[: bisect_left(everything, below)]


@pytest.mark.parametrize("stationary", [True, False])
def test_capped_behaviours_are_those_first_below_the_cap(stationary):
    rng = random.Random(21)
    for _ in range(15):
        mdp = random_mdp(rng, max_states=4, max_horizon=3)
        total = ss.policy_class_size(mdp, stationary)
        if total > 512:
            continue
        every = list(_walk_class(_Engine(mdp), stationary, None))
        for cap in {1, max(1, total // 3), total - 1 or 1, total, total + 5}:
            below = [leaf for leaf in every if leaf[0].first < cap]
            assert list(_walk_class(_Engine(mdp), stationary, cap)) == below


def test_cap_bounds_the_walk_of_a_huge_class(monkeypatch):
    # 2 ** 42 nonstationary policies, each its own behaviour: the walk must
    # stop at the cap instead of visiting the whole class.
    mdp = dense_mdp(7, 6)
    assert ss.policy_class_size(mdp, stationary=False) == 2**42
    leaves = []
    inner = _Engine._leaf

    def counted(*args):
        leaves.append(1)
        return inner(*args)

    monkeypatch.setattr(_Engine, "_leaf", counted)
    firsts = [leaf[0].first for leaf in _walk_class(_Engine(mdp), False, 1000)]
    assert firsts == list(range(1000))
    assert len(leaves) == 1000


def test_make_stationary_fills_forced_states():
    mdp, _ = ss.build_prefix(2)
    pol = ss.make_stationary(mdp, {"s0": "L"})
    assert ss.validate_policy(mdp, pol) == []
    assert pol.stationary and pol.kind == "deterministic"
    with pytest.raises(ValueError):
        ss.make_stationary(mdp)  # choice state left unset
    with pytest.raises(ValueError):
        ss.make_stationary(mdp, {"nope": "L"})


def test_stochastic_cells_flip_kind():
    mdp = two_action_chain()
    pol = ss.make_stationary(mdp, {"s": {"u": Fraction(1, 2), "d": Fraction(1, 2)}})
    assert pol.kind == "stochastic"
    assert ss.validate_policy(mdp, pol) == []


def test_validate_policy_rejects_undefined_reachable_cell():
    mdp = two_action_chain()
    pol = ss.Policy("deterministic", 2, ({}, {}), False)
    problems = ss.validate_policy(mdp, pol)
    assert any("undefined" in p and "s" in p for p in problems)


def test_validate_policy_rejects_bad_sum_and_horizon():
    mdp = two_action_chain()
    bad_sum = ss.Policy(
        "stochastic", 2,
        ({0: ((0, Fraction(1, 3)),)},) * 2, True,
    )
    assert any("sum" in p for p in ss.validate_policy(mdp, bad_sum))
    good = ss.make_stationary(mdp, {"s": "u"})
    wrong_horizon = ss.Policy(good.kind, 3, good.rows + (good.rows[0],), True)
    assert any("horizon" in p for p in ss.validate_policy(mdp, wrong_horizon))


def test_validate_policy_rejects_a_stationary_policy_with_differing_rows():
    # The engine reads only rows[0] of a stationary policy, so a hand-built
    # one whose rows differ must not pass as valid.
    mdp = two_action_chain()
    up, down = {0: ((0, Fraction(1)),)}, {0: ((1, Fraction(1)),)}
    mixed = ss.Policy("deterministic", 2, (up, down), True)
    assert any("stationary" in p for p in ss.validate_policy(mdp, mixed))
    with pytest.raises(ss.PolicyMismatch, match="stationary"):
        ss.full_return(mdp, mixed)
    equal_copies = ss.Policy("deterministic", 2, (up, dict(up)), True)
    assert ss.validate_policy(mdp, equal_copies) == []
    assert ss.validate_policy(mdp, ss.Policy("deterministic", 2, (up, down), False)) == []


def test_validate_policy_flags_terminal_cells():
    mdp = two_action_chain()
    pol = ss.Policy(
        "deterministic", 2,
        ({0: ((0, Fraction(1)),), 1: ((0, Fraction(1)),)},) * 2, True,
    )
    assert any("terminal" in p for p in ss.validate_policy(mdp, pol))


def test_rational_coercion_refuses_floats():
    with pytest.raises(TypeError):
        ss.rational(0.5)
    assert ss.rational("2/3") == Fraction(2, 3)


def test_build_mdp_rejects_unknown_labels():
    with pytest.raises(ValueError):
        ss.build_mdp(["a"], {"b": ["x"]}, {}, 1, {"a": 1})
    with pytest.raises(ValueError):
        ss.build_mdp(["a"], {"a": ["x"]}, {("a", "y"): [("a", 1, 0)]}, 1, {"a": 1})
    with pytest.raises(ValueError, match="'zz'"):
        ss.build_mdp(["a"], {"a": ["x"]}, {("a", "x"): [("zz", 1, 0)]}, 1, {"a": 1})


@pytest.mark.parametrize("horizon", [2.5, "2", True])
def test_build_mdp_rejects_a_non_integer_horizon(horizon):
    with pytest.raises(ss.InvalidParam, match="horizon"):
        ss.build_mdp(["a", "b"], {"a": ["x"]}, {("a", "x"): [("b", 1, 0)]}, horizon, {"a": 1}, ["b"])
