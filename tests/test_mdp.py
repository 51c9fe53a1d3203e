import gc
import random
import re
import sys
import weakref
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import shortsight as ss
from shortsight.mdp import Behaviour, _place_values, policy_at_index
from shortsight.observation import _Engine

from oracle import all_nonstationary_policies, all_stationary_policies, oracle_members, oracle_occupancy, oracle_validate_policy
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


def test_a_validated_mdp_is_freed_by_reference_counting_alone():
    # What validation keeps on the MDP refers to nothing that refers back
    # to it, so no cycle waits for the collector.
    mdp, model = ss.build_prefix(2)
    policy = ss.make_stationary(mdp, {"s0": "L"})
    gc.disable()
    try:
        assert ss.validate_mdp(mdp) == []
        ss.full_return(mdp, policy)
        ss.check_sufficiency(mdp, model)
        ref = weakref.ref(mdp)
        del mdp
        assert ref() is None
    finally:
        gc.enable()


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
        for behaviour, dists, _, _ in engine.walk(stationary, total):
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
        every = list(_Engine(mdp).walk(stationary, total))
        for cap in {1, max(1, total // 3), total - 1 or 1, total, total + 5}:
            below = [leaf for leaf in every if leaf[0].first < cap]
            assert list(_Engine(mdp).walk(stationary, cap)) == below


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), stationary=st.booleans(), cut=st.sampled_from(["1", "total/3", "total"]))
def test_enter_skips_the_nodes_it_refuses_and_no_others(seed, stationary, cut):
    # `enter` sees each node the walk steps to, leaves included, and none
    # whose first member is at or past the cap. A node it refuses drops
    # exactly the leaves below it; refusing every leaf yields nothing, yet
    # takes every forward DP step of the plain walk. A node is named by its
    # depth and first member, which no other node at its depth shares, as
    # the member sets of the nodes at one depth are disjoint.
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=4, max_horizon=3)
    total = ss.policy_class_size(mdp, stationary)
    assume(total <= 512)
    cap = {"1": 1, "total/3": max(1, total // 3), "total": total}[cut]

    def walk(enter=None):
        engine, steps = _Engine(mdp), []
        inner = engine.advance
        engine.advance = lambda *args: steps.append(1) or inner(*args)
        return list(engine.walk(stationary, cap, enter)), len(steps)

    def refused(node):
        return random.Random(repr((seed, node))).random() < 0.25

    plain, plain_steps = walk()
    paths, path, entered = [], [], []

    def record(t, first, last, dist, r):
        assert first < cap
        entered.append(t)
        path[t - 1 :] = [(t, first)]
        if t == mdp.horizon:
            paths.append(tuple(path))
        return False

    assert walk(record) == (plain, plain_steps)
    assert len(entered) == plain_steps and len(paths) == len(plain)

    def skip(t, first, last, dist, r):
        assert first < cap
        return refused((t, first))

    kept = [leaf for leaf, nodes in zip(plain, paths) if not any(map(refused, nodes))]
    assert walk(skip)[0] == kept
    assert walk(lambda t, *_: t == mdp.horizon) == ([], plain_steps)


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), stationary=st.booleans())
def test_enter_gets_the_largest_member_of_each_node(seed, stationary):
    # On the walk of the whole class a node's `last` is the largest member of the
    # leaves below it, free cells included. A capped walk enters exactly the
    # nodes whose first member is below the cap, each with the same `last`,
    # which counts the members past the cap too.
    rng = random.Random(seed)
    mdp = random_mdp(rng, max_states=4, max_horizon=3)
    total = ss.policy_class_size(mdp, stationary)
    assume(total <= 512)

    def walk(cap):
        nodes, paths, path = {}, [], []

        def record(t, first, last, dist, r):
            assert (t, first) not in nodes
            nodes[t, first] = last
            path[t - 1 :] = [(t, first)]
            if t == mdp.horizon:
                paths.append(tuple(path))
            return False

        return nodes, list(zip(_Engine(mdp).walk(stationary, cap, record), paths))

    nodes, leaves = walk(total)
    largest = {}
    for (behaviour, *_), path in leaves:
        top = behaviour.members(float("inf"))[-1]
        for node in path:
            largest[node] = max(largest.get(node, top), top)
    assert nodes == largest
    for cap in (1, max(1, total // 3)):
        assert walk(cap)[0] == {node: last for node, last in nodes.items() if node[1] < cap}


def test_cap_bounds_the_walk_of_a_huge_class(monkeypatch):
    # 2 ** 42 nonstationary policies, each its own behaviour: the walk must
    # stop at the cap instead of visiting the whole class. It takes one
    # forward DP step per node: the 1000 leaves and the 12 inner nodes above
    # them.
    mdp = dense_mdp(7, 6)
    assert ss.policy_class_size(mdp, stationary=False) == 2**42
    steps = []
    inner = _Engine.advance

    def counted(*args):
        steps.append(1)
        return inner(*args)

    monkeypatch.setattr(_Engine, "advance", counted)
    firsts = [leaf[0].first for leaf in _Engine(mdp).walk(False, 1000)]
    assert firsts == list(range(1000))
    assert len(steps) == 1012


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


@pytest.mark.parametrize("cell", [
    ((0, 0.5), (1, 0.5)),  # floats that sum to 1
    ((0, 1.0),),
    ((0.0, Fraction(1)),),  # a float action id
    ((True, Fraction(1)),),  # bools
    ((0, True),),
    (("L", Fraction(1)),),  # an action label
    ((0,),),  # not a pair
    [(0, Fraction(1))],  # not a tuple
    Fraction(1),
])
def test_validate_policy_refuses_a_cell_of_inexact_entries(prefix3, cell):
    # The cell checks and the engine read entries as (int, exact) pairs;
    # anything else is refused at the cell, before the coverage walk.
    mdp, _ = prefix3
    row = dict(ss.make_stationary(mdp, {"s0": "L"}).rows[0])
    row[mdp.index("s0")] = cell
    policy = ss.Policy("stochastic", mdp.horizon, (row,) * mdp.horizon, True)
    message = f"policy cell for state s0 is not a tuple of (action id, exact probability) pairs: {cell!r}"
    assert ss.validate_policy(mdp, policy) == [message]
    with pytest.raises(ss.PolicyMismatch) as err:
        ss.full_return(mdp, policy)
    assert str(err.value) == message


@pytest.mark.parametrize("row", [
    {"s0": ((0, Fraction(1)),)},  # a state label
    [((0, Fraction(1)),)],  # a list row
    {0.0: ((0, Fraction(1)),)},  # a float key
    None,
    {True: ((0, Fraction(1)),)},  # a bool key, which would read as state 1
])
def test_validate_policy_refuses_a_row_that_is_not_keyed_by_state_ids(prefix3, row):
    # The cell checks and the engine read a row as a dict of int state ids;
    # anything else is refused at the row, before the coverage walk.
    mdp, _ = prefix3
    good = ss.make_stationary(mdp, {"s0": "L"}).rows[0]
    policy = ss.Policy("deterministic", mdp.horizon, (row,) + (good,) * (mdp.horizon - 1), False)
    message = f"policy row 0 is not a dict keyed by int state ids: {row!r}"
    assert ss.validate_policy(mdp, policy) == [message]
    with pytest.raises(ss.PolicyMismatch) as err:
        ss.full_return(mdp, policy)
    assert str(err.value) == message


def test_coverage_is_read_at_every_step_a_stationary_cell_is_reached():
    # c is first reached at t=2 and again at t=3 (through b); a check that
    # read a stationary cell only at its own t = 0 would miss both.
    mdp = ss.build_mdp(
        ["a", "b", "c", "g"],
        {"a": ["x"], "b": ["x"], "c": ["x"]},
        {
            ("a", "x"): [("b", 1, 0)],
            ("b", "x"): [("b", Fraction(1, 2), 0), ("c", Fraction(1, 2), 0)],
            ("c", "x"): [("g", 1, 0)],
        },
        4, {"a": 1}, ["g"],
    )
    row = {0: ((0, Fraction(1)),), 1: ((0, Fraction(1)),)}
    policy = ss.Policy("deterministic", 4, (row,) * 4, True)
    expected = [
        "policy undefined at t=2 for reachable state c",
        "policy undefined at t=3 for reachable state c",
    ]
    assert ss.validate_policy(mdp, policy) == oracle_validate_policy(mdp, policy) == expected
    with pytest.raises(ss.PolicyMismatch) as err:
        ss.full_return(mdp, policy)
    assert str(err.value) == "; ".join(expected)


_PROBS = [Fraction(1)] * 6 + [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 6), Fraction(0), Fraction(-1, 2), Fraction(2), 1, 0, -1, 2]


def broken_policy(rng: random.Random, mdp) -> ss.Policy:
    """A policy that may break every rule `validate_policy` checks: undefined
    or empty cells, unavailable or repeated actions, non-positive or unsummed
    entries, terminal or out-of-range keys, an unknown kind, another
    horizon. A stationary one shares its one row object."""

    def cell(s):
        n = len(mdp.actions[s])
        return tuple(
            (rng.randrange(-1, n + 1) if rng.random() < 0.1 else rng.randrange(n), rng.choice(_PROBS))
            for _ in range(rng.choice((0, 1, 1, 1, 1, 2, 3)))
        )

    def row():
        states = [s for s in range(mdp.n_states) if s not in mdp.terminal or rng.random() < 0.05]
        out = {s: cell(s) for s in states if rng.random() < 0.85}
        if rng.random() < 0.05:
            out[mdp.n_states] = ((0, Fraction(1)),)
        return out

    stationary = rng.random() < 0.5
    kind = rng.choice(("deterministic", "stochastic", "deterministic", "stochastic", "greedy"))
    horizon = mdp.horizon + (rng.random() < 0.03)
    rows = (row(),) * horizon if stationary else tuple(row() for _ in range(horizon))
    return ss.Policy(kind, horizon, rows, stationary)


def test_validate_policy_matches_the_set_walk_on_broken_policies():
    rng = random.Random(21)
    covered = 0
    for _ in range(4000):
        mdp = random_mdp(rng, max_states=6, max_actions=3, max_horizon=6)
        for _ in range(5):
            policy = broken_policy(rng, mdp)
            expected = oracle_validate_policy(mdp, policy)
            assert ss.validate_policy(mdp, policy) == expected, (mdp, policy)
            covered += any("undefined" in p for p in expected)
    assert covered > 2000


def test_rational_coercion_refuses_floats():
    with pytest.raises(TypeError):
        ss.rational(0.5)
    assert ss.rational("2/3") == Fraction(2, 3)


def _chain(prob=1, reward=0, initial=1):
    return ss.build_mdp(["a", "b"], {"a": ["x"]}, {("a", "x"): [("b", prob, reward)]}, 1, {"a": initial}, ["b"])


# Each library call that takes a rational, given a string there: the value it keeps.
RATIONAL_SITES = {
    "rational": ss.rational,
    "build_mdp prob": lambda text: _chain(prob=text).transitions[0][0][0][1],
    "build_mdp reward": lambda text: _chain(reward=text).transitions[0][0][0][2],
    "build_mdp initial": lambda text: _chain(initial=text).initial[0],
    "make_stationary cell": lambda text: ss.make_stationary(two_action_chain(), {"s": {"u": text}}).rows[0][0][0][1],
}


@pytest.mark.parametrize("text", ["0.5", "1e2", "1.0", "2/4", "007", "1\n"])
@pytest.mark.parametrize("site", RATIONAL_SITES)
def test_library_rationals_refuse_every_other_spelling(site, text):
    # `Fraction` would read each of these; documents and --M refuse them.
    with pytest.raises(ss.ParseError, match=re.escape(repr(text))):
        RATIONAL_SITES[site](text)


@pytest.mark.parametrize("text", ["1/2", "-3", "100"])
@pytest.mark.parametrize("site", RATIONAL_SITES)
def test_library_rationals_take_the_one_spelling(site, text):
    assert RATIONAL_SITES[site](text) == Fraction(text)


def test_build_mdp_rejects_unknown_labels():
    with pytest.raises(ValueError):
        ss.build_mdp(["a"], {"b": ["x"]}, {}, 1, {"a": 1})
    with pytest.raises(ValueError):
        ss.build_mdp(["a"], {"a": ["x"]}, {("a", "y"): [("a", 1, 0)]}, 1, {"a": 1})
    with pytest.raises(ValueError, match="'zz'"):
        ss.build_mdp(["a"], {"a": ["x"]}, {("a", "x"): [("zz", 1, 0)]}, 1, {"a": 1})


def test_a_horizon_no_tuple_can_hold_is_refused():
    # Once: such an MDP passed `validate_mdp`, and building a policy for it
    # raised a raw OverflowError.
    mdp = ss.build_mdp(["a", "b"], {"a": ["x"]}, {("a", "x"): [("b", 1, 0)]}, 10**30, {"a": 1}, ["b"])
    message = f"horizon {10**30} is above {sys.maxsize}, the most steps a tuple can hold"
    assert ss.validate_mdp(mdp) == [message]  # first: the calls below would not finish on an MDP that passed
    model = ss.ObservationModel.make(1, (0,), ss.identity_phi(mdp))
    with pytest.raises(ss.InvalidParam, match=re.escape(message)):
        ss.check_sufficiency(mdp, model)
    with pytest.raises(ss.InvalidParam, match=re.escape(message)):
        ss.check_objective_consistency(mdp, 0)


@pytest.mark.parametrize("horizon", [2.5, "2", True])
def test_build_mdp_rejects_a_non_integer_horizon(horizon):
    with pytest.raises(ss.InvalidParam, match="horizon"):
        ss.build_mdp(["a", "b"], {"a": ["x"]}, {("a", "x"): [("b", 1, 0)]}, horizon, {"a": 1}, ["b"])
