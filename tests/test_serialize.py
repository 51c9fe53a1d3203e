import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import shortsight as ss
from shortsight.errors import ParseError, ValidationError
from shortsight.mdp import Trajectory
from shortsight.offline import OfflineDataset
from shortsight.serialize import (
    canonical_json,
    format_rational,
    parse_dataset,
    parse_mdp,
    parse_model,
    parse_policy,
    parse_rational,
    serialize_dataset,
    serialize_mdp,
    serialize_model,
    serialize_policy,
)

from conftest import half_behavior


def test_rational_formatting_round_trip():
    for value in (Fraction(0), Fraction(3), Fraction(-6), Fraction(2, 3), Fraction(-123456789, 987654321)):
        assert parse_rational(format_rational(value), "x") == value
    assert format_rational(Fraction(4, 2)) == "2"


def test_rational_wire_strings_are_pinned():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(6, 3)) == "2"
    assert format_rational(Fraction(-8, 4)) == "-2"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(-1, 2**64 + 1)) == "-1/18446744073709551617"
    assert format_rational(Fraction(2**70 + 1, 2**65)) == "1180591620717411303425/36893488147419103232"


# Strings a report can carry: JSON escapes, control characters, non-ASCII
# (including U+2028 and an astral character) and anything else.
_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\u2029\U0001f600a') | st.characters(), max_size=6)
_INTS = st.integers() | st.sampled_from([2**64 + 1, -(10**40), 0, -1])
_VALUES = st.recursive(
    _TEXT | _INTS | st.booleans() | st.none(),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=12,
)


@st.composite
def _report_docs(draw):
    """A report-shaped document: nested values, a list of labels, and one
    sub-object listed several times in one list and again at another depth."""
    shared = draw(st.dictionaries(_TEXT, _VALUES, max_size=3) | st.lists(_VALUES, max_size=3))
    other = draw(_VALUES)
    rows = [shared if pick else other for pick in draw(st.lists(st.booleans(), max_size=6))]
    return {
        "body": draw(st.dictionaries(_TEXT, _VALUES, max_size=3)),
        "labels": draw(st.lists(_TEXT, max_size=5)),
        "rows": rows,
        "deeper": {"rows": [shared, rows, shared], "empty": [[], {}]},
    }


@given(_report_docs())
def test_canonical_json_is_json_dumps_byte_for_byte(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@given(_VALUES)
def test_canonical_json_of_any_value_is_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("doc", [0.5, {"a": [1, 1.5]}, (1, 2), {"a": ("x",)}, {1: "a"}, [{"b": 1, None: 2}], Fraction(1, 2)])
def test_canonical_json_refuses_what_a_report_cannot_hold(doc):
    with pytest.raises(TypeError):
        canonical_json(doc)


def test_dataset_bytes_do_not_depend_on_shared_records():
    # Equal trajectories with fresh reward objects, repeated, and the same
    # trajectory object repeated: the file is the json.dumps form either way.
    def traj(*rewards):
        return Trajectory(("a", "b", "a"), ("x", "y"), tuple(Fraction(r) for r in rewards))

    same = traj("1/2", "-3")
    trajectories = (same, traj("1/2", "-3"), same, traj("7", "0"), traj("1/2", "-3"), same)
    ds = OfflineDataset(trajectories, "b", 4)
    doc = {
        "behavior_id": "b",
        "seed": 4,
        "n": 6,
        "trajectories": [
            {"states": list(t.states), "actions": list(t.actions), "rewards": [str(r) for r in t.rewards]}
            for t in trajectories
        ],
    }
    assert serialize_dataset(ds) == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert parse_dataset(serialize_dataset(ds)) == ds


def test_rational_parsing_rejects_junk():
    for bad in ("0.5", "1/0", "1 / 2", "", "one", 1, None, "1/-2"):
        with pytest.raises(ParseError):
            parse_rational(bad, "x")


def test_mdp_round_trip_equals_generator_output():
    for mdp, _ in (ss.build_prefix(3), ss.build_greedy(3, 10), ss.build_aliasing(4)):
        text = serialize_mdp(mdp)
        again = parse_mdp(text)
        assert again == mdp
        assert serialize_mdp(again) == text


def test_model_round_trip():
    for _, model in (ss.build_prefix(2), ss.build_greedy(2, 7), ss.build_aliasing(5)):
        # Coarsened too: coarsen once kept the int feature 7, and parsing the
        # model's own document raised "expected a string, got int".
        for m in (model, ss.coarsen(model, {model.phi[0][1]: 7})):
            assert parse_model(serialize_model(m)) == m


def test_policy_round_trip_deterministic_and_stochastic(prefix3):
    mdp, _ = prefix3
    for policy in (*ss.commit_policies(mdp), half_behavior(mdp)):
        text = serialize_policy(policy, mdp)
        again = parse_policy(text, mdp)
        assert again == policy
        assert serialize_policy(again, mdp) == text


def test_policy_round_trip_nonstationary(prefix3):
    mdp, _ = prefix3
    rows = [{"s0": "L"} if t == 0 else {} for t in range(mdp.horizon)]
    # fill forced cells for every chain state so the policy validates
    for t in range(mdp.horizon):
        for s in mdp.nonterminal():
            label = mdp.states[s]
            if label != "s0":
                rows[t][label] = "go"
        if t > 0:
            rows[t]["s0"] = "R"  # unreachable after t=0; still a legal cell
    policy = ss.make_nonstationary(mdp, rows)
    assert parse_policy(serialize_policy(policy, mdp), mdp) == policy


def test_large_denominators_survive(prefix3):
    mdp, _ = prefix3
    p = Fraction(10**30 + 1, 3 * 10**30)
    behavior = ss.make_stationary(mdp, {"s0": {"L": p, "R": 1 - p}})
    again = parse_policy(serialize_policy(behavior, mdp), mdp)
    assert again == behavior


def test_dataset_round_trip(prefix3):
    mdp, _ = prefix3
    ds = ss.sample_dataset(mdp, half_behavior(mdp), 25, 11)
    text = serialize_dataset(ds)
    again = parse_dataset(text)
    assert again == ds
    assert serialize_dataset(again) == text


@pytest.mark.parametrize("bad", ["0.5", 1, [], None])
def test_bad_reward_after_many_repeats_is_reported_where_it_is(bad):
    # Reward strings are parsed once per distinct string; a bad value must
    # still fail at its own path, however often a good string came before.
    good = {"states": ["a", "a", "a"], "actions": ["x", "x"], "rewards": ["1/2", "-3"]}
    records = [json.loads(json.dumps(good)) for _ in range(3000)]
    records[2500]["rewards"][1] = bad
    doc = {"behavior_id": "b", "seed": 0, "n": len(records), "trajectories": records}
    with pytest.raises(ParseError) as exc:
        parse_dataset(json.dumps(doc))
    assert exc.value.position == "trajectories[2500].rewards[1]"
    del records[2500]
    doc["n"] = len(records)
    ds = parse_dataset(json.dumps(doc))
    assert {traj.rewards for traj in ds.trajectories} == {(Fraction(1, 2), Fraction(-3))}


@pytest.mark.parametrize(
    "edit, position",
    [
        (lambda rec: rec["states"].__setitem__(1, 7), "trajectories[2500].states[1]"),
        (lambda rec: rec["states"].__setitem__(1, ["a"]), "trajectories[2500].states[1]"),
        (lambda rec: rec.__setitem__("states", "abc"), "trajectories[2500].states"),
        (lambda rec: rec.__setitem__("actions", {"x": 0, "y": 1}), "trajectories[2500].actions"),
        (lambda rec: rec.__setitem__("note", "x"), "trajectories[2500]"),
        (lambda rec: rec["rewards"].__setitem__(0, "1/0"), "trajectories[2500].rewards[0]"),
    ],
    ids=["int-state", "unhashable-state", "string-states", "dict-actions", "extra-field", "bad-reward"],
)
def test_a_record_like_an_earlier_one_is_checked_in_full(edit, position):
    # Records equal to an earlier valid one reuse its parse; a record that
    # differs only in a bad item, a container that iterates like the valid
    # list ("abc", a dict of its labels) or an extra field is still checked
    # and reported at its own index.
    good = {"states": ["a", "b", "c"], "actions": ["x", "y"], "rewards": ["1/2", "-3"]}
    records = [json.loads(json.dumps(good)) for _ in range(3000)]
    edit(records[2500])
    doc = {"behavior_id": "b", "seed": 0, "n": len(records), "trajectories": records}
    with pytest.raises(ParseError) as exc:
        parse_dataset(json.dumps(doc))
    assert exc.value.position == position


def test_repeated_records_parse_to_one_trajectory():
    records = [{"states": ["a", "b"], "actions": ["x"], "rewards": [r]} for r in ("1", "2", "1", "1")]
    doc = {"behavior_id": "b", "seed": 0, "n": 4, "trajectories": records}
    ds = parse_dataset(json.dumps(doc))
    assert [t.rewards for t in ds.trajectories] == [(1,), (2,), (1,), (1,)]
    assert ds.trajectories[0] is ds.trajectories[2] is ds.trajectories[3]


def test_empty_document_is_a_parse_error_at_position_zero():
    with pytest.raises(ParseError) as exc:
        parse_mdp("")
    assert "char 0" in str(exc.value)


def test_unknown_fields_rejected_with_path():
    doc = json.loads(serialize_mdp(ss.build_prefix(1)[0]))
    doc["bogus"] = 1
    with pytest.raises(ParseError) as exc:
        parse_mdp(json.dumps(doc))
    assert "bogus" in str(exc.value)

    doc = json.loads(serialize_mdp(ss.build_prefix(1)[0]))
    doc["transitions"][3]["typo"] = "x"
    with pytest.raises(ParseError) as exc:
        parse_mdp(json.dumps(doc))
    assert "transitions[3]" in str(exc.value)


def test_probability_sum_violation_is_validation_error():
    # two outcomes at 1/3 and one at 1/2 sum to 7/6 for (s0, L)
    doc = {
        "states": ["s0", "t"],
        "actions": {"s0": ["L"], "t": ["stay"]},
        "transitions": [
            {"state": "s0", "action": "L", "next": "t", "prob": "1/3", "reward": "0"},
            {"state": "s0", "action": "L", "next": "t", "prob": "1/3", "reward": "0"},
            {"state": "s0", "action": "L", "next": "s0", "prob": "1/2", "reward": "0"},
            {"state": "t", "action": "stay", "next": "t", "prob": "1", "reward": "0"},
        ],
        "horizon": 2,
        "initial": {"s0": "1"},
        "terminal": ["t"],
    }
    with pytest.raises(ValidationError) as exc:
        parse_mdp(json.dumps(doc))
    message = str(exc.value)
    assert "s0" in message and "L" in message and "7/6" in message


def test_unknown_labels_rejected():
    doc = json.loads(serialize_mdp(ss.build_prefix(1)[0]))
    doc["initial"] = {"ghost": "1"}
    with pytest.raises(ParseError):
        parse_mdp(json.dumps(doc))


def test_policy_document_errors(prefix3):
    mdp, _ = prefix3
    good = json.loads(serialize_policy(ss.commit_policies(mdp)[0], mdp))
    bad = dict(good)
    bad["rows"] = good["rows"] + good["rows"]
    with pytest.raises(ParseError):
        parse_policy(json.dumps(bad), mdp)
    bad = json.loads(json.dumps(good))
    bad["rows"][0]["s0"] = {"L": "1/2"}
    with pytest.raises(ValidationError):
        parse_policy(json.dumps(bad), mdp)


def test_dataset_count_mismatch_rejected(prefix3):
    mdp, _ = prefix3
    ds = ss.sample_dataset(mdp, ss.commit_policies(mdp)[0], 2, 1)
    doc = json.loads(serialize_dataset(ds))
    doc["n"] = 3
    with pytest.raises(ParseError):
        parse_dataset(json.dumps(doc))


def _doc_cases():
    """(document kind, edit to a good document, position, message), one per
    located ParseError site that the tests above do not reach."""

    def at(doc, path):
        for key in path:
            doc = doc[key]
        return doc

    def put(path, value):
        return lambda doc: at(doc, path[:-1]).__setitem__(path[-1], value)

    def drop(path):
        return lambda doc: at(doc, path[:-1]).__delitem__(path[-1])

    def append(path, value):
        return lambda doc: at(doc, path).append(value)

    # Rational strings are ASCII digits matched whole: a final newline or a
    # non-ASCII digit, which `Fraction` would accept, is refused. In the
    # dataset its exact twin is parsed first, so the reward-string cache
    # holds that value when the refused string arrives.
    strict = [
        (kind, put(path, value), position, f"expected an exact rational string like \"3/4\", got {bad!r}")
        for bad, twin in (("3/4\n", "3/4"), ("1\n", "1"), ("\u0663", "3"))
        for kind, path, value, position in (
            ("mdp", ["transitions", 0, "prob"], bad, "transitions[0].prob"),
            ("policy", ["rows", 0, "s0"], {"L": bad}, "rows[0][s0][L]"),
            ("dataset", ["trajectories", 0, "rewards"], [twin, bad, "1"], "trajectories[0].rewards[1]"),
        )
    ]
    return strict + [
        ("mdp", None, "document", "expected an object, got list"),
        ("mdp", put(["states"], "s0"), "states", "expected an array, got str"),
        ("mdp", put(["states", 1], 7), "states[1]", "expected a string, got int"),
        ("mdp", append(["states"], "s0"), "states", "duplicate state labels"),
        ("mdp", put(["actions", "ghost"], ["go"]), "actions", "unknown state 'ghost'"),
        ("mdp", put(["actions", "s0"], "L"), "actions[s0]", "expected an array, got str"),
        ("mdp", put(["actions", "s0", 1], 3), "actions[s0][1]", "expected a string, got int"),
        ("mdp", put(["transitions", 0], 5), "transitions[0]", "expected an object, got int"),
        ("mdp", drop(["transitions", 0, "prob"]), "transitions[0]", "missing required field(s): prob"),
        ("mdp", put(["transitions", 0, "state"], "ghost"), "transitions[0].state", "unknown state 'ghost'"),
        ("mdp", put(["transitions", 0, "next"], "ghost"), "transitions[0].next", "unknown state 'ghost'"),
        ("mdp", put(["transitions", 0, "action"], "X"), "transitions[0].action", "state 's0' has no action 'X'"),
        ("mdp", put(["horizon"], "3"), "horizon", "expected an integer, got '3'"),
        ("mdp", put(["horizon"], True), "horizon", "expected an integer, got True"),
        ("mdp", append(["terminal"], "ghost"), "terminal[2]", "unknown state 'ghost'"),
        ("model", put(["observe_actions"], 1), "observe_actions", "expected a boolean, got 1"),
        ("model", put(["window_starts", 0], "1"), "window_starts[0]", "expected an integer, got '1'"),
        ("model", put(["phi", "s0"], 0), "phi[s0]", "expected a string, got int"),
        ("policy", put(["stationary"], False), "rows", "expected 3 rows, got 1"),
        ("policy", put(["stationary"], "yes"), "stationary", "expected a boolean, got 'yes'"),
        ("policy", put(["rows", 0, "ghost"], {"L": "1"}), "rows[0]", "unknown state 'ghost'"),
        ("policy", put(["rows", 0, "s0"], {"X": "1"}), "rows[0][s0]", "state 's0' has no action 'X'"),
        ("dataset", put(["behavior_id"], 5), "behavior_id", "expected a string, got int"),
        ("dataset", lambda doc: doc.update(n=0, trajectories=[]), "n", "expected an integer >= 1, got 0"),
        ("dataset", put(["trajectories", 0, "states", 1], 3), "trajectories[0].states[1]", "expected a string, got int"),
        ("dataset", put(["trajectories", 0, "actions"], "L"), "trajectories[0].actions", "expected an array, got str"),
        ("dataset", put(["trajectories", 0, "actions", 2], None), "trajectories[0].actions[2]", "expected a string, got NoneType"),
        ("dataset", drop(["trajectories", 0, "states", 3]), "trajectories[0]", "states/actions/rewards lengths are inconsistent"),
    ]


@pytest.mark.parametrize("kind, edit, position, message", _doc_cases())
def test_parse_errors_are_located(kind, edit, position, message):
    mdp, model = ss.build_prefix(1)
    policy = ss.commit_policies(mdp)[0]
    good, parse = {
        "mdp": (serialize_mdp(mdp), parse_mdp),
        "model": (serialize_model(model), parse_model),
        "policy": (serialize_policy(policy, mdp), lambda text: parse_policy(text, mdp)),
        "dataset": (serialize_dataset(ss.sample_dataset(mdp, policy, 1, 0)), parse_dataset),
    }[kind]
    doc = json.loads(good)
    if edit is None:
        doc = []
    else:
        edit(doc)
    with pytest.raises(ParseError) as exc:
        parse(json.dumps(doc))
    assert exc.value.position == position
    assert str(exc.value) == f"{position}: {message}"


@pytest.mark.parametrize("text", ["[" * 100000, "9" * 5000], ids=["deep", "long-int"])
@pytest.mark.parametrize("kind", ["mdp", "model", "policy", "dataset"])
def test_json_the_decoder_refuses_is_a_parse_error(kind, text):
    mdp = ss.build_prefix(1)[0]
    parse = {
        "mdp": parse_mdp,
        "model": parse_model,
        "policy": lambda doc: parse_policy(doc, mdp),
        "dataset": parse_dataset,
    }[kind]
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == "document"
