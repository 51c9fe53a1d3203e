import builtins
import dataclasses
import hashlib
import io
import json
import os
import random
import stat
import sys
import tempfile
from contextlib import redirect_stdout
from math import prod

import pytest
from hypothesis import example, given, strategies as st

import shortsight as ss
from shortsight import cli, observation
from shortsight.cli import _build_parser, main
from shortsight.mdp import format_rational, policy_cells
from shortsight.serialize import canonical_json, parse_dataset, parse_mdp, parse_model, serialize_mdp, serialize_model, serialize_policy

from conftest import half_behavior
from randmdp import random_mdp, random_model
from test_goldens import workloads  # the benchmark's input builders


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_policy(tmp_path, mdp, policy, name):
    path = tmp_path / name
    path.write_text(serialize_policy(policy, mdp))
    return str(path)


def load_mdp(path):
    with open(path) as fh:
        return parse_mdp(fh.read())


@pytest.fixture
def prefix_files(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "prefix", "--H", "3", "-o", str(tmp_path / "px"))
    assert code == 0
    report = json.loads(out)
    return report["outputs"]["mdp"]["path"], report["outputs"]["observation_model"]["path"]


def test_gen_writes_both_artifacts(prefix_files):
    mdp_path, obs_path = prefix_files
    with open(obs_path) as fh:
        model = parse_model(fh.read())
    expected_mdp, expected_model = ss.build_prefix(3)
    assert load_mdp(mdp_path) == expected_mdp
    assert model == expected_model


def test_gen_rejects_boundary_penalty(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gen", "greedy", "--H", "2", "--M", "3", "-o", str(tmp_path / "x"))
    assert code == 2
    assert out == ""
    assert "M > H+1" in err


def test_verify_prop2_reports_paper_values(capsys):
    code, out, _ = run_cli(capsys, "verify", "--prop", "2", "--H", "3", "--M", "10")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    computed = {c["description"]: c["computed"] for c in report["checks"]}
    assert computed["truncated return of all-greedy (steps 0..H)"] == "4"
    assert computed["full return of all-greedy"] == "-6"
    assert computed["full return of all-patient"] == "0"


def test_verify_prop2_covers_a_large_class_under_a_cap_above_it(capsys):
    # 2^33 policies in 2^17 behaviours: every claim holds over the whole
    # class, which the ordering check summarises in 34 memo nodes.
    code, out, _ = run_cli(capsys, "verify", "--prop", "2", "--H", "16", "--M", "160", "--cap", "1000000000000000")
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "class truncated by the cap" not in out


def test_verify_prop2_covers_a_class_of_2_to_the_81(capsys):
    # 2^81 policies in 2^41 behaviours: verify reads the maxima and flags
    # off the memo's 82 nodes and lists no argmax member.
    code, out, _ = run_cli(capsys, "verify", "--prop", "2", "--H", "40", "--M", "400", "--cap", "1" + "0" * 30)
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert "class truncated by the cap" not in out


def test_verify_all_props_exit_zero(capsys):
    assert run_cli(capsys, "verify", "--prop", "1", "--H", "2")[0] == 0
    assert run_cli(capsys, "verify", "--prop", "3", "--H", "2")[0] == 0


def test_verify_names_a_class_truncated_by_the_cap(capsys):
    # The prefix class has 2 policies: cap 1 leaves only commit-L, which is
    # trivially sufficient, so the failure must be attributed to the cap.
    code, out, _ = run_cli(capsys, "verify", "--prop", "1", "--H", "2", "--cap", "1")
    assert code == 1
    computed = {c["description"]: c["computed"] for c in json.loads(out)["checks"]}
    note = "(over the first 1 of 2 policies: class truncated by the cap)"
    assert computed["window statistics identify the optimal policy"] == f"sufficient {note}"
    assert computed["full return of the L-commit policy"] == "1"

    code, out, _ = run_cli(capsys, "verify", "--prop", "2", "--H", "2", "--M", "5", "--cap", "3")
    computed = {c["description"]: c["computed"] for c in json.loads(out)["checks"]}
    assert computed["full-return maximum over the class"].endswith("class truncated by the cap)")
    assert computed["full return of all-greedy"] == "-2"

    # An untruncated class keeps the plain words.
    code, out, _ = run_cli(capsys, "verify", "--prop", "1", "--H", "2", "--cap", "2")
    assert code == 0 and "truncated" not in out


def test_verify_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify", "--prop", "2", "--H", "2")
    assert code == 2 and "M" in err
    code, _, _ = run_cli(capsys, "verify", "--prop", "9", "--H", "2")
    assert code == 2


@pytest.mark.parametrize("text", ["1.5", "1e2", "12\n", "1_0", "+12", "\u0669\u0660", "2/4", "007"])
@pytest.mark.parametrize("command", ["gen", "verify"])
def test_penalty_is_parsed_by_the_rational_rule(tmp_path, capsys, command, text):
    # --M takes rationals as documents spell them: `Fraction` would read
    # each of these (the Arabic-Indic digits as 90).
    argv = ["gen", "greedy", "-o", str(tmp_path / "g")] if command == "gen" else ["verify", "--prop", "2"]
    code, out, err = run_cli(capsys, *argv, "--H", "2", "--M", text)
    assert code == 2 and out == ""
    assert "argument --M:" in err and repr(text) in err


@pytest.mark.parametrize("text, penalty", [("10", "10"), ("21/2", "21/2")])
def test_penalty_takes_an_integer_or_a_fraction(capsys, text, penalty):
    code, out, _ = run_cli(capsys, "verify", "--prop", "2", "--H", "2", "--M", text)
    assert code == 0
    assert json.loads(out)["inputs"]["M"] == penalty


@pytest.mark.parametrize("prop, family", [("1", "prefix"), ("3", "aliasing")])
def test_verify_rejects_a_penalty_its_family_does_not_take(capsys, prop, family):
    # The same rule as `gen`: only the greedy family takes M.
    code, out, err = run_cli(capsys, "verify", "--prop", prop, "--H", "2", "--M", "5")
    assert code == 2 and out == ""
    assert f"family '{family}' takes no penalty" in err


def test_check_prefix_not_sufficient(prefix_files, capsys):
    mdp_path, obs_path = prefix_files
    code, out, _ = run_cli(capsys, "check", "--mdp", mdp_path, "--obs", obs_path)
    assert code == 0
    report = json.loads(out)
    assert report["sufficient"] is False
    assert report["witness"]["policy_a"]["description"] == "s0=L"
    assert report["witness"]["policy_b"]["description"] == "s0=R"
    assert report["witness"]["return_a"] == "1"
    assert report["witness"]["return_b"] == "0"


def test_check_sufficient_verdict_has_no_witness(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "aliasing", "--H", "2", "-o", str(tmp_path / "al"))
    assert code == 0
    mdp_path = json.loads(out)["outputs"]["mdp"]["path"]
    mdp = load_mdp(mdp_path)
    ident = ss.ObservationModel.make(2, (1,), ss.identity_phi(mdp))
    obs_path = tmp_path / "ident.obs.json"
    from shortsight.serialize import serialize_model

    obs_path.write_text(serialize_model(ident))
    code, out, _ = run_cli(capsys, "check", "--mdp", mdp_path, "--obs", str(obs_path))
    assert code == 0
    report = json.loads(out)
    assert report["sufficient"] is True
    assert report["witness"] is None


def test_eval_full_and_truncated(tmp_path, prefix_files, capsys):
    mdp_path, _ = prefix_files
    mdp = load_mdp(mdp_path)
    pol_l, _ = ss.commit_policies(mdp)
    pol_path = write_policy(tmp_path, mdp, pol_l, "left.json")
    code, out, _ = run_cli(capsys, "eval", "--mdp", mdp_path, "--policy", pol_path)
    assert code == 0
    assert json.loads(out)["full_return"] == "1"
    code, out, _ = run_cli(capsys, "eval", "--mdp", mdp_path, "--policy", pol_path, "--truncate", "3")
    assert code == 0
    report = json.loads(out)
    assert report["truncated_return"] == "0"
    assert report["last_step"] == 3
    code, out, err = run_cli(capsys, "eval", "--mdp", mdp_path, "--policy", pol_path, "--truncate", "-1")
    assert (code, out, err) == (2, "", "error: last_step must be >= 0, got -1\n")


def test_segdist_lists_normalized_distribution(tmp_path, prefix_files, capsys):
    mdp_path, obs_path = prefix_files
    mdp = load_mdp(mdp_path)
    behavior = half_behavior(mdp)
    pol_path = write_policy(tmp_path, mdp, behavior, "behavior.json")
    code, out, _ = run_cli(capsys, "segdist", "--mdp", mdp_path, "--policy", pol_path, "--obs", obs_path)
    assert code == 0
    report = json.loads(out)
    rows = report["distribution"]["1"]
    assert sum(ss.rational(r["prob"]) for r in rows) == 1


def _segdist(directory, mdp, policy, model) -> str:
    """The bytes of a `segdist` report on the documents of (mdp, policy, model)."""
    paths = [os.path.join(directory, name) for name in ("mdp.json", "policy.json", "obs.json")]
    for path, text in zip(paths, (serialize_mdp(mdp), serialize_policy(policy, mdp), serialize_model(model))):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["segdist", "--mdp", paths[0], "--policy", paths[1], "--obs", paths[2]]) == 0
    return out.getvalue()


def _distribution_rows(dist) -> dict:
    """A report's "distribution" built from `segment_distribution`'s result:
    one row per segment, each value through `format_rational`."""
    per_start = {}
    for start, items in dist.per_start:
        rows = []
        for seg, p in items:
            row = {"features": list(seg.features), "prob": format_rational(p)}
            if seg.actions is not None:
                row["actions"] = list(seg.actions)
            if seg.rewards is not None:
                row["rewards"] = [format_rational(r) for r in seg.rewards]
            rows.append(row)
        per_start[str(start)] = rows
    return per_start


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans())
@example(0, True, True, False)
@example(0, False, False, True)
def test_segdist_rows_are_the_library_distribution_formatted(seed, actions, rewards, deterministic):
    # The CLI builds its rows from the engine's ranked tables; here they are
    # built from `segment_distribution`, value by value, and must match byte
    # for byte, with actions and rewards each shown and hidden.
    rng = random.Random(seed)
    mdp = random_mdp(rng)
    model = dataclasses.replace(random_model(rng, mdp), observe_actions=actions, observe_rewards=rewards)
    if deterministic:
        stationary = rng.random() < 0.5
        total = prod(len(mdp.actions[s]) for _, s in policy_cells(mdp, stationary))
        policy = ss.policy_at_index(mdp, rng.randrange(total), stationary)
    else:
        policy = half_behavior(mdp)
    with tempfile.TemporaryDirectory() as tmp:
        out = _segdist(tmp, mdp, policy, model)
    report = json.loads(out)
    assert report["distribution"] == _distribution_rows(ss.segment_distribution(mdp, policy, model))
    assert out == canonical_json(report)


def test_segdist_formats_each_reward_and_each_distinct_mass_of_a_start_once(tmp_path, monkeypatch):
    # One call on a benchmark member: no `ObservedSegment` is built, each
    # reward value is formatted once, and each distinct probability once per
    # window start (its rows share the string).
    mdp, model, behavior = workloads.random_dense_docs(ss, 0, 7)
    dist = ss.segment_distribution(mdp, behavior, model)
    formatted, built = [], []

    def counted_format(value):
        formatted.append(value)
        return format_rational(value)

    def counted_segment(*args):
        built.append(args)
        return ss.ObservedSegment(*args)

    monkeypatch.setattr(cli, "format_rational", counted_format)
    monkeypatch.setattr(observation, "ObservedSegment", counted_segment)
    _segdist(tmp_path, mdp, behavior, model)
    rewards = {r for row in mdp.transitions for outs in row for _, _, r in outs}
    assert built == []
    assert len(formatted) == len(rewards) + sum(len({p for _, p in items}) for _, items in dist.per_start)


def test_ordering_greedy(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "greedy", "--H", "3", "--M", "10", "-o", str(tmp_path / "gr"))
    assert code == 0
    mdp_path = json.loads(out)["outputs"]["mdp"]["path"]
    code, out, _ = run_cli(capsys, "ordering", "--mdp", mdp_path, "--h", "3")
    assert code == 0
    report = json.loads(out)
    assert report["truncated_argmax"]["value"] == "4"
    assert report["full_argmax"]["value"] == "0"
    assert report["argmax_intersects"] is False
    assert report["ordering_agrees"] is False
    code, out, err = run_cli(capsys, "ordering", "--mdp", mdp_path, "--h", "-1")
    assert (code, out, err) == (2, "", "error: last_step must be >= 0, got -1\n")


def test_sample_round_trips(tmp_path, prefix_files, capsys):
    mdp_path, _ = prefix_files
    mdp = load_mdp(mdp_path)
    pol_path = write_policy(tmp_path, mdp, half_behavior(mdp), "behavior.json")
    out_path = str(tmp_path / "data.json")
    code, out, _ = run_cli(
        capsys, "sample", "--mdp", mdp_path, "--behavior", pol_path,
        "--n", "20", "--seed", "3", "-o", out_path,
    )
    assert code == 0
    with open(out_path) as fh:
        ds = parse_dataset(fh.read())
    assert ds.n == 20 and ds.seed == 3


def test_sample_rejects_empty_dataset(tmp_path, prefix_files, capsys):
    mdp_path, _ = prefix_files
    mdp = load_mdp(mdp_path)
    pol_path = write_policy(tmp_path, mdp, half_behavior(mdp), "behavior.json")
    code, out, err = run_cli(
        capsys, "sample", "--mdp", mdp_path, "--behavior", pol_path,
        "--n", "0", "--seed", "3", "-o", str(tmp_path / "data.json"),
    )
    assert code == 2
    assert out == ""
    assert "n must be >= 1, got 0" in err


def test_malformed_input_is_exit_two_not_a_crash(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(capsys, "check", "--mdp", str(bad), "--obs", str(bad))
    assert code == 2
    assert out == ""
    assert "error:" in err
    code, _, err = run_cli(capsys, "check", "--mdp", str(tmp_path / "missing.json"), "--obs", str(bad))
    assert code == 2


BAD_FILES = {
    "syntax": b"{not json",
    "structure": b"[]",
    "not-utf8": b"\xff\xfe{}",
    "deep": b"[" * 100000,
    "long-int": b"9" * 5000,
}

FILE_ARGS = [
    ("eval", "--mdp"), ("eval", "--policy"),
    ("segdist", "--mdp"), ("segdist", "--policy"), ("segdist", "--obs"),
    ("check", "--mdp"), ("check", "--obs"),
    ("ordering", "--mdp"),
    ("sample", "--mdp"), ("sample", "--behavior"),
]


@pytest.mark.parametrize("bad", sorted(BAD_FILES))
@pytest.mark.parametrize("command, flag", FILE_ARGS)
def test_every_bad_input_file_is_named(tmp_path, prefix_files, capsys, command, flag, bad):
    mdp_path, obs_path = prefix_files
    mdp = load_mdp(mdp_path)
    pol_path = write_policy(tmp_path, mdp, half_behavior(mdp), "policy.json")
    files = {"--mdp": mdp_path, "--obs": obs_path, "--policy": pol_path, "--behavior": pol_path}
    bad_path = tmp_path / "bad.json"
    bad_path.write_bytes(BAD_FILES[bad])
    files[flag] = str(bad_path)
    argv = {
        "eval": ["--mdp", files["--mdp"], "--policy", files["--policy"]],
        "segdist": ["--mdp", files["--mdp"], "--policy", files["--policy"], "--obs", files["--obs"]],
        "check": ["--mdp", files["--mdp"], "--obs", files["--obs"]],
        "ordering": ["--mdp", files["--mdp"], "--h", "1"],
        "sample": ["--mdp", files["--mdp"], "--behavior", files["--behavior"], "--n", "2", "--seed", "0",
                   "-o", str(tmp_path / "data.json")],
    }[command]
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad_path}: ")


@pytest.mark.parametrize("excess", [1, 10**30])
@pytest.mark.parametrize("command", ["eval", "segdist", "sample"])
def test_a_policy_of_another_horizon_is_exit_two_naming_it(tmp_path, prefix_files, capsys, command, excess):
    mdp_path, obs_path = prefix_files
    mdp = load_mdp(mdp_path)
    doc = json.loads(serialize_policy(half_behavior(mdp), mdp))
    doc["horizon"] = horizon = mdp.horizon + excess
    pol_path = tmp_path / "policy.json"
    pol_path.write_text(json.dumps(doc))
    argv = {
        "eval": ["--policy", str(pol_path)],
        "segdist": ["--policy", str(pol_path), "--obs", obs_path],
        "sample": ["--behavior", str(pol_path), "--n", "2", "--seed", "0", "-o", str(tmp_path / "data.json")],
    }[command]
    code, out, err = run_cli(capsys, command, "--mdp", mdp_path, *argv)
    message = f"policy horizon {horizon} does not match MDP horizon {mdp.horizon}"
    assert (code, out, err) == (2, "", f"error: {pol_path}: {message}\n")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("window_length", 0, "window_length must be >= 1, got 0"),
        ("window_starts", [-1], "window_starts must be >= 0, got -1"),
        ("window_starts", [], "window_starts is empty"),
    ],
)
def test_a_model_that_breaks_a_model_rule_is_exit_two_naming_it(tmp_path, prefix_files, capsys, field, value, message):
    mdp_path, obs_path = prefix_files
    with open(obs_path) as fh:
        doc = json.load(fh)
    doc[field] = value
    bad = tmp_path / "bad.obs.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "check", "--mdp", mdp_path, "--obs", str(bad))
    assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


def test_a_horizon_no_tuple_can_hold_is_exit_two_naming_the_mdp(tmp_path, prefix_files, capsys):
    # Once: `eval` died in a raw OverflowError with exit 1. (`check` and
    # `ordering` did not finish on such an MDP, so no test runs them on one
    # that might pass.)
    mdp_path, _ = prefix_files
    mdp = load_mdp(mdp_path)
    policy = json.loads(serialize_policy(half_behavior(mdp), mdp))
    policy["horizon"] = 10**30
    pol_path = tmp_path / "policy.json"
    pol_path.write_text(json.dumps(policy))
    with open(mdp_path) as fh:
        doc = json.load(fh)
    doc["horizon"] = 10**30
    big = tmp_path / "big.mdp.json"
    big.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "eval", "--mdp", str(big), "--policy", str(pol_path))
    message = f"horizon {10**30} is above {sys.maxsize}, the most steps a tuple can hold"
    assert (code, out, err) == (2, "", f"error: {big}: {message}\n")


def test_usage_error_exit_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_a_usage_error_leaves_the_parser_as_it_was(prefix_files, capsys):
    # One parser serves every call in a process; a failed parse must not
    # change what the next call prints.
    mdp_path, _ = prefix_files
    ordering = ["ordering", "--mdp", mdp_path, "--h", "1"]
    _build_parser.cache_clear()
    fresh = run_cli(capsys, *ordering)
    assert run_cli(capsys, "ordering", "--mdp", mdp_path, "--h", "x")[0] == 2
    assert run_cli(capsys, "verify", "--prop", "4", "--H", "2")[0] == 2
    assert run_cli(capsys, *ordering) == fresh
    assert _build_parser() is _build_parser()


def test_cap_env_var_scopes_check(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "gen", "greedy", "--H", "2", "--M", "5", "-o", str(tmp_path / "gr"))
    report = json.loads(out)
    mdp_path = report["outputs"]["mdp"]["path"]
    obs_path = report["outputs"]["observation_model"]["path"]
    monkeypatch.setenv("SHORTSIGHT_POLICY_CAP", "4")
    code, out, _ = run_cli(capsys, "check", "--mdp", mdp_path, "--obs", obs_path)
    assert code == 0
    report = json.loads(out)
    assert report["policy_class"]["truncated_by_cap"] is True
    assert report["policy_class"]["enumerated"] == 4
    monkeypatch.setenv("SHORTSIGHT_POLICY_CAP", "not-a-number")
    assert run_cli(capsys, "check", "--mdp", mdp_path, "--obs", obs_path)[0] == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", ["check", "ordering", "verify"])
def test_cap_below_one_is_a_usage_error(prefix_files, capsys, command, cap):
    # Once accepted: check reported "sufficient" over 0 policies, ordering
    # crashed on an empty max().
    mdp_path, obs_path = prefix_files
    argv = {
        "check": ["check", "--mdp", mdp_path, "--obs", obs_path],
        "ordering": ["ordering", "--mdp", mdp_path, "--h", "1"],
        "verify": ["verify", "--prop", "1", "--H", "2"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--cap", cap)
    assert code == 2
    assert out == ""
    assert f"--cap must be >= 1, got {cap}" in err


def test_cap_errors_name_their_source(prefix_files, capsys, monkeypatch):
    mdp_path, obs_path = prefix_files
    check = ["check", "--mdp", mdp_path, "--obs", obs_path]
    code, _, err = run_cli(capsys, *check, "--cap", "many")
    assert code == 2 and "--cap must be an integer, got 'many'" in err
    monkeypatch.setenv("SHORTSIGHT_POLICY_CAP", "0")
    code, _, err = run_cli(capsys, *check)
    assert code == 2 and "SHORTSIGHT_POLICY_CAP must be >= 1, got 0" in err
    # the flag takes precedence over the environment
    code, out, _ = run_cli(capsys, *check, "--cap", "1")
    assert code == 0
    assert json.loads(out)["policy_class"]["enumerated"] == 1


@pytest.fixture
def integer_argv(tmp_path, prefix_files):
    """Per integer flag, a command taking `value` there."""
    mdp_path, obs_path = prefix_files
    mdp = load_mdp(mdp_path)
    pol_path = write_policy(tmp_path, mdp, half_behavior(mdp), "behavior.json")
    sample = ["sample", "--mdp", mdp_path, "--behavior", pol_path, "-o", str(tmp_path / "data.json")]
    return lambda flag, value: {
        "gen --H": ["gen", "prefix", "-o", str(tmp_path / "g"), "--H", value],
        "verify --H": ["verify", "--prop", "1", "--H", value],
        "verify --prop": ["verify", "--H", "2", "--prop", value],
        "eval --truncate": ["eval", "--mdp", mdp_path, "--policy", pol_path, "--truncate", value],
        "ordering --h": ["ordering", "--mdp", mdp_path, "--h", value],
        "sample --n": [*sample, "--seed", "0", "--n", value],
        "sample --seed": [*sample, "--n", "2", "--seed", value],
        "check --cap": ["check", "--mdp", mdp_path, "--obs", obs_path, "--cap", value],
    }[flag]


INTEGER_FLAGS = ["gen --H", "verify --H", "verify --prop", "eval --truncate", "ordering --h", "sample --n", "sample --seed", "check --cap"]


@pytest.mark.parametrize("text", ["\u0663", "1_0", "03", "+3", " 3 ", "-0", "2/1"])
@pytest.mark.parametrize("flag", INTEGER_FLAGS)
def test_integer_flags_take_one_spelling(integer_argv, capsys, flag, text):
    # `int` would read each of these (the Arabic-Indic digit as 3).
    code, out, err = run_cli(capsys, *integer_argv(flag, text))
    assert code == 2 and out == ""
    name = flag.split()[1]
    if name == "--cap":
        assert f"--cap must be an integer, got {text!r}" in err
    else:
        assert f"argument {name}: expected an integer, got {text!r}" in err
    assert run_cli(capsys, *integer_argv(flag, "3"))[0] == 0


@pytest.mark.parametrize("text", ["\u0663", "1_0", "03", "+3", " 3 ", "-0", "2/1"])
def test_the_cap_variable_takes_one_spelling(prefix_files, capsys, monkeypatch, text):
    mdp_path, obs_path = prefix_files
    check = ["check", "--mdp", mdp_path, "--obs", obs_path]
    monkeypatch.setenv("SHORTSIGHT_POLICY_CAP", text)
    code, out, err = run_cli(capsys, *check)
    assert code == 2 and out == ""
    assert f"SHORTSIGHT_POLICY_CAP must be an integer, got {text!r}" in err
    monkeypatch.setenv("SHORTSIGHT_POLICY_CAP", "3")
    assert run_cli(capsys, *check)[0] == 0


def test_reports_are_deterministic(capsys):
    first = run_cli(capsys, "verify", "--prop", "3", "--H", "3")
    second = run_cli(capsys, "verify", "--prop", "3", "--H", "3")
    assert first == second


@pytest.fixture
def sample_cmd(tmp_path, prefix_files):
    """argv of a `sample` of n trajectories of the prefix MDP into out_path."""
    mdp_path, _ = prefix_files
    mdp = load_mdp(mdp_path)
    pol_path = write_policy(tmp_path, mdp, half_behavior(mdp), "behavior.json")
    return lambda n, out_path: [
        "sample", "--mdp", mdp_path, "--behavior", pol_path, "--n", str(n), "--seed", "5", "-o", str(out_path),
    ]


def test_sample_rewrites_a_longer_then_a_shorter_file(tmp_path, sample_cmd, capsys):
    # Each rewrite leaves exactly the bytes of a sample into a new path, and
    # the report hashes the file as written.
    target = tmp_path / "data.json"
    target.write_bytes(b"x" * 200000)
    for n in (20, 3):
        code, out, _ = run_cli(capsys, *sample_cmd(n, target))
        assert code == 0
        fresh = tmp_path / f"fresh-{n}.json"
        assert run_cli(capsys, *sample_cmd(n, fresh))[0] == 0
        assert target.read_bytes() == fresh.read_bytes()
        assert json.loads(out)["output"]["sha256"] == hashlib.sha256(target.read_bytes()).hexdigest()


def test_gen_twice_to_one_prefix_leaves_the_same_bytes_and_inodes(tmp_path, capsys):
    prefix = str(tmp_path / "gr")
    assert run_cli(capsys, "gen", "greedy", "--H", "3", "--M", "10", "-o", prefix)[0] == 0
    paths = [tmp_path / "gr.mdp.json", tmp_path / "gr.obs.json"]
    first = [(p.read_bytes(), p.stat().st_ino) for p in paths]
    assert run_cli(capsys, "gen", "greedy", "--H", "3", "--M", "10", "-o", prefix)[0] == 0
    assert [(p.read_bytes(), p.stat().st_ino) for p in paths] == first


def test_a_new_output_gets_the_mode_of_open_wb(tmp_path, capsys):
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "wb"):
            pass
        assert run_cli(capsys, "gen", "prefix", "--H", "2", "-o", str(tmp_path / "px"))[0] == 0
    finally:
        os.umask(old_umask)
    expected = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert stat.S_IMODE((tmp_path / "px.mdp.json").stat().st_mode) == expected


def test_sample_to_the_null_device_exits_zero(sample_cmd, capsys):
    code, out, _ = run_cli(capsys, *sample_cmd(5, os.devnull))
    assert code == 0
    assert json.loads(out)["output"]["path"] == os.devnull


def test_an_output_that_cannot_be_opened_is_exit_two_naming_it(tmp_path, sample_cmd, capsys):
    code, out, err = run_cli(capsys, *sample_cmd(5, tmp_path))
    assert (code, out) == (2, "")
    assert str(tmp_path) in err


def test_outputs_are_written_in_place_not_truncated(tmp_path, capsys, monkeypatch):
    # Truncating a file to 0 frees all its blocks, which costs tens of ms
    # per rewrite on a filesystem that discards freed blocks online.
    opened = []
    real_os_open, real_open = os.open, builtins.open

    def os_open(path, flags, *args, **kwargs):
        opened.append((path, flags & os.O_TRUNC != 0))
        return real_os_open(path, flags, *args, **kwargs)

    def py_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int):
            opened.append((file, "w" in mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", py_open)
    prefix = str(tmp_path / "px")
    for _ in range(2):
        assert main(["gen", "prefix", "--H", "3", "-o", prefix]) == 0
    capsys.readouterr()
    outputs = {f"{prefix}.mdp.json", f"{prefix}.obs.json"}
    assert outputs <= {str(path) for path, _ in opened}
    assert [path for path, truncates in opened if truncates] == []
