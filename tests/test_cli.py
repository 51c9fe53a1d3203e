import json

import pytest

import shortsight as ss
from shortsight.cli import _build_parser, main
from shortsight.serialize import parse_dataset, parse_mdp, parse_model, serialize_policy

from conftest import half_behavior


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


def test_reports_are_deterministic(capsys):
    first = run_cli(capsys, "verify", "--prop", "3", "--H", "3")
    second = run_cli(capsys, "verify", "--prop", "3", "--H", "3")
    assert first == second
