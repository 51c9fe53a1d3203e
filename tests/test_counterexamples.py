import re
from fractions import Fraction

import pytest

import shortsight as ss
from shortsight import counterexamples
from shortsight.errors import InvalidParam

from oracle import oracle_segments


GREEDY_PENALTIES = lambda h: (Fraction(h + 2), Fraction(10 * (h + 2)))


def test_spec_rejects_bad_params():
    with pytest.raises(InvalidParam):
        ss.CounterexampleSpec("prefix", 0)
    with pytest.raises(InvalidParam):
        ss.CounterexampleSpec("nonsense", 2)
    with pytest.raises(InvalidParam):
        ss.CounterexampleSpec("greedy", 2)  # penalty required
    with pytest.raises(InvalidParam):
        ss.CounterexampleSpec("greedy", 2, Fraction(3))  # M = H+1 boundary
    with pytest.raises(InvalidParam):
        ss.CounterexampleSpec("greedy", 2, Fraction(5, 2))  # M < H+1
    with pytest.raises(InvalidParam):
        ss.CounterexampleSpec("prefix", 2, Fraction(7))  # penalty not allowed
    with pytest.raises(InvalidParam):
        ss.build_prefix(0)
    with pytest.raises(InvalidParam):
        ss.build_greedy(2, 3)
    with pytest.raises(InvalidParam):
        ss.build_aliasing(-1)


@pytest.mark.parametrize("penalty", [5.5, True, "five", "1/0", [10]])
def test_a_bad_greedy_penalty_is_a_located_error(penalty):
    with pytest.raises(InvalidParam, match="penalty must be an exact rational"):
        ss.CounterexampleSpec("greedy", 2, penalty)
    with pytest.raises(InvalidParam, match="penalty must be an exact rational"):
        ss.build_greedy(2, penalty)


@pytest.mark.parametrize("text", ["0.5", "1e2", "1.0", "2/4", "007", "1\n"])
def test_a_penalty_string_takes_one_spelling(text):
    with pytest.raises(InvalidParam, match="penalty must be an exact rational"):
        ss.CounterexampleSpec("greedy", 2, text)


def test_a_penalty_string_in_the_one_spelling_is_read():
    assert ss.CounterexampleSpec("greedy", 2, "100").penalty == 100
    for text in ("1/2", "-3"):
        with pytest.raises(InvalidParam, match=re.escape(f"M > H+1 (here H+1 = 3), got {Fraction(text)}")):
            ss.CounterexampleSpec("greedy", 2, text)


@pytest.mark.parametrize("window_length", [2.5, True, "2"])
def test_builders_reject_a_non_integer_window_length(window_length):
    with pytest.raises(InvalidParam, match="window_length must be an integer"):
        ss.build_prefix(window_length)
    with pytest.raises(InvalidParam, match="window_length must be an integer"):
        ss.CounterexampleSpec("greedy", window_length, Fraction(10))


def test_build_counterexample_dispatch():
    mdp, model = ss.build_counterexample(ss.CounterexampleSpec("greedy", 2, Fraction(4)))
    assert "trap" in mdp.states
    assert model.window_length == 2


def test_prefix_structure_smallest_instance():
    mdp, model = ss.build_prefix(1)
    assert ss.validate_mdp(mdp) == []
    assert mdp.horizon == 3  # H + 2
    assert model.window_starts == (1,)
    assert mdp.choice_states() == (mdp.index("s0"),)


def test_aliasing_structure_smallest_instance():
    mdp, model = ss.build_aliasing(1)
    assert ss.validate_mdp(mdp) == []
    assert mdp.horizon == 3
    assert model.window_starts == (1,)


def test_greedy_structure():
    mdp, model = ss.build_greedy(3, 10)
    assert mdp.horizon == 6  # H + 3, one absorbing pad step after the outcome
    assert model.window_starts == (0, 1, 2, 3)
    assert model.observe_rewards
    assert len(mdp.choice_states()) == 7  # s0 plus clean/flag pairs for t=1..H


def test_all_families_validate_and_verify_across_grid():
    for h in range(1, 9):
        for prop in (1, 3):
            report = ss.verify_proposition(prop, h)
            assert report.passed, (prop, h, [c for c in report.checks if not c.passed])
        for build in (ss.build_prefix, ss.build_aliasing):
            mdp, model = build(h)
            assert ss.validate_mdp(mdp) == []
            assert ss.validate_model(mdp, model) == []
        for m in GREEDY_PENALTIES(h):
            mdp, model = ss.build_greedy(h, m)
            assert ss.validate_mdp(mdp) == []
            assert ss.validate_model(mdp, model) == []
            report = ss.verify_proposition(2, h, m)
            assert report.passed, (h, m, [c for c in report.checks if not c.passed])


def test_gap_scales_with_penalty():
    for h in range(1, 9):
        for m in GREEDY_PENALTIES(h):
            mdp, _ = ss.build_greedy(h, m)
            all_greedy, all_patient = ss.greedy_policies(mdp)
            gap = ss.full_return(mdp, all_patient) - ss.full_return(mdp, all_greedy)
            assert gap == m - (h + 1)


def test_greedy_hand_evaluated_smallest_case():
    # frozen hand evaluation: H=1, M=3 gives J(greedy) = 2 - 3 = -1
    mdp, _ = ss.build_greedy(1, 3)
    all_greedy, all_patient = ss.greedy_policies(mdp)
    assert ss.full_return(mdp, all_greedy) == -1
    assert ss.full_return(mdp, all_patient) == 0
    assert ss.truncated_return(mdp, all_greedy, 1) == 2


def test_prefix_identity_phi_reveals_the_commitment():
    # with the commitment copies left distinct, the two trajectories differ
    # inside the window; checked against the brute-force oracle
    mdp, model = ss.build_prefix(3)
    ident = ss.ObservationModel.make(
        model.window_length, model.window_starts, ss.identity_phi(mdp)
    )
    pol_l, pol_r = ss.commit_policies(mdp)
    assert oracle_segments(mdp, pol_l, ident) != oracle_segments(mdp, pol_r, ident)
    assert not ss.distributions_equal(
        ss.segment_distribution(mdp, pol_l, ident),
        ss.segment_distribution(mdp, pol_r, ident),
    )


def test_aliasing_branch_end_aliasing_is_load_bearing():
    # windows starting at t=1 do reach the final branch states; the bundled
    # feature map must alias them for the two branches to coincide, and the
    # brute-force oracle agrees that they then do
    mdp, model = ss.build_aliasing(3)
    assert model.phi_map["u4"] == model.phi_map["v4"]
    pol_l, pol_r = ss.commit_policies(mdp)
    assert oracle_segments(mdp, pol_l, model) == oracle_segments(mdp, pol_r, model)
    halfway = dict(ss.identity_phi(mdp))
    for t in range(1, 4):  # alias t = 1..H only, leaving the branch ends apart
        halfway[f"u{t}"] = halfway[f"v{t}"] = f"w{t}"
    partial = ss.ObservationModel.make(3, (1,), halfway)
    assert oracle_segments(mdp, pol_l, partial) != oracle_segments(mdp, pol_r, partial)


def test_prefix_control_start_zero_restores_sufficiency():
    mdp, model = ss.build_prefix(3)
    control = ss.ObservationModel.make(
        model.window_length, (0, 1), model.phi_map, observe_actions=True
    )
    assert ss.check_sufficiency(mdp, control).sufficient
    # and with the action hidden, start 0 alone still aliases everything
    blind = ss.ObservationModel.make(
        model.window_length, (0, 1), model.phi_map, observe_actions=False
    )
    assert not ss.check_sufficiency(mdp, blind).sufficient


def test_aliasing_control_identity_phi_restores_sufficiency():
    mdp, model = ss.build_aliasing(3)
    ident = ss.ObservationModel.make(
        model.window_length, model.window_starts, ss.identity_phi(mdp)
    )
    assert ss.check_sufficiency(mdp, ident).sufficient


def test_verify_proposition_examples():
    assert ss.verify_proposition(1, 4).passed
    report = ss.verify_proposition(2, 3, Fraction(10))
    assert report.passed
    computed = {c.description: c.computed for c in report.checks}
    assert computed["truncated return of all-greedy (steps 0..H)"] == "4"
    assert computed["full return of all-greedy"] == "-6"
    assert computed["full return of all-patient"] == "0"
    assert ss.verify_proposition(3, 2).passed
    with pytest.raises(InvalidParam):
        ss.verify_proposition(4, 2)
    with pytest.raises(InvalidParam):
        ss.verify_proposition(2, 3)  # penalty missing


@pytest.mark.parametrize("proposition", [1.0, True, "1", None])
def test_verify_rejects_a_proposition_that_is_not_an_integer(proposition):
    # Once: 1.0 raised a raw TypeError and True reported proposition True.
    with pytest.raises(InvalidParam, match=re.escape(f"proposition must be an integer, got {proposition!r}")):
        ss.verify_proposition(proposition, 2)
    with pytest.raises(InvalidParam, match="proposition must be 1, 2 or 3, got 0"):
        ss.verify_proposition(0, 2)


def test_report_pass_iff_every_check_passes():
    report = ss.verify_proposition(1, 2)
    assert report.passed == all(c.passed for c in report.checks)
    demoted = ss.PropositionReport(
        report.proposition,
        report.family,
        report.window_length,
        report.penalty,
        report.checks + (ss.ClaimCheck("forced failure", "1", "0", False),),
    )
    assert not demoted.passed


@pytest.mark.parametrize("prop, h, m", [(1, 7, None), (2, 7, 90), (3, 7, None)])
def test_verify_validates_each_mdp_it_builds_once(monkeypatch, mdp_checks, prop, h, m):
    # The MDP goes through several public entry points, each of which
    # requires a valid MDP; the full check runs on it once.
    built = []
    build = counterexamples.build_mdp

    def counting_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(counterexamples, "build_mdp", counting_build)
    assert ss.verify_proposition(prop, h, m).passed
    assert len(built) == 1
    assert [id(x) for x in mdp_checks] == [id(x) for x in built]
