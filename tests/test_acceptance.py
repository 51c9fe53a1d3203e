"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines as they execute. Every numeric claim is exact rational equality; the
only tolerances anywhere are the pre-registered sampling threshold of
criterion 6 and the wall-clock budgets stated in criteria 1 and 5.
"""

import json
import random
import time
from fractions import Fraction

import shortsight as ss
from shortsight.cli import main as cli_main

from conftest import half_behavior
from oracle import (
    all_stationary_policies,
    oracle_full_return,
    oracle_sufficient,
    oracle_truncated_return,
)
from randmdp import random_mdp, random_model


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_prefix_indistinguishability(capsys):
    ok = True
    for h in (1, 2, 3, 4, 8):
        t0 = time.perf_counter()
        mdp, model = ss.build_prefix(h)
        pol_l, pol_r = ss.commit_policies(mdp)
        dist_l = ss.segment_distribution(mdp, pol_l, model)
        dist_r = ss.segment_distribution(mdp, pol_r, model)
        verdict = ss.check_sufficiency(mdp, model)
        exit_code = cli_main(["verify", "--prop", "1", "--H", str(h)])
        elapsed = time.perf_counter() - t0
        cli_report = json.loads(capsys.readouterr().out)
        ok &= exit_code == 0 and cli_report["passed"] is True
        ok &= ss.distributions_equal(dist_l, dist_r)
        ok &= ss.full_return(mdp, pol_l) == 1 and ss.full_return(mdp, pol_r) == 0
        ok &= not verdict.sufficient
        ok &= verdict.witness.policy_a == pol_l and verdict.witness.policy_b == pol_r
        ok &= elapsed < 1.0
    _report(1, ok, "prefix family: verify --prop 1 exits 0, equal distributions, "
                   "returns 1 vs 0, not-sufficient with (L, R) witness, "
                   "under 1 s for H in {1,2,3,4,8}")


def test_criterion_2_truncated_objective_misranking():
    ok = True
    for h, m in ((3, Fraction(10)), (1, Fraction(3)), (5, Fraction(100))):
        mdp, _ = ss.build_greedy(h, m)
        all_greedy, all_patient = ss.greedy_policies(mdp)
        ok &= ss.truncated_return(mdp, all_greedy, h) == h + 1
        ok &= ss.full_return(mdp, all_greedy) == (h + 1) - m
        ok &= ss.full_return(mdp, all_patient) == 0
        ordering = ss.check_objective_consistency(mdp, h)
        ok &= not ordering.argmax_intersects
        ok &= ordering.best_truncated == h + 1 and ordering.best_full == 0
        gap = ss.full_return(mdp, all_patient) - ss.full_return(mdp, all_greedy)
        ok &= gap == m - (h + 1)
        ok &= ss.verify_proposition(2, h, m).passed
    _report(2, ok, "greedy family: J_H(all-greedy)=H+1, J(all-greedy)=(H+1)-M, "
                   "J(all-patient)=0, disjoint argmax sets, gap M-(H+1), "
                   "for (H,M) in {(3,10),(1,3),(5,100)}")


def test_criterion_3_aliasing_indistinguishability():
    ok = True
    for h in (1, 3, 8):
        mdp, model = ss.build_aliasing(h)
        pol_l, pol_r = ss.commit_policies(mdp)
        ok &= ss.distributions_equal(
            ss.segment_distribution(mdp, pol_l, model),
            ss.segment_distribution(mdp, pol_r, model),
        )
        ok &= ss.full_return(mdp, pol_l) == 1 and ss.full_return(mdp, pol_r) == 0
        ok &= not ss.check_sufficiency(mdp, model).sufficient
        ident = ss.ObservationModel.make(
            model.window_length, model.window_starts, ss.identity_phi(mdp)
        )
        ok &= ss.check_sufficiency(mdp, ident).sufficient
        ok &= ss.verify_proposition(3, h).passed
    _report(3, ok, "aliasing family: aliased model equal with returns 1 vs 0 and "
                   "not-sufficient, identity-phi control sufficient, for H in {1,3,8}")


def test_criterion_4_degeneracy_suite():
    cases = []
    for h in (1, 2, 3, 4):
        cases.append(ss.build_prefix(h))
        cases.append(ss.build_aliasing(h))
        cases.append(ss.build_greedy(h, Fraction(10 * (h + 2))))
    ok = True
    for mdp, model in cases:
        policies = [half_behavior(mdp)]
        if len(mdp.choice_states()) <= 5:
            policies.extend(all_stationary_policies(mdp))
        else:
            policies.extend(
                ss.make_stationary(mdp, default=a) for a in ("greedy", "patient")
            )
        for pol in policies:
            full = ss.full_return(mdp, pol)
            ok &= ss.truncated_return(mdp, pol, mdp.horizon - 1) == full
            ok &= ss.truncated_return(mdp, pol, mdp.horizon + 3) == full
            dist = ss.segment_distribution(mdp, pol, model)
            for _, items in dist.per_start:
                ok &= sum(p for _, p in items) == 1
    _report(4, ok, "every generated MDP: truncation at h >= T-1 equals the full "
                   "return exactly; every per-start segment distribution sums to 1")


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20240810)
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for _ in range(200):
        mdp = random_mdp(rng)
        model = random_model(rng, mdp)
        verdict = ss.check_sufficiency(mdp, model)
        ok &= verdict.sufficient == oracle_sufficient(
            mdp, model, list(all_stationary_policies(mdp))
        )
        h = rng.randint(0, mdp.horizon)
        for pol in all_stationary_policies(mdp):
            ok &= ss.full_return(mdp, pol) == oracle_full_return(mdp, pol)
            ok &= ss.truncated_return(mdp, pol, h) == oracle_truncated_return(mdp, pol, h)
        behavior = half_behavior(mdp)
        ok &= ss.full_return(mdp, behavior) == oracle_full_return(mdp, behavior)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok &= checked >= 200
    ok &= elapsed < 60.0
    _report(5, ok, f"{checked} random MDPs: sufficiency verdicts and full/truncated "
                   f"returns match the brute-force oracle exactly in {elapsed:.1f}s")


def test_criterion_6_sampling_consistency():
    mdp, model = ss.build_prefix(3)
    behavior = half_behavior(mdp)
    ident = ss.ObservationModel.make(
        model.window_length, model.window_starts, ss.identity_phi(mdp)
    )
    ds = ss.sample_dataset(mdp, behavior, 10**4, 77)
    stats = ss.empirical_segments(ds, ident)
    exact = ss.segment_distribution(mdp, behavior, ident)
    tv = ss.tv_distance(stats, exact)[1]
    # pre-registered at the recorded oracle run: observed 67/10000, bound 1/20
    ok = tv == Fraction(67, 10000) and tv < Fraction(1, 20)

    pol_l, pol_r = ss.commit_policies(mdp)
    for n in (1, 7, 50, 400):
        left = ss.empirical_segments(ss.sample_dataset(mdp, pol_l, n, 123), model)
        right = ss.empirical_segments(ss.sample_dataset(mdp, pol_r, n, 123), model)
        ok &= left == right
    _report(6, ok, "prefix sampling: TV(empirical, exact) = 67/10000 < 1/20 at "
                   "n=10^4 with the recorded seed; L-only and R-only segment "
                   "statistics exactly identical at every n")


def _battery(workdir, capture):
    out = []

    def run(*argv):
        code = cli_main(list(argv))
        text = capture.readouterr()
        out.append((argv[0], code, text.out, text.err))

    px = str(workdir / "px")
    gr = str(workdir / "gr")
    al = str(workdir / "al")
    run("gen", "prefix", "--H", "3", "-o", px)
    run("gen", "greedy", "--H", "3", "--M", "10", "-o", gr)
    run("gen", "aliasing", "--H", "3", "-o", al)
    run("verify", "--prop", "1", "--H", "3")
    run("verify", "--prop", "2", "--H", "3", "--M", "10")
    run("verify", "--prop", "3", "--H", "3")
    run("check", "--mdp", f"{px}.mdp.json", "--obs", f"{px}.obs.json")
    run("check", "--mdp", f"{al}.mdp.json", "--obs", f"{al}.obs.json")
    run("ordering", "--mdp", f"{gr}.mdp.json", "--h", "3")

    mdp = ss.build_prefix(3)[0]
    from shortsight.serialize import serialize_policy

    behavior_path = workdir / "behavior.json"
    behavior_path.write_text(serialize_policy(half_behavior(mdp), mdp))
    run("sample", "--mdp", f"{px}.mdp.json", "--behavior", str(behavior_path),
        "--n", "100", "--seed", "9", "-o", str(workdir / "data.json"))
    run("segdist", "--mdp", f"{px}.mdp.json", "--policy", str(behavior_path),
        "--obs", f"{px}.obs.json")

    files = {}
    for path in sorted(workdir.iterdir()):
        files[path.name] = path.read_bytes()
    return out, files


def test_criterion_7_determinism(tmp_path, capsys):
    first = _battery(tmp_path, capsys)
    second = _battery(tmp_path, capsys)
    ok = first == second
    ok &= all(code in (0,) for _, code, _, _ in first[0])
    _report(7, ok, "two full CLI runs (gen/verify/check/ordering/sample/segdist) "
                   "produce byte-identical reports and artifacts")
