"""Three minimal MDP families where a windowed learning interface fails.

Each builder returns a (TabularMDP, ObservationModel) pair:

- "prefix": a single early commitment whose consequence lands after every
  window ends; the bundled feature map hides the commitment flag, so both
  initial actions look identical to the learner.
- "greedy": per-step bonuses for an action that triggers a delayed penalty
  larger than everything it collected; windows see everything, but the
  truncated objective ranks policies in the wrong order.
- "aliasing": two branches whose states are mapped to shared features, so
  windows that start after the branching action carry no trace of which
  branch was taken.

`verify_proposition` re-derives each family's claimed exact values with the
engine and reports a per-claim pass/fail table. Each of a proposition's two
policies is walked once, and both its returns (proposition 2) or its segment
distribution and full return (1 and 3) are read off that one leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InvalidParam, ParseError
from .evaluate import _leaf_return
from .mdp import Policy, TabularMDP, _integer, build_mdp, make_stationary, rational
from .observation import ObservationModel, _evaluate, _segments, all_window_starts, distributions_equal, identity_phi
from .sufficiency import (
    DEFAULT_CAP,
    PolicyClass,
    _ordering,
    check_sufficiency,
    require_cap,
)

FAMILIES = ("prefix", "greedy", "aliasing")


@dataclass(frozen=True)
class CounterexampleSpec:
    family: str
    window_length: int
    penalty: Fraction | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParam(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        h = _integer(self.window_length, "window_length", 1)
        if self.family == "greedy":
            if self.penalty is None:
                raise InvalidParam("greedy family requires a penalty M")
            object.__setattr__(self, "penalty", _penalty(h, self.penalty))
        elif self.penalty is not None:
            raise InvalidParam(f"family {self.family!r} takes no penalty")


def build_counterexample(spec: CounterexampleSpec) -> tuple[TabularMDP, ObservationModel]:
    if spec.family == "prefix":
        return build_prefix(spec.window_length)
    if spec.family == "greedy":
        return build_greedy(spec.window_length, spec.penalty)
    return build_aliasing(spec.window_length)


def build_prefix(window_length: int) -> tuple[TabularMDP, ObservationModel]:
    """Commitment chain: choice at s0, outcome revealed only at the last step.

    The commitment is carried by duplicated chain states (s{t}_L / s{t}_R) to
    keep the flat process Markov; the bundled feature map merges the copies,
    so every window starting at t=1 is identical under both commitments.
    """
    return _two_chains(window_length, lambda t, side: f"s{t}_{side}", lambda t: f"s{t}")


def build_greedy(window_length: int, penalty) -> tuple[TabularMDP, ObservationModel]:
    """Bonus-now/penalty-later chain with an absorbing trigger flag.

    Choosing "greedy" anywhere pays +1 immediately and latches the flag;
    the flagged chain ends in a trap worth -penalty, the clean chain in a
    zero-reward safe state, followed by one absorbing pad step. Windows see
    states and rewards; the failure is in the truncated objective itself,
    not in observability.
    """
    h = _integer(window_length, "window_length", 1)
    m = _penalty(h, penalty)

    states = ["s0"]
    for t in range(1, h + 2):
        states += [f"s{t}_clean", f"s{t}_flag"]
    states += ["trap", "safe"]

    actions = {"s0": ("greedy", "patient")}
    transitions = {
        ("s0", "greedy"): [("s1_flag", 1, 1)],
        ("s0", "patient"): [("s1_clean", 1, 0)],
    }
    for t in range(1, h + 1):
        actions[f"s{t}_clean"] = ("greedy", "patient")
        actions[f"s{t}_flag"] = ("greedy", "patient")
        transitions[(f"s{t}_clean", "greedy")] = [(f"s{t+1}_flag", 1, 1)]
        transitions[(f"s{t}_clean", "patient")] = [(f"s{t+1}_clean", 1, 0)]
        transitions[(f"s{t}_flag", "greedy")] = [(f"s{t+1}_flag", 1, 1)]
        transitions[(f"s{t}_flag", "patient")] = [(f"s{t+1}_flag", 1, 0)]
    actions[f"s{h+1}_clean"] = ("go",)
    actions[f"s{h+1}_flag"] = ("go",)
    transitions[(f"s{h+1}_clean", "go")] = [("safe", 1, 0)]
    transitions[(f"s{h+1}_flag", "go")] = [("trap", 1, -m)]

    mdp = build_mdp(
        states=states,
        actions=actions,
        transitions=transitions,
        horizon=h + 3,
        initial={"s0": 1},
        terminal=("trap", "safe"),
    )
    phi = {"s0": "s0", "trap": "trap", "safe": "safe"}
    for t in range(1, h + 2):
        phi[f"s{t}_clean"] = f"s{t}"
        phi[f"s{t}_flag"] = f"s{t}"
    return mdp, ObservationModel.make(h, all_window_starts(mdp, h), phi)


def build_aliasing(window_length: int) -> tuple[TabularMDP, ObservationModel]:
    """Two branches collapsed to shared features inside every window.

    The branch states u{t} and v{t} are mapped to one feature w{t} for the
    whole branch length, and windows start only at t=1, after the branching
    action; the terminals that reveal the value difference sit past every
    window's end.
    """
    return _two_chains(window_length, lambda t, side: f"{'u' if side == 'L' else 'v'}{t}", lambda t: f"w{t}")


def _two_chains(window_length: int, name, feature) -> tuple[TabularMDP, ObservationModel]:
    """s0 chooses L or R, entering a go-only chain of H+1 states, name(t,
    side) for t = 1..H+1, that ends in g (reward 1) after L and b (reward 0)
    after R. Chain states at depth t share feature(t); windows start at t=1."""
    h = _integer(window_length, "window_length", 1)
    states, actions, phi = ["s0"], {"s0": ("L", "R")}, {"s0": "s0", "g": "g", "b": "b"}
    transitions = {("s0", side): [(name(1, side), 1, 0)] for side in ("L", "R")}
    for side, end, reward in (("L", "g", 1), ("R", "b", 0)):
        for t in range(1, h + 2):
            s = name(t, side)
            states.append(s)
            actions[s] = ("go",)
            transitions[(s, "go")] = [(name(t + 1, side), 1, 0) if t <= h else (end, 1, reward)]
            phi[s] = feature(t)
    mdp = build_mdp(
        states=states + ["g", "b"],
        actions=actions,
        transitions=transitions,
        horizon=h + 2,
        initial={"s0": 1},
        terminal=("g", "b"),
    )
    return mdp, ObservationModel.make(h, (1,), phi)


def commit_policies(mdp: TabularMDP) -> tuple[Policy, Policy]:
    """The two stationary policies of the prefix/aliasing families (L first)."""
    return make_stationary(mdp, {"s0": "L"}), make_stationary(mdp, {"s0": "R"})


def greedy_policies(mdp: TabularMDP) -> tuple[Policy, Policy]:
    """(all-greedy, all-patient) for the greedy family."""
    return make_stationary(mdp, default="greedy"), make_stationary(mdp, default="patient")


def _penalty(h: int, penalty) -> Fraction:
    try:
        m = rational(penalty)
    except (TypeError, ParseError):
        raise InvalidParam(f"penalty must be an exact rational (int, Fraction or \"p/q\"), got {penalty!r}") from None
    if m <= h + 1:
        raise InvalidParam(f"penalty must satisfy M > H+1 (here H+1 = {h + 1}), got {m}")
    return m


@dataclass(frozen=True)
class ClaimCheck:
    description: str
    expected: str
    computed: str
    passed: bool


@dataclass(frozen=True)
class PropositionReport:
    proposition: int
    family: str
    window_length: int
    penalty: Fraction | None
    checks: tuple[ClaimCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _value_claim(description, expected, computed) -> ClaimCheck:
    return ClaimCheck(description, str(expected), str(computed), expected == computed)


def _flag_claim(description, true_word, false_word, expected, computed) -> ClaimCheck:
    return ClaimCheck(
        description,
        true_word if expected else false_word,
        true_word if computed else false_word,
        computed == expected,
    )


def _scoped(claim: ClaimCheck, pclass: PolicyClass) -> ClaimCheck:
    """Name the cap in a claim computed over a truncated class."""
    if not pclass.truncated:
        return claim
    note = f"over the first {pclass.enumerated} of {pclass.total} policies: class truncated by the cap"
    return replace(claim, computed=f"{claim.computed} ({note})")


def verify_proposition(
    proposition: int,
    window_length: int,
    penalty=None,
    cap: int = DEFAULT_CAP,
) -> PropositionReport:
    """Re-derive one proposition's exact claims and report each check.

    Proposition p is about family FAMILIES[p - 1], and its arguments pass
    the same checks as a `CounterexampleSpec` of that family.
    """
    require_cap(cap)
    if _integer(proposition, "proposition") not in (1, 2, 3):
        raise InvalidParam(f"proposition must be 1, 2 or 3, got {proposition}")
    spec = CounterexampleSpec(FAMILIES[proposition - 1], window_length, penalty)
    if proposition == 2:
        return _verify_greedy(spec, cap)
    return _verify_commit(proposition, spec, cap)


def _verify_commit(proposition: int, spec: CounterexampleSpec, cap: int) -> PropositionReport:
    """Propositions 1 (prefix) and 3 (aliasing): the L and R policies look
    alike in every window but earn 1 and 0, and a control model tells them apart."""
    mdp, model = build_counterexample(spec)
    if proposition == 1:
        noun, view = "commit", "the L and R commitments"
        remedy = "a window covering the initial action"
        control = replace(model, window_starts=(0, *model.window_starts))
    else:
        noun, view = "branch", "the aliased feature map"
        remedy = "the identity feature map"
        control = replace(model, phi=identity_phi(mdp))
    pol_l, pol_r = commit_policies(mdp)
    leaf_l, leaf_r = _evaluate(mdp, pol_l, model), _evaluate(mdp, pol_r, model)
    verdict = check_sufficiency(mdp, model, cap=cap)
    w = verdict.witness
    control_verdict = check_sufficiency(mdp, control, cap=cap)
    checks = [
        _flag_claim(f"segment distributions under {view}", "equal", "different", True,
                    distributions_equal(_segments(pol_l, leaf_l), _segments(pol_r, leaf_r))),
        _value_claim(f"full return of the L-{noun} policy", Fraction(1), _leaf_return(leaf_l, mdp.horizon - 1)),
        _value_claim(f"full return of the R-{noun} policy", Fraction(0), _leaf_return(leaf_r, mdp.horizon - 1)),
        _scoped(_flag_claim(
            "window statistics identify the optimal policy",
            "sufficient", "not sufficient", False, verdict.sufficient,
        ), verdict.policy_class),
        _scoped(_flag_claim(
            f"witness pair is ({noun}-L, {noun}-R) with returns (1, 0)",
            "yes", "no", True,
            w is not None and (w.policy_a, w.policy_b, w.return_a, w.return_b) == (pol_l, pol_r, 1, 0),
        ), verdict.policy_class),
        _scoped(_flag_claim(
            f"control: {remedy} restores sufficiency",
            "sufficient", "not sufficient", True, control_verdict.sufficient,
        ), control_verdict.policy_class),
    ]
    return PropositionReport(proposition, spec.family, spec.window_length, None, tuple(checks))


def _verify_greedy(spec: CounterexampleSpec, cap: int) -> PropositionReport:
    h, m = spec.window_length, spec.penalty
    mdp, _ = build_counterexample(spec)
    all_greedy, all_patient = greedy_policies(mdp)
    leaf_greedy, leaf_patient = _evaluate(mdp, all_greedy), _evaluate(mdp, all_patient)
    ret_greedy = _leaf_return(leaf_greedy, mdp.horizon - 1)
    ret_patient = _leaf_return(leaf_patient, mdp.horizon - 1)
    report, _ = _ordering(mdp, h, True, cap)  # no argmax listing: the claims read none
    pclass = report.policy_class

    checks = [
        _value_claim("truncated return of all-greedy (steps 0..H)", Fraction(h + 1), _leaf_return(leaf_greedy, h)),
        _scoped(_value_claim("truncated-return maximum over the class", Fraction(h + 1), report.best_truncated), pclass),
        _value_claim("truncated return of all-patient", Fraction(0), _leaf_return(leaf_patient, h)),
        _value_claim("full return of all-greedy", Fraction(h + 1) - m, ret_greedy),
        _value_claim("full return of all-patient", Fraction(0), ret_patient),
        _scoped(_value_claim("full-return maximum over the class", Fraction(0), report.best_full), pclass),
        _scoped(_flag_claim(
            "truncated and full argmax sets",
            "overlapping", "disjoint", False, report.argmax_intersects,
        ), pclass),
        _scoped(_flag_claim(
            "truncated ordering matches the full ordering",
            "yes", "no", False, report.ordering_agrees,
        ), pclass),
        _value_claim("suboptimality gap J(all-patient) - J(all-greedy)", m - (h + 1), ret_patient - ret_greedy),
    ]
    return PropositionReport(2, "greedy", h, m, tuple(checks))
