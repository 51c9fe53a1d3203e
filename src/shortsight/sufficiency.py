"""Window-sufficiency verdicts and objective-consistency reports.

A learning interface is sufficient for an MDP when no two policies in the
enumerated class induce identical observable segment distributions at every
window start while earning different full-horizon returns. When that fails,
the checker returns the lexicographically first violating pair as a witness.
The consistency report compares the policy ordering under a truncated return
against the full-horizon ordering.

Both checkers evaluate behaviours, not policies: policies that agree on every
(t, state) cell the process reaches share one leaf of the engine's walk,
which advances the occupancy once per node, and every reported index, count
and witness is still over policies in lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .evaluate import _kept_steps
from .mdp import Behaviour, Policy, TabularMDP, _integer, policy_at_index, policy_cells, policy_class_size
from .observation import ObservationModel, _Engine, _require

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class PolicyClass:
    """How the quantifier "for any policy" was actually realized."""

    kind: str  # "deterministic-stationary" | "deterministic-nonstationary"
    enumerated: int
    total: int
    truncated: bool

    def describe(self) -> str:
        note = f"{self.kind}, {self.enumerated} enumerated"
        if self.truncated:
            note += f" (truncated; class contains {self.total}; verdict covers the enumerated subset only)"
        return note


@dataclass(frozen=True)
class Witness:
    """Two policies the interface cannot tell apart despite different returns."""

    index_a: int
    index_b: int
    policy_a: Policy
    policy_b: Policy
    return_a: Fraction
    return_b: Fraction

    @property
    def gap(self) -> Fraction:
        return self.return_a - self.return_b


@dataclass(frozen=True)
class SufficiencyVerdict:
    sufficient: bool
    witness: Witness | None
    policy_class: PolicyClass


@dataclass(frozen=True)
class OrderingReport:
    """Agreement between the truncated-return and full-return policy orderings."""

    last_step: int
    truncated_argmax: tuple[int, ...]
    full_argmax: tuple[int, ...]
    best_truncated: Fraction
    best_full: Fraction
    argmax_intersects: bool
    ordering_agrees: bool
    policy_class: PolicyClass


def require_cap(cap: int, name: str = "cap") -> int:
    """The one rule for a policy cap: a positive integer. `name` locates the value."""
    return _integer(cap, name, 1)


def _enter(mdp: TabularMDP, model: ObservationModel | None, stationary: bool, cap: int) -> tuple[PolicyClass, _Engine]:
    """The one entry of a checker: the MDP and the model if given are
    checked, then the cap, then the class; returns the class and the engine
    compiled for (MDP, model)."""
    _require(mdp, model)
    require_cap(cap)
    total = policy_class_size(mdp, stationary)
    kind = "deterministic-stationary" if stationary else "deterministic-nonstationary"
    return PolicyClass(kind, min(total, cap), total, total > cap), _Engine(mdp, model)


def _walk_class(engine: _Engine, stationary: bool, cap: int | None):
    """The engine's walk over the deterministic class: every point mass at every cell."""
    cells = policy_cells(engine.mdp, stationary)
    return engine.walk(stationary, [engine.point[s] for _, s in cells], cap)


def _refinement_order(starts: tuple[int, ...]) -> tuple[int, ...]:
    """The window starts in the order `check_sufficiency` refines on: the
    last (on the inputs measured, it splits the most buckets), then the
    first, then the rest ascending. Every order gives the same verdict and
    witness."""
    return starts[-1:] + starts[:-1]


def check_sufficiency(
    mdp: TabularMDP,
    model: ObservationModel,
    stationary: bool = True,
    cap: int = DEFAULT_CAP,
) -> SufficiencyVerdict:
    """Decide whether segment statistics pin down full-horizon returns.

    The class is the first `cap` deterministic policies in lexicographic
    order. Policies that agree on every cell the process reaches share one
    behaviour, one leaf of the integer engine's walk. A bucket holds the
    behaviours with equal per-start tables of segment ids and masses, which
    are equal iff their SegmentDistributions are; the interface is
    sufficient iff every bucket carries a single return value. Buckets are
    refined one start's table at a time, in `_refinement_order`, and a bucket
    with a single return is dropped (it holds no witness), so a start's
    window DP runs only for the behaviours left, from the occupancy and cells
    their leaves kept. Otherwise the witness is, as over the policies
    themselves, the first violating pair (i, j) in enumeration order: i the
    smallest index in its bucket, j the smallest index there whose return
    differs.
    """
    pclass, engine = _enter(mdp, model, stationary, cap)
    order = _refinement_order(model.window_starts)
    # The first round splits one bucket, the walk's leaves as they come.
    leaves = _walk_class(engine, stationary, cap)
    survivors = [((b.first, engine.total(rewards), dists, cells) for b, dists, rewards, cells in leaves)]
    for done, t0 in enumerate(order, 1):
        # A member keeps only the occupancy and cells the starts left read.
        last = max(order[done:], default=None)
        d_end, c_end = (0, 0) if last is None else (last + 1, last + model.window_length)
        parts: dict[tuple, list[tuple]] = {}
        for k, members in enumerate(survivors):
            for first, ret, dists, cells in members:
                key = (k, engine.window(t0, dists, cells))
                parts.setdefault(key, []).append((first, ret, dists[:d_end], cells[:c_end]))
        survivors = [members for members in parts.values() if len({ret for _, ret, _, _ in members}) > 1]
        if not survivors:
            break

    best = None
    for members in survivors:
        (i, ret_i), *rest = sorted(member[:2] for member in members)
        for j, ret_j in rest:
            if ret_j != ret_i:
                if best is None or (i, j) < best[:2]:
                    best = (i, j, ret_i, ret_j)
                break

    if best is None:
        return SufficiencyVerdict(True, None, pclass)
    i, j, ret_i, ret_j = best
    den = engine.den(mdp.horizon)
    witness = Witness(
        i, j, policy_at_index(mdp, i, stationary), policy_at_index(mdp, j, stationary),
        Fraction(ret_i, den), Fraction(ret_j, den),
    )
    return SufficiencyVerdict(False, witness, pclass)


def check_objective_consistency(
    mdp: TabularMDP,
    last_step: int,
    stationary: bool = True,
    cap: int = DEFAULT_CAP,
) -> OrderingReport:
    """Compare truncated-return and full-return orderings over the class.

    The class is the first `cap` deterministic policies in lexicographic
    order. Both objectives come from each reached behaviour's leaf of the
    engine's walk; every member shares them. Argmax sets
    list policy indices, ascending. The orderings agree iff for every pair
    the comparison signs coincide, which is checked by grouping on
    truncated values.
    """
    pclass, engine = _enter(mdp, None, stationary, cap)
    keep = _kept_steps(mdp, last_step)
    # Both values are ints over one denominator per objective, so comparing
    # them compares the returns exactly.
    evaluated: list[tuple[int, int, Behaviour]] = []
    for behaviour, _, rewards, _ in _walk_class(engine, stationary, cap):
        evaluated.append((engine.total(rewards[:keep]), engine.total(rewards), behaviour))

    best_t = max(trunc for trunc, _, _ in evaluated)
    best_f = max(full for _, full, _ in evaluated)
    t_argmax = tuple(sorted(
        i for trunc, _, b in evaluated if trunc == best_t for i in b.members(cap)
    ))
    f_argmax = tuple(sorted(
        i for _, full, b in evaluated if full == best_f for i in b.members(cap)
    ))
    intersects = any(trunc == best_t and full == best_f for trunc, full, _ in evaluated)

    # Members of one behaviour share both values, so scanning behaviours
    # decides agreement exactly as scanning their policies would: sorted by
    # truncated value, full values must stay level in a tie and rise across one.
    order = sorted((trunc, full) for trunc, full, _ in evaluated)
    agrees = all(f2 == f1 if t2 == t1 else f2 > f1 for (t1, f1), (t2, f2) in zip(order, order[1:]))

    return OrderingReport(
        last_step=last_step,
        truncated_argmax=t_argmax,
        full_argmax=f_argmax,
        best_truncated=Fraction(best_t, engine.den(keep)),
        best_full=Fraction(best_f, engine.den(mdp.horizon)),
        argmax_intersects=intersects,
        ordering_agrees=agrees,
        policy_class=pclass,
    )
