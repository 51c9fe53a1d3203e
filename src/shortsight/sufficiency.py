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
and witness is still over policies in lexicographic order. The sufficiency
check needs no walk when the model shows rewards and its windows span every
step, and otherwise settles what it can on the step rewards each leaf
already holds before it runs any window DP. The ordering check keeps no
leaf. Where every cell below a walk node is undecided at it (any
nonstationary class, and a stationary class on a layered MDP) the subtree
below the node depends only on its depth and occupancy, so the check
summarises each (depth, occupancy) once and lists the argmax members in a
second walk; both passes are hooks on the engine's walk, which skip the
subtrees they need not enter. Otherwise one pass over the walk holds only
the maxima, their argmax members and what agreement still needs, and once a
truncated tie breaks its hook prunes: it skips each node whose path value
plus a backward-induction bound on its suffix is below both running maxima.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import pairwise
from typing import Callable

from .evaluate import _kept_steps
from .mdp import Policy, TabularMDP, _integer, policy_at_index, policy_class_size
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


def _refinement_order(starts: tuple[int, ...]) -> tuple[int, ...]:
    """The window starts in the order `check_sufficiency` refines on: the
    last, then the first, then the rest ascending. Every order gives the
    same verdict and witness. With rewards hidden, the last start splits
    the most buckets: on `perfbench.workloads.random_dense_docs(ss, 0, 3)`
    with rewards hidden, over the uncapped nonstationary class, `check` took
    5.2-7.7 s in this order and 13.9-17.1 s with the starts ascending (two
    runs each, 2 vCPU, Python 3.11.7). On a blind view no start splits any."""
    return starts[-1:] + starts[:-1]


def _split(keyed) -> list[list[tuple]]:
    """One refinement round: bucket (key, member) pairs on the key and keep
    the buckets that carry two returns. A member (first, return, occupancy,
    cells) was cut once, where the walk yielded it, so a round only
    re-buckets."""
    parts: dict[tuple, list[tuple]] = {}
    for key, member in keyed:
        parts.setdefault(key, []).append(member)
    return [members for members in parts.values() if len({ret for _, ret, _, _ in members}) > 1]


def check_sufficiency(
    mdp: TabularMDP,
    model: ObservationModel,
    stationary: bool = True,
    cap: int = DEFAULT_CAP,
) -> SufficiencyVerdict:
    """Decide whether segment statistics pin down full-horizon returns.

    The class is the first `cap` deterministic policies in lexicographic
    order. When the model shows rewards and its windows span every step,
    the interface is sufficient with no walk: a table fixes the expected
    reward of each step its window spans, so equal tables fix equal
    returns. Otherwise policies that agree on every cell the process
    reaches share one behaviour, one leaf of the integer engine's walk. A
    bucket holds the behaviours with equal per-start tables of segment ids
    and masses, which are equal iff their SegmentDistributions are; the
    interface is sufficient iff every bucket carries a single return value.

    Buckets are refined in rounds, and after each round a bucket with a
    single return is dropped (it holds no witness). Round 0 runs no window
    DP: it buckets the walk's leaves on their expected rewards at the steps
    some window spans when the model shows rewards (on nothing otherwise).
    That is exact for the same reason, and every leaf holds those rewards
    as ints over one denominator per step, so each round-0 bucket is a
    union of exact buckets. Each leaf's occupancy and cells are cut once, as
    the walk yields it, to what the last start's window reads, which every
    start's window reads a prefix of. The later rounds only re-bucket the
    survivors on one start's table at a time, in `_refinement_order`, so a
    start's window DP runs only for the behaviours left. The witness is, as
    over the policies themselves, the first violating pair (i, j) in
    enumeration order: i the smallest index in its bucket, j the smallest
    index there whose return differs.
    """
    pclass, engine = _enter(mdp, model, stationary, cap)
    H, order = model.window_length, _refinement_order(model.window_starts)
    seen = sorted({t for t0 in order for t in range(t0, t0 + H)}) if model.observe_rewards else []
    if len(seen) == mdp.horizon:
        return SufficiencyVerdict(True, None, pclass)
    # Every start reads a prefix of a leaf's occupancy and cells cut to the
    # last start's window. Round 0 keys on the rewards of the steps in
    # `seen`; round k on the table of start order[k - 1].
    last = model.window_starts[-1]
    keyed = (
        (tuple(rewards[t] for t in seen), (b.first, engine.total(rewards), dists[: last + 1], cells[: last + H]))
        for b, dists, rewards, cells in engine.walk(stationary, None, cap)
    )
    survivors = _split(keyed)
    for t0 in order:
        keyed = (((k, engine.window(t0, *m[2:])), m) for k, members in enumerate(survivors) for m in members)
        survivors = _split(keyed)

    pairs = []
    for members in survivors:
        (i, ret_i), *rest = sorted(member[:2] for member in members)
        j, ret_j = next(member for member in rest if member[1] != ret_i)
        pairs.append((i, j, ret_i, ret_j))

    if not pairs:
        return SufficiencyVerdict(True, None, pclass)
    i, j, ret_i, ret_j = min(pairs)
    den = engine.den(mdp.horizon)
    witness = Witness(
        i, j, policy_at_index(mdp, i, stationary), policy_at_index(mdp, j, stationary),
        Fraction(ret_i, den), Fraction(ret_j, den),
    )
    return SufficiencyVerdict(False, witness, pclass)


def _layered(engine: _Engine) -> bool:
    """Whether each choice state is reachable at one step at most, whatever
    the actions: read off the support of the forward pass over every action."""
    seen, here = set(), set(engine.init)
    for _ in range(engine.mdp.horizon):
        choice = {s for s in here if len(engine.outs[s]) > 1}
        if choice & seen:
            return False
        seen |= choice
        here = {s2 for s in here for o in engine.outs[s] for s2, *_ in o}
    return True


class _Node:
    """An open node of the memoised pass: its key; the truncated and full
    values `pt`, `pf` of the path above it; over the children taken so far,
    the truncated and full suffix maxima and whether one behaviour reaches
    both; and the dict of (truncated -> full) leaf values it adds to: its own
    when its key was met again, so that the memo keeps it, else its
    parent's."""

    __slots__ = ("key", "pt", "pf", "bt", "bf", "both", "pairs")

    def __init__(self, key, pt, pf, pairs):
        self.key, self.pt, self.pf, self.pairs = key, pt, pf, pairs
        self.bt = self.bf = None
        self.both = False

    def take(self, vt, vf, both: bool) -> None:
        """Take a child's suffix maxima, the step between them added."""
        if self.bt is None or vt > self.bt:
            self.bt, self.both = vt, False
        if self.bf is None or vf > self.bf:
            self.bf, self.both = vf, False
        self.both = self.both or (both and (vt, vf) == (self.bt, self.bf))


def _union(into: dict, pairs) -> bool:
    """Add (truncated, full) pairs to `into`; False once a truncated value
    meets a second full value, a tie that breaks."""
    return all(into.setdefault(k, v) == v for k, v in pairs)


def _summaries(walk, weights, key) -> tuple[dict, _Node, dict | None]:
    """The memoised pass, as (memo, root, pairs): the hook of one `walk`,
    which it lets through no leaf.

    A node's summary is its truncated and full suffix maxima and whether one
    behaviour reaches both, as ints over the class's two denominators
    (`weights[t]` scales step t's reward into each). It is computed once per
    memo key, by walking the node, and taken from the memo wherever the key
    recurs, the node's subtree skipped. The memo holds the nodes at depths
    1 to T - 2: the root never recurs, and a node at depth T - 1 is
    summarised from its leaves wherever it is met, as the nodes of that
    depth are the most numerous and, where occupancies are rarely shared, a
    key for each would only cost time and memory. The open nodes are a
    stack by depth; the walk is depth-first, so the nodes at depth t or
    deeper are closed, and their summaries complete, when a node at depth t
    is entered. Each leaf is folded into its parent where it is entered.
    `pairs` maps each truncated value of the class to its full value while
    no tie breaks, else is None. Until then a node whose key recurs also
    keeps its own pairs, with the path values they were taken under; a node
    met again after its pairs went to its parent's dict is walked once
    more, and kept from then on.
    """
    T, memo, again = len(weights), {}, set()
    stack, agreeing = [_Node(None, 0, 0, {})], True

    def close(t: int) -> None:
        """Close the open nodes at depth t or deeper, each into its parent."""
        nonlocal agreeing
        while len(stack) > t:
            node = stack.pop()
            kept = (node.pt, node.pf, node.pairs) if agreeing and node.key in again else None
            if node.key is not None:
                memo[node.key] = (node.bt, node.bf, node.both, kept)
            up = stack[-1]
            up.take(node.bt + node.pt - up.pt, node.bf + node.pf - up.pf, node.both)
            if agreeing and node.pairs is not up.pairs:
                agreeing = _union(up.pairs, node.pairs.items())

    def enter(t, first, last, dist, r) -> bool:
        nonlocal agreeing
        close(t)
        node = stack[-1]
        wt, wf = r * weights[t - 1][0], r * weights[t - 1][1]
        pt, pf = node.pt + wt, node.pf + wf
        if t == T:
            node.take(wt, wf, True)
            agreeing = agreeing and node.pairs.setdefault(pt, pf) == pf
            return True
        k = key(t, first, last, dist) if t < T - 1 else None
        hit = memo.get(k)
        if hit is not None and (not agreeing or hit[3] is not None):
            node.take(hit[0] + wt, hit[1] + wf, hit[2])
            if agreeing:
                qt, qf, pairs = hit[3]
                agreeing = _union(node.pairs, ((v + pt - qt, w + pf - qf) for v, w in pairs.items()))
            return True
        if hit is not None:
            again.add(k)
        stack.append(_Node(k, pt, pf, {} if k in again else node.pairs))
        return False

    for _ in walk(enter):
        pass
    close(1)
    root = stack[0]
    return memo, root, root.pairs if agreeing else None


def _argmax(walk, memo: dict, weights, best, key, cap: int) -> tuple[list[int], list[int]]:
    """The members at the truncated and the full maximum, each ascending: a
    second `walk`, whose hook skips a node whose memoised maxima reach
    neither of the class's (a node at depth T - 1, not memoised, is entered
    to read its leaves)."""
    T, argmax = len(weights), ([], [])
    path = [(0, 0)] * (T + 1)  # the truncated and full values of the path to each depth

    def enter(t, first, last, dist, r) -> bool:
        vt, vf = path[t] = path[t - 1][0] + r * weights[t - 1][0], path[t - 1][1] + r * weights[t - 1][1]
        if t < T - 1:
            bt, bf, _, _ = memo[key(t, first, last, dist)]
            return vt + bt != best[0] and vf + bf != best[1]
        return False

    for behaviour, *_ in walk(enter):
        members = behaviour.members(cap)
        for k, value in enumerate(path[T]):
            if value == best[k]:
                argmax[k].extend(members)
    for members in argmax:
        members.sort()
    return argmax


def _weights(engine: _Engine, keep: int) -> list[tuple[int, int]]:
    """Per step t, the (truncated, full) factors that scale step t's reward
    into ints over den(keep) and den(T), so that comparing two values
    compares the returns exactly."""
    T, step = engine.mdp.horizon, engine.step
    return [(step ** (keep - 1 - t) if t < keep else 0, step ** (T - 1 - t)) for t in range(T)]


def _memoised(engine: _Engine, stationary: bool, weights, cap: int) -> tuple:
    """The ordering check's (maxima, argmax listing, intersects, pairs) by
    the memoised pass, the listing the argmax walk. The class is one in
    which every cell that a node's subtree reaches is undecided at the node:
    any nonstationary class, and a stationary class on a `_layered` MDP. So
    the subtree below a node depends only on its depth and occupancy."""

    def key(t, first, last, dist) -> tuple:
        """A node's memo key. Its summary covers its members below the cap:
        when every member is below it, that is its subtree, which its depth
        and occupancy fix; otherwise the node is keyed by itself, which its
        depth and first index name."""
        return (t, tuple(sorted(dist.items()))) if last < cap else (t, first)

    walk = partial(engine.walk, stationary, None, cap)
    memo, root, pairs = _summaries(walk, weights, key)
    best = (root.bt, root.bf)
    return best, partial(_argmax, walk, memo, weights, best, key, cap), root.both, pairs


def _bounds(engine: _Engine, weights) -> list[tuple[list[int], list[int]]]:
    """Per depth t, per objective, per state s, V_t(s): the best weighted
    value of steps t to T - 1 from unit mass at s at t, over every action at
    every step, so a bound on every completion of a node at t. By backward
    induction, V_T(s) = 0 and V_t(s) = max over s's cells of the sum of
    q * p * (r_num[r] * w_t + V_(t+1)(s2)); integers only, so exact."""
    bounds, r_num = [([0] * len(engine.point),) * 2], engine.r_num
    for w in reversed(weights):
        after = bounds[-1]
        bounds.append(tuple(
            [max(sum(q * p * (r_num[r] * w[k] + after[k][s2]) for q, o in cell for s2, p, r, _ in o) for cell in cells)
             for cells in engine.point]
            for k in (0, 1)
        ))
    return bounds[::-1]


def _scanned(engine: _Engine, weights, cap: int) -> tuple:
    """The ordering check's (maxima, argmax listing, intersects, pairs) by
    one pass over the walk's leaves, for a stationary class on an MDP that
    is not layered, pruned once a truncated tie breaks. Maxima only rise, so
    a node whose bound is below both running maxima holds no member at
    either final maximum, nor one at both."""
    T, bounds = len(weights), _bounds(engine, weights)
    # Per objective (truncated, full), as ints over one denominator each:
    # the running maximum and the members at it; and the values of the path
    # to each depth.
    best, argmax, intersects, full_of = [None, None], [[], []], False, {}
    path = [(0, 0)] * (T + 1)

    def enter(t, first, last, dist, r) -> bool:
        (wt, wf), (vt, vf) = weights[t - 1], path[t - 1]
        vt, vf = path[t] = vt + r * wt, vf + r * wf
        if full_of is not None:
            return False
        bt, bf = bounds[t]
        return vt + sum(m * bt[s] for s, m in dist.items()) < best[0] and vf + sum(m * bf[s] for s, m in dist.items()) < best[1]

    for behaviour, *_ in engine.walk(True, None, cap, enter):
        values = path[T]
        for k, value in enumerate(values):
            if best[k] is None or value > best[k]:
                best[k], argmax[k], intersects = value, [], False
            if value == best[k]:
                argmax[k].extend(behaviour.members(cap))
        intersects = intersects or tuple(best) == values
        if full_of is not None and full_of.setdefault(*values) != values[1]:
            full_of = None
    return best, lambda: [sorted(members) for members in argmax], intersects, full_of


def _ordering(mdp: TabularMDP, last_step: int, stationary: bool, cap: int) -> tuple[OrderingReport, Callable]:
    """The ordering check with its argmax sets left empty, and the call that
    lists them: the maxima and both flags, all that `verify` reads, cost no
    listing of members."""
    pclass, engine = _enter(mdp, None, stationary, cap)
    keep = _kept_steps(mdp, last_step)
    weights = _weights(engine, keep)
    if stationary and not _layered(engine):
        best, listing, intersects, full_of = _scanned(engine, weights, cap)
    else:
        best, listing, intersects, full_of = _memoised(engine, stationary, weights, cap)
    agrees = full_of is not None and all(f1 < f2 for f1, f2 in pairwise(full_of[t] for t in sorted(full_of)))
    best_t, best_f = Fraction(best[0], engine.den(keep)), Fraction(best[1], engine.den(mdp.horizon))
    return OrderingReport(last_step, (), (), best_t, best_f, intersects, agrees, pclass), listing


def check_objective_consistency(
    mdp: TabularMDP,
    last_step: int,
    stationary: bool = True,
    cap: int = DEFAULT_CAP,
) -> OrderingReport:
    """Compare truncated-return and full-return orderings over the class.

    The class is the first `cap` deterministic policies in lexicographic
    order; every member of a behaviour shares its leaf's two objectives.
    The check keeps, per objective, the maximum and the member indices at
    it (argmax sets list them ascending), whether a behaviour is at both
    maxima, and each truncated value's full value until a truncated tie
    breaks. The orderings agree iff every pair's comparison signs coincide:
    iff no tie breaks and the full values rise with the truncated ones.

    When the class is nonstationary, or the MDP is `_layered`, a memo keeps
    per (depth, occupancy) the truncated and full suffix maxima, whether one
    behaviour reaches both and, while no tie has broken and the key
    recurs, its (truncated, full) values. This pass is a hook on the
    engine's walk that skips the subtree of each node it takes from the
    memo, and folds each leaf into its parent without letting it through. A
    node is taken from the memo only when every member index in it is below
    the cap; one that straddles the cap is walked and summarised for itself,
    so a capped class gets the answers a walk gives. The argmax members come
    from a second walk whose hook enters only the subtrees whose maximum
    reaches the class's, and reads the members off the leaves it lets
    through.

    A stationary class on an MDP that is not layered is scanned in one walk,
    leaf by leaf until a truncated tie breaks. From then on agreement is
    settled false, and the walk is a branch and bound: a node is skipped
    when, in both objectives, its path value plus the best value of its
    suffix over every nonstationary policy (`_bounds`) is below the running
    maximum. Where agreement holds, every leaf is still walked: wherever
    last_step >= T - 1, for one, as the two returns are then one.
    """
    report, listing = _ordering(mdp, last_step, stationary, cap)
    truncated, full = listing()
    return replace(report, truncated_argmax=tuple(truncated), full_argmax=tuple(full))
