"""The windowed learning interface: what a segment-restricted learner sees.

An ObservationModel fixes the window length, the allowed window start times,
a feature map over states (which may alias distinct states), and whether
actions and rewards are visible inside windows. `segment_distribution`
computes the exact probability mass over observable segments for a policy,
one normalized distribution per window start, with no sampling involved.

One private integer engine does that work and the forward pass behind
`evaluate` and the checkers. Each public call compiles its own, for its
(MDP, model), in one of two entries that check the inputs first:
`_evaluate` here for a single policy, `sufficiency._enter` for a class. Its
one forward DP is a depth-first walk over a policy class that advances the
occupancy one step per node and yields one leaf per behaviour; a single
policy is a class of one, walked to its one leaf. A window DP runs from a
leaf's occupancy and cells, one start at a time, on request. The engine
interns features, action labels (by label, so one label at two states is one
id) and reward values as small ints in sorted order, so each value's id is its
rank, and a segment is an id in a trie over per-step symbols, so the DPs key
on ints; each id is labelled and ranked once, from its parent's label and
rank, and `segment_distribution` orders the labelled segments by
`ObservedSegment.sort_key`, compared on the ranks (the symbols' ids read as
digits). Mass at time t is an int over D0 * (D * Dpi)**t, where D0, D and Dpi
are the lcms of the initial, transition and policy-cell denominators (Dpi = 1
for deterministic policies). That denominator does not depend on the policy,
so within a class two masses are equal as ints iff they are equal as
Fractions; Fractions appear only at the public edge.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Iterator, Mapping, Sequence

from .errors import InvalidParam, InvalidTrajectory, ModelMismatch, PolicyMismatch
from .mdp import Behaviour, Policy, TabularMDP, Trajectory, _boolean, _integer, _place_values, policy_cells, validate_mdp, validate_policy


@dataclass(frozen=True)
class ObservationModel:
    """The windowed interface: window length, window starts, feature map and
    what a window shows besides features.

    A model is canonical whatever builds it (the constructor, `make`,
    `dataclasses.replace`, `coarsen` or `parse_model`): `window_starts` are
    sorted and unique, and `phi`, given as a mapping or as pairs, is held as
    (state label, feature) string pairs sorted by label, one per label (the
    last, as `dict` reads pairs). So two models are equal iff they describe
    the same interface.
    """

    window_length: int
    window_starts: tuple[int, ...]
    phi: tuple[tuple[str, str], ...]  # sorted (state label, feature) pairs
    observe_actions: bool = True
    observe_rewards: bool = True

    def __post_init__(self):
        pairs = self.phi.items() if isinstance(self.phi, Mapping) else self.phi
        for name, value in (
            ("window_length", _integer(self.window_length, "window_length")),
            ("window_starts", tuple(sorted({_integer(t, "window_starts") for t in self.window_starts}))),
            ("phi", tuple(sorted({str(s): str(f) for s, f in pairs}.items()))),
            ("observe_actions", _boolean(self.observe_actions, "observe_actions")),
            ("observe_rewards", _boolean(self.observe_rewards, "observe_rewards")),
        ):
            object.__setattr__(self, name, value)

    make = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))  # the constructor, by its older name

    @property
    def phi_map(self) -> dict[str, str]:
        return dict(self.phi)


def identity_phi(mdp: TabularMDP) -> dict[str, str]:
    """The feature map that observes states as themselves."""
    return {s: s for s in mdp.states}


def all_window_starts(mdp: TabularMDP, window_length: int) -> tuple[int, ...]:
    """Every start time t with a complete window: 0 <= t and t + H <= T."""
    return tuple(range(0, mdp.horizon - window_length + 1))


def coarsen(model: ObservationModel, merge: Mapping[str, str]) -> ObservationModel:
    """Compose the feature map with `merge` (features absent from `merge` pass through)."""
    return replace(model, phi={s: merge.get(f, f) for s, f in model.phi})


def validate_model(mdp: TabularMDP, model: ObservationModel) -> list[str]:
    problems = []
    try:
        _integer(model.window_length, "window_length", 1)
    except InvalidParam as exc:
        problems.append(str(exc))
    if not model.window_starts:
        problems.append("window_starts is empty")
    for t in model.window_starts:
        if t < 0 or t + model.window_length > mdp.horizon:
            problems.append(
                f"window start {t} out of range for length {model.window_length} and horizon {mdp.horizon}"
            )
    mapped = {s for s, _ in model.phi}
    missing = [s for s in mdp.states if s not in mapped]
    if missing:
        problems.append(f"phi is not total: no feature for {', '.join(missing)}")
    extra = sorted(mapped - set(mdp.states))
    if extra:
        problems.append(f"phi maps unknown states: {', '.join(extra)}")
    return problems


def _require(mdp: TabularMDP, model: ObservationModel | None = None, policy: Policy | None = None) -> None:
    """The one entry check of a public call: the MDP, then the model and the
    policy when given, each refused with its own error type."""
    if problems := validate_mdp(mdp):
        raise InvalidParam("; ".join(problems))
    if model is not None and (problems := validate_model(mdp, model)):
        raise ModelMismatch("; ".join(problems))
    if policy is not None and (problems := validate_policy(mdp, policy)):
        raise PolicyMismatch("; ".join(problems))


@dataclass(frozen=True)
class ObservedSegment:
    """One cropped, feature-mapped window: H+1 features spanning H transitions."""

    start: int
    features: tuple[str, ...]
    actions: tuple[str, ...] | None
    rewards: tuple[Fraction, ...] | None

    def sort_key(self):
        return (self.features, self.actions or (), self.rewards or ())


@dataclass(frozen=True)
class SegmentDistribution:
    """Exact per-start distributions over observable segments.

    `per_start` is canonical: starts ascending, segments sorted by
    `ObservedSegment.sort_key`, probabilities exact. Two distributions over
    the same model are equal iff their `per_start` tuples are equal.
    """

    model: ObservationModel
    policy_id: str
    per_start: tuple[tuple[int, tuple[tuple[ObservedSegment, Fraction], ...]], ...]

    @property
    def starts(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.per_start)

    def table(self, start: int) -> dict[ObservedSegment, Fraction]:
        for t, items in self.per_start:
            if t == start:
                return dict(items)
        raise KeyError(f"no distribution for window start {start}")


def observe(mdp: TabularMDP, trajectory: Trajectory, model: ObservationModel) -> list[ObservedSegment]:
    """Crop one trajectory into its observable segments, one per window start."""
    _require(mdp, model)
    _check_trajectory(mdp, trajectory)
    phi = model.phi_map
    return [_crop(trajectory, model, phi, t0) for t0 in model.window_starts]


def _crop(trajectory: Trajectory, model: ObservationModel, phi, t0: int) -> ObservedSegment:
    hi = t0 + model.window_length
    features = tuple(phi[s] for s in trajectory.states[t0 : hi + 1])
    acts = tuple(trajectory.actions[t0:hi]) if model.observe_actions else None
    rews = tuple(trajectory.rewards[t0:hi]) if model.observe_rewards else None
    return ObservedSegment(t0, features, acts, rews)


def _check_trajectory(mdp: TabularMDP, trajectory: Trajectory) -> None:
    T = mdp.horizon
    if len(trajectory.states) != T + 1 or len(trajectory.actions) != T or len(trajectory.rewards) != T:
        raise InvalidTrajectory(
            f"trajectory shape ({len(trajectory.states)} states, {len(trajectory.actions)} actions, "
            f"{len(trajectory.rewards)} rewards) does not fit horizon {T}"
        )
    idx = {s: i for i, s in enumerate(mdp.states)}
    for t in range(T):
        s_label, a_label, nxt_label = trajectory.states[t], trajectory.actions[t], trajectory.states[t + 1]
        if s_label not in idx or nxt_label not in idx:
            raise InvalidTrajectory(f"unknown state label at step {t}")
        s = idx[s_label]
        if a_label not in mdp.actions[s]:
            raise InvalidTrajectory(f"action {a_label!r} unavailable at state {s_label} (step {t})")
        a = mdp.actions[s].index(a_label)
        nxt = idx[nxt_label]
        r = trajectory.rewards[t]
        if not any(s2 == nxt and p > 0 and rew == r for s2, p, rew in mdp.transitions[s][a]):
            raise InvalidTrajectory(
                f"step {t}: ({s_label}, {a_label}) -> {nxt_label} with reward {r} is not supported"
            )


class _Engine:
    """An MDP, and optionally an observation model, compiled to integers.

    See the module docstring. `den_pi` is a common multiple of the cell
    denominators of every policy run through the engine: 1 for the
    deterministic classes the checkers enumerate.
    """

    def __init__(self, mdp: TabularMDP, model: ObservationModel | None = None, den_pi: int = 1):
        self.mdp, self.model, self.den_pi = mdp, model, den_pi
        d = lcm(*(p.denominator for row in mdp.transitions for outs in row for _, p, _ in outs))
        self.d0 = lcm(*(p.denominator for p in mdp.initial))
        self.step = d * den_pi
        self.init = {s: p.numerator * (self.d0 // p.denominator) for s, p in enumerate(mdp.initial) if p != 0}
        self.rewards = sorted({r for row in mdp.transitions for outs in row for _, _, r in outs})
        self.r_den = lcm(*(r.denominator for r in self.rewards))
        self.r_num = [r.numerator * (self.r_den // r.denominator) for r in self.rewards]
        phi = model.phi_map if model else dict.fromkeys(mdp.states, "")
        self.features = sorted(set(phi.values()))
        self.labels = sorted({a for acts in mdp.actions for a in acts})
        rid, fid, aid = ({v: i for i, v in enumerate(vs)} for vs in (self.rewards, self.features, self.labels))
        self.nf, self.nr = len(self.features), len(self.rewards)
        self.nsym = self.nf * self.nr * len(self.labels)
        acts = model is not None and model.observe_actions
        rews = model is not None and model.observe_rewards
        self.root = [fid[phi[s]] for s in mdp.states]
        # Per (state, action): (next state, mass numerator over d, reward id,
        # step symbol), the symbol packing the observed action label id,
        # reward id and next feature id (unobserved parts read 0).
        self.outs = [
            [
                tuple(
                    (s2, p.numerator * (d // p.denominator), rid[r],
                     ((aid[a] if acts else 0) * self.nr + (rid[r] if rews else 0)) * self.nf + self.root[s2])
                    for s2, p, r in outs
                    if p != 0
                )
                for a, outs in zip(mdp.actions[s], row)
            ]
            for s, row in enumerate(mdp.transitions)
        ]
        # The cell of each point mass, by (state, action id).
        self.point = [[((den_pi, o),) for o in row] for row in self.outs]
        # Segment ids: a trie over step symbols. Id 0 is the empty segment;
        # kids maps parent * nsym + symbol to the child id.
        self.kids: dict[int, int] = {}
        self.parent, self.sym = [0], [0]

    def walk(self, stationary: bool, options: Sequence[Sequence], cap: int | None = None) -> Iterator[tuple]:
        """Depth-first over a policy class: one `_leaf` per behaviour, and
        with a `cap` only those whose first member is below it.

        Nonstationary leaves come by ascending first member, as a depth's
        cells are all less significant than the ones decided above it. A
        stationary walk decides a state's cell where the state is first
        reached, so a cell decided deeper can be more significant, and
        stationary leaves need not come in that order.

        Cell k of `policy_cells(mdp, stationary)` takes one of `options[k]`:
        every point mass for the deterministic class, one cell for a single
        policy. Each node advances the occupancy one step and branches only
        at reached cells still undecided, the occupancy's keys. The walk
        keeps its own stack, so the horizon does not bound the call depth.
        """
        mdp, point, nr, r_num = self.mdp, self.point, self.nr, self.r_num
        cells = policy_cells(mdp, stationary)
        radices = [len(o) for o in options]
        places = _place_values(radices)
        position = {cell: k for k, cell in enumerate(cells)}
        digits: list[int | None] = [None] * len(cells)
        # One frame per open node: (here, pending, combos, first); a frame's
        # step, once taken, is the last of dists, rewards and steps.
        dists, rewards, steps, frames, first = [self.init], [], [], [], 0
        while True:
            t = len(frames)
            if t == mdp.horizon:
                free = tuple((radices[k], places[k]) for k, d in enumerate(digits) if d is None and radices[k] > 1)
                yield self._leaf(Behaviour(first, free), dists, rewards, steps)
            else:
                # Terminal states have no cell; their forced action is 0.
                here = [(s, position.get((0 if stationary else t, s))) for s in sorted(dists[-1])]
                pending = [k for _, k in here if k is not None and digits[k] is None]
                # `pending` is in significance order, so the combinations come
                # out with ascending first members and the first one past the
                # cap closes the node: digits decided later only add to `first`.
                frames.append((here, pending, product(*(range(radices[k]) for k in pending)), first))
            while frames:
                here, pending, combos, base = frames[-1]
                if len(dists) > len(frames):
                    del dists[-1], rewards[-1], steps[-1]
                combo = next(combos, None)
                if combo is not None:
                    first = base + sum(a * places[k] for k, a in zip(pending, combo))
                    if cap is None or first < cap:
                        break
                for k in pending:
                    digits[k] = None
                frames.pop()
            else:
                return
            for k, a in zip(pending, combo):
                digits[k] = a
            step = {s: point[s][0] if k is None else options[k][digits[k]] for s, k in here}
            dist, acc, nxt = dists[-1], [0] * nr, {}
            for s, cell in step.items():
                m = dist[s]
                for q, o in cell:
                    mq = m * q
                    for s2, p, r, _ in o:
                        w = mq * p
                        acc[r] += w
                        nxt[s2] = nxt.get(s2, 0) + w
            dists.append(nxt)
            rewards.append(sum(map(mul, r_num, acc)))
            steps.append(step)

    def _leaf(self, behaviour: Behaviour, dists, rewards, steps) -> tuple:
        """The walk's per-leaf step: (behaviour, occupancy, rewards, cells).

        occupancy[t] maps state ids to masses over d0 * step**t; rewards[t],
        the expected reward of step t, is over r_den * d0 * step**(t+1);
        cells[t] maps each state reached at t to the cell it takes there. A
        leaf runs no window DP: `window` runs one start's, when asked.
        """
        return behaviour, tuple(dists), tuple(rewards), tuple(steps)

    def total(self, rewards) -> int:
        """The sum of a leaf's `rewards`, over den(len(rewards))."""
        total = 0
        for r in rewards:
            total = total * self.step + r
        return total

    def den(self, steps: int) -> int:
        """The denominator of a sum of the first `steps` step rewards."""
        return self.r_den * self.d0 * self.step**steps

    def window(self, t0: int, dists, cells) -> tuple[tuple[int, int], ...]:
        """One window DP: the table at start t0 of a leaf's occupancy and
        cells (either may be cut short past t0 and t0 + H - 1), as (segment
        id, mass over d0 * step**(t0 + H)) pairs by id."""
        n, nsym, kids, child = self.mdp.n_states, self.nsym, self.kids, self._child
        # Keys pack (segment id, state) as seg * n + state.
        frontier = {child(0, self.root[s]) * n + s: m for s, m in dists[t0].items()}
        for here in cells[t0 : t0 + self.model.window_length]:
            nxt: dict[int, int] = {}
            for key, m in frontier.items():
                seg, s = divmod(key, n)
                base = seg * nsym
                for q, o in here[s]:
                    mq = m * q
                    for s2, p, _, sym in o:
                        k = (kids.get(base + sym) or child(seg, sym)) * n + s2
                        nxt[k] = nxt.get(k, 0) + mq * p
            frontier = nxt
        table: dict[int, int] = {}
        for key, m in frontier.items():
            table[key // n] = table.get(key // n, 0) + m
        return tuple(sorted(table.items()))

    def _child(self, seg: int, sym: int) -> int:
        """The id of segment `seg` extended by step symbol `sym`."""
        key = seg * self.nsym + sym
        kid = self.kids.get(key)
        if kid is None:
            kid = self.kids[key] = len(self.parent)
            self.parent.append(seg)
            self.sym.append(sym)
        return kid

    def labelled(self) -> tuple[list, list]:
        """Every segment id's label and rank, each its parent's extended by
        one symbol. A label is (features, action labels, rewards), one of
        each per symbol (the first symbol's action and reward are the same
        filler in every segment). A rank is three ints: the symbols' feature,
        action label and reward ids read as digits. Values are interned in
        sorted order, so an id is its value's rank, and on segments of one
        length ranks compare as the labels' `ObservedSegment.sort_key`s do."""
        fv, av, rv = self.features, self.labels, self.rewards
        nf, na, nr = len(fv), len(av), len(rv)
        labels, ranks = [((), (), ())], [(0, 0, 0)]
        for up, sym in zip(self.parent[1:], self.sym[1:]):
            (a, r), f = divmod(sym // nf, nr), sym % nf
            lf, la, lr = labels[up]
            kf, ka, kr = ranks[up]
            labels.append((lf + (fv[f],), la + (av[a],), lr + (rv[r],)))
            ranks.append((kf * nf + f, ka * na + a, kr * nr + r))
        return labels, ranks


def _evaluate(mdp: TabularMDP, policy: Policy, model: ObservationModel | None = None) -> tuple:
    """The one entry of a single-policy call: the MDP, the model if given and
    the policy are checked once, and the engine (den_pi the lcm of the
    policy's cell denominators) walks the class of `policy` alone. Returns
    (engine, occupancy, rewards, tables), a table per start of `model`."""
    _require(mdp, model, policy)
    rows = policy.rows
    den_pi = lcm(*(q.denominator for row in {id(r): r for r in rows}.values() for cell in row.values() for _, q in cell))
    engine = _Engine(mdp, model, den_pi)
    point, outs = engine.point, engine.outs

    def cell(s, entries):
        if len(entries) == 1:  # a point mass, as its sum is 1
            return point[s][entries[0][0]]
        return tuple((q.numerator * (den_pi // q.denominator), outs[s][a]) for a, q in entries)

    # Cells the policy leaves undefined are never reached: it was checked.
    options = [[cell(s, rows[t][s])] if s in rows[t] else [] for t, s in policy_cells(mdp, policy.stationary)]
    ((_, dists, rewards, cells),) = engine.walk(policy.stationary, options)
    return engine, dists, rewards, tuple(engine.window(t0, dists, cells) for t0 in (model.window_starts if model else ()))


def segment_distribution(
    mdp: TabularMDP,
    policy: Policy,
    model: ObservationModel,
) -> SegmentDistribution:
    """Exact distribution over observable segments per window start.

    Paths that agree on everything the model lets through are merged as soon
    as they meet in the same underlying state, so aliasing collapses mass
    exactly where the learner cannot tell trajectories apart.
    """
    engine, _, _, tables = _evaluate(mdp, policy, model)
    labels, ranks = engine.labelled()
    acts, rews = model.observe_actions, model.observe_rewards
    per_start = []
    for t0, table in zip(model.window_starts, tables):
        den = engine.d0 * engine.step ** (t0 + model.window_length)
        rows = ((labels[seg], Fraction(m, den)) for seg, m in sorted(table, key=lambda item: ranks[item[0]]))
        segs = ((ObservedSegment(t0, f, a[1:] if acts else None, r[1:] if rews else None), p) for (f, a, r), p in rows)
        per_start.append((t0, tuple(segs)))
    return SegmentDistribution(model=model, policy_id=policy.describe(mdp), per_start=tuple(per_start))


def distributions_equal(a: SegmentDistribution, b: SegmentDistribution) -> bool:
    """Exact equality of segment distributions at every window start."""
    if a.model != b.model:
        raise ModelMismatch("segment distributions come from different observation models")
    return a.per_start == b.per_start
