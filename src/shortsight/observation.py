"""The windowed learning interface: what a segment-restricted learner sees.

An ObservationModel fixes the window length, the allowed window start times,
a feature map over states (which may alias distinct states), and whether
actions and rewards are visible inside windows. `segment_distribution`
computes the exact probability mass over observable segments for a policy,
one normalized distribution per window start, with no sampling involved.

One private integer engine does that work and the forward pass behind
`evaluate` and the checkers. Each public call builds its own, for its
(MDP, model), in one of two entries that check the inputs first:
`_evaluate` here for a single policy, `sufficiency._enter` for a class. The
engine's integer tables are kept on the MDP, one set for the last model
compiled, which also serves a call without a model, so calls in turn on one
MDP and model compile once; each engine starts its own segment trie. A
single policy takes one forward pass, one `advance` per step over its own
cells, and `validate_policy` reads what it reaches off that pass. A class
is walked depth first, the occupancy advanced once per node, one leaf per
behaviour. The walk is the one expander of the class tree: a caller that
needs less than every leaf passes a hook that sees each node as the walk
enters it and may skip the node's subtree or keep a leaf from being
yielded, as the ordering check's passes do.
A window DP runs from a leaf's occupancy and cells, one start at a time, on
request. The engine interns features, action labels (by label, so
one label at two states is one id) and reward values (as ints over their
lcm, so no Fraction is hashed) as small ints in sorted order, so each
value's id is its rank, and a segment is an id in a trie over per-step
symbols, so the DPs key on ints. `_ranked` reads a leaf's windows: each id
is labelled and ranked once, from its parent's label and rank, and each
start's (id, mass) pairs are ordered by `ObservedSegment.sort_key`, compared
on the ranks (the symbols' ids read as digits). Mass at time t is an int
over D0 * (D * Dpi)**t, where D0, D and Dpi are the lcms of the initial,
transition and policy-cell denominators (Dpi = 1 for deterministic
policies). That denominator does not depend on the policy, so within a class
two masses are equal as ints iff they are equal as Fractions. Fractions
appear only at the public edge: `segment_distribution` builds them from
`_ranked`, while the CLI's `segdist` labels rewards with their wire strings
and formats each symbol and each distinct mass of a start once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Callable, Iterator, Mapping, Sequence

from .errors import InvalidParam, InvalidTrajectory, ModelMismatch, PolicyMismatch
from .mdp import Behaviour, Policy, TabularMDP, Trajectory, _boolean, _integer, _place_values, policy_cells, validate_mdp


@dataclass(frozen=True)
class ObservationModel:
    """The windowed interface: window length, window starts, feature map and
    what a window shows besides features.

    A model is canonical whatever builds it (the constructor, `make`,
    `dataclasses.replace`, `coarsen` or `parse_model`): `window_starts` are
    sorted and unique, and `phi`, given as a mapping or as pairs, is held as
    (state label, feature) string pairs sorted by label, one per label (the
    last, as `dict` reads pairs). So two models are equal iff they describe
    the same interface. Every builder checks the rules that need no MDP: a
    window length of at least 1 and at least one start, none negative.
    """

    window_length: int
    window_starts: tuple[int, ...]
    phi: tuple[tuple[str, str], ...]  # sorted (state label, feature) pairs
    observe_actions: bool = True
    observe_rewards: bool = True

    def __post_init__(self):
        pairs = self.phi.items() if isinstance(self.phi, Mapping) else self.phi
        for name, value in (
            ("window_length", _integer(self.window_length, "window_length", 1)),
            ("window_starts", tuple(sorted({_integer(t, "window_starts", 0) for t in self.window_starts}))),
            ("phi", tuple(sorted({str(s): str(f) for s, f in pairs}.items()))),
            ("observe_actions", _boolean(self.observe_actions, "observe_actions")),
            ("observe_rewards", _boolean(self.observe_rewards, "observe_rewards")),
        ):
            object.__setattr__(self, name, value)
        if not self.window_starts:
            raise InvalidParam("window_starts is empty")

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
    """The rules a model must meet on `mdp`: every window ends by the
    horizon, and `phi` is total over the MDP's states and maps no other."""
    problems = [
        f"window start {t} out of range for length {model.window_length} and horizon {mdp.horizon}"
        for t in model.window_starts
        if t + model.window_length > mdp.horizon
    ]
    mapped = {s for s, _ in model.phi}
    missing = [s for s in mdp.states if s not in mapped]
    if missing:
        problems.append(f"phi is not total: no feature for {', '.join(missing)}")
    extra = sorted(mapped - set(mdp.states))
    if extra:
        problems.append(f"phi maps unknown states: {', '.join(extra)}")
    return problems


def _require(mdp: TabularMDP, model: ObservationModel | None = None) -> None:
    """The one entry check of a public call: the MDP, then the model when
    given, each refused with its own error type."""
    if problems := validate_mdp(mdp):
        raise InvalidParam("; ".join(problems))
    if model is not None and (problems := validate_model(mdp, model)):
        raise ModelMismatch("; ".join(problems))


def validate_policy(mdp: TabularMDP, policy: Policy) -> list[str]:
    """Return invariant violations of `policy` with respect to `mdp`.

    Checks row shape (each row a dict keyed by int state ids, bools
    excluded), cell-level soundness (tuples of (int action id, int or
    Fraction probability) pairs, available actions, positive entries summing
    to 1, both read on the entries' numerators and denominators, point
    masses for deterministic policies) plus coverage: the policy must be
    defined at every non-terminal state reachable under it at every
    timestep; a row or a cell of other entries stops the check before
    coverage. The MDP is checked first, as by every public call.
    """
    _require(mdp)
    return _walk_policy(mdp, policy, None)[0]


def _exact_pair(entry) -> bool:
    """Whether a cell entry is a pair the engine reads exactly: an int
    action id and an int or Fraction probability, neither a bool."""
    return type(entry) is tuple and len(entry) == 2 and type(entry[0]) is int and type(entry[1]) in (int, Fraction)


def _walk_policy(mdp: TabularMDP, policy: Policy, model: ObservationModel | None) -> tuple:
    """`validate_policy` on a checked MDP, as (problems, engine, leaf): the
    policy's engine for (MDP, model) and the (occupancy, rewards, cells) of
    its forward pass, as a leaf of `_Engine.walk`; None if rows do not fit."""
    problems = []
    seen_msg = set()

    def add(msg):
        if msg not in seen_msg:
            seen_msg.add(msg)
            problems.append(msg)

    if policy.kind not in ("deterministic", "stochastic"):
        add(f"unknown policy kind {policy.kind!r}")
    if policy.horizon != mdp.horizon:
        add(f"policy horizon {policy.horizon} does not match MDP horizon {mdp.horizon}")
    if len(policy.rows) != policy.horizon:
        add(f"policy has {len(policy.rows)} rows for horizon {policy.horizon}")
        return problems, None, None
    if policy.stationary and any(row is not policy.rows[0] and row != policy.rows[0] for row in policy.rows):
        add("stationary policy has rows that differ; its one row is read at every step")

    checked, readable = set(), True
    for t, row in enumerate(policy.rows):
        if id(row) in checked:
            continue
        checked.add(id(row))
        if type(row) is not dict or not all(type(s) is int for s in row):
            add(f"policy row {t} is not a dict keyed by int state ids: {row!r}")
            readable = False
            continue
        for s, entries in row.items():
            if not (0 <= s < mdp.n_states):
                add(f"policy row {t} references out-of-range state id {s}")
                continue
            label = mdp.states[s]
            if mdp.is_terminal(s):
                add(f"policy defines terminal state {label}; terminal actions are forced")
                continue
            if type(entries) is not tuple or not all(map(_exact_pair, entries)):
                add(f"policy cell for state {label} is not a tuple of (action id, exact probability) pairs: {entries!r}")
                readable = False
                continue
            if not entries:
                add(f"policy cell for state {label} is empty")
                continue
            acts = [a for a, _ in entries]
            if any(not (0 <= a < len(mdp.actions[s])) for a in acts):
                add(f"policy cell for state {label} uses an unavailable action")
                continue
            if len(set(acts)) != len(acts):
                add(f"policy cell for state {label} repeats an action")
            if any(p.numerator <= 0 for _, p in entries):
                add(f"policy cell for state {label} has a non-positive probability")
            d = lcm(*(p.denominator for _, p in entries))
            if sum(p.numerator * (d // p.denominator) for _, p in entries) != d:
                add(f"policy cell for state {label} does not sum to 1")
            if policy.kind == "deterministic" and len(entries) != 1:
                add(f"deterministic policy has a split cell at state {label}")

    if policy.horizon != mdp.horizon or not readable:
        return problems, None, None

    # Coverage, as the pass goes: each cell keeps its entries with q > 0 at
    # available actions, and an undefined cell is empty (its mass goes nowhere).
    kept = [{s: [(a, q) for a, q in cell if q.numerator > 0 and 0 <= a < len(mdp.actions[s])]
             for s, cell in row.items() if 0 <= s < mdp.n_states and not mdp.is_terminal(s)}
            for row in policy.rows[: 1 if policy.stationary else None]]
    den_pi = lcm(*(q.denominator for row in kept for cell in row.values() for _, q in cell))
    engine = _Engine(mdp, model, den_pi)
    outs = engine.outs
    forced = {s: ((den_pi, outs[s][0]),) for s in mdp.terminal}  # a terminal's one action, with certainty
    rows = [forced | {s: tuple([(q.numerator * (den_pi // q.denominator), outs[s][a]) for a, q in cell]) for s, cell in row.items()} for row in kept]
    dists, rewards, steps = [engine.init], [], []
    for t in range(mdp.horizon):
        row = rows[0 if policy.stationary else t]
        step = {s: row.get(s, ()) for s in sorted(dists[-1])}
        for s in sorted(step.keys() - row.keys()):
            add(f"policy undefined at t={t} for reachable state {mdp.states[s]}")
        nxt, reward = engine.advance(dists[-1], step)
        dists.append(nxt)
        rewards.append(reward)
        steps.append(step)
    return problems, engine, (tuple(dists), tuple(rewards), tuple(steps))


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
    if len(trajectory.actions) != T:
        raise InvalidTrajectory(f"trajectory of {len(trajectory.actions)} steps does not fit horizon {T}")
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


def _compile(mdp: TabularMDP, model: ObservationModel | None) -> dict:
    """The integer tables of (MDP, model), by `_Engine` attribute name: ints,
    strings and Fractions only, nothing that refers back to the MDP."""
    d = lcm(*(p.denominator for row in mdp.transitions for outs in row for _, p, _ in outs))
    d0 = lcm(*(p.denominator for p in mdp.initial))
    init = {s: p.numerator * (d0 // p.denominator) for s, p in enumerate(mdp.initial) if p}
    # Rewards as ints over their lcm: sorted ints are sorted values.
    r_den = lcm(*(r.denominator for row in mdp.transitions for outs in row for _, _, r in outs))
    r_num = sorted({r.numerator * (r_den // r.denominator) for row in mdp.transitions for outs in row for _, _, r in outs})
    phi = model.phi_map if model else dict.fromkeys(mdp.states, "")
    features = sorted(set(phi.values()))
    labels = sorted({a for acts in mdp.actions for a in acts})
    rid, fid, aid = ({v: i for i, v in enumerate(vs)} for vs in (r_num, features, labels))
    nf, nr = len(features), len(r_num)
    nsym = nf * nr * len(labels)
    acts = model is not None and model.observe_actions
    rews = model is not None and model.observe_rewards
    root = [fid[phi[s]] for s in mdp.states]
    # Per (state, action): (next state, mass numerator over d, reward id,
    # step symbol), the symbol packing the observed action label id, reward
    # id and next feature id (unobserved parts read 0).
    outs = []
    for s, row in enumerate(mdp.transitions):
        outs.append([])
        for a, cell in zip(mdp.actions[s], row):
            kept = []
            for s2, p, r in cell:
                if p:
                    k = rid[r.numerator * (r_den // r.denominator)]
                    kept.append((s2, p.numerator * (d // p.denominator), k,
                                 ((aid[a] if acts else 0) * nr + (k if rews else 0)) * nf + root[s2]))
            outs[-1].append(tuple(kept))
    # The cell of each unit point mass, by (state, action id).
    point = [[((1, o),) for o in row] for row in outs]
    return dict(d=d, d0=d0, init=init, rewards=[Fraction(n, r_den) for n in r_num], r_den=r_den, r_num=r_num,
                features=features, labels=labels, nf=nf, nr=nr, nsym=nsym, root=root, outs=outs, point=point)


class _Engine:
    """An MDP, and optionally an observation model, compiled to integers.

    See the module docstring. `den_pi` is a common multiple of the cell
    denominators of the policies run through the engine: 1 for a class, a
    single policy's own for its pass. It sets only `step`, the mass
    denominator of a step, as the tables (`_compile`) are kept on the MDP by
    model; the segment trie is the engine's own and starts empty.
    """

    def __init__(self, mdp: TabularMDP, model: ObservationModel | None = None, den_pi: int = 1):
        self.mdp, self.model = mdp, model
        # (model, tables) of the last compile, or None before the first. An
        # engine without a model runs no window, so any model's tables serve.
        compiled = getattr(mdp, "_compiled", None)
        if compiled is None or model is not None and compiled[0] != model:
            compiled = model, _compile(mdp, model)
            object.__setattr__(mdp, "_compiled", compiled)
        # setattr, not vars(self).update: CPython keeps set attributes in the
        # class's shared-key layout, which reads faster than a plain dict.
        for name, value in compiled[1].items():
            setattr(self, name, value)
        self.step = self.d * den_pi
        # Segment ids: a trie over step symbols. Id 0 is the empty segment;
        # kids maps parent * nsym + symbol to the child id.
        self.kids: dict[int, int] = {}
        self.parent, self.sym = [0], [0]

    def walk(self, stationary: bool, cap: int, enter: Callable[..., bool] | None = None) -> Iterator[tuple]:
        """Depth-first over the deterministic class: one leaf per behaviour
        whose first member is below `cap`.

        A leaf is (behaviour, occupancy, rewards, cells). occupancy[t] maps
        state ids to masses over d0 * step**t; rewards[t], the expected
        reward of step t, is over r_den * d0 * step**(t+1); cells[t] maps
        each state reached at t to the cell it takes there. A leaf runs no
        window DP: `window` runs one start's, when asked.

        Nonstationary leaves come by ascending first member, as a depth's
        cells are all less significant than the ones decided above it. A
        stationary walk decides a state's cell where the state is first
        reached, so a cell decided deeper can be more significant, and
        stationary leaves need not come in that order.

        Cell (t, s) of `policy_cells(mdp, stationary)` takes one of the unit
        point masses `point[s]`, its digit the action id. Each node advances
        the occupancy one step and branches only at the reached cells still
        undecided. The walk keeps its own stack, so the horizon does not
        bound the call depth.

        `enter(t, first, last, occupancy, step_reward)`, when given, is
        called at every node below the root whose first member is below the
        cap, leaves included: t is the node's depth, `first` and `last` the
        smallest and largest index of a member of the node in the whole
        class, and the occupancy and step reward are the node's occupancy[t]
        and rewards[t - 1], in the units above. A true result skips the
        node: an inner node's subtree is not walked, and a leaf is not
        yielded.
        """
        mdp, point = self.mdp, self.point
        cells = policy_cells(mdp, stationary)
        radices = [len(point[s]) for _, s in cells]
        places = _place_values(radices)
        spans = [(n - 1) * w for n, w in zip(radices, places)]
        position = {cell: k for k, cell in enumerate(cells)}
        digits: list[int | None] = [None] * len(cells)
        # One frame per open node: (here, pending, combos, first, span), span
        # the most that the digits its children leave undecided add to an
        # index; a frame's step, once taken, is the last of dists, rewards
        # and steps.
        dists, rewards, steps, frames, first, span, entered = [self.init], [], [], [], 0, sum(spans), True
        while True:
            t = len(frames)
            if entered and t == mdp.horizon:
                free = tuple((radices[k], places[k]) for k, d in enumerate(digits) if d is None and radices[k] > 1)
                yield Behaviour(first, free), tuple(dists), tuple(rewards), tuple(steps)
            elif entered:
                # Terminal states have no cell; their forced action is 0.
                here = [(s, position.get((0 if stationary else t, s))) for s in sorted(dists[-1])]
                pending = [k for _, k in here if k is not None and digits[k] is None]
                # `pending` is in significance order, so the combinations come
                # out with ascending first members and the first one past the
                # cap closes the node: digits decided later only add to `first`.
                span -= sum(map(spans.__getitem__, pending))
                frames.append((here, pending, product(*(range(radices[k]) for k in pending)), first, span))
            while frames:
                here, pending, combos, base, span = frames[-1]
                if len(dists) > len(frames):
                    del dists[-1], rewards[-1], steps[-1]
                combo = next(combos, None)
                if combo is not None:
                    first = base + sum(a * places[k] for k, a in zip(pending, combo))
                    if first < cap:
                        break
                for k in pending:
                    digits[k] = None
                frames.pop()
            else:
                return
            for k, a in zip(pending, combo):
                digits[k] = a
            step = {s: point[s][0 if k is None else digits[k]] for s, k in here}
            nxt, reward = self.advance(dists[-1], step)
            dists.append(nxt)
            rewards.append(reward)
            steps.append(step)
            entered = enter is None or not enter(len(frames), first, first + span, nxt, reward)

    def advance(self, dist, step) -> tuple[dict, int]:
        """The forward DP's one step: from occupancy `dist` at t, each state
        taking its cell in `step`, the occupancy at t + 1 and the expected
        reward of step t, over the denominators a leaf of `walk` holds it in."""
        acc, nxt = [0] * self.nr, {}
        for s, cell in step.items():
            m = dist[s]
            for q, o in cell:
                mq = m * q
                for s2, p, r, _ in o:
                    w = mq * p
                    acc[r] += w
                    nxt[s2] = nxt.get(s2, 0) + w
        return nxt, sum(map(mul, self.r_num, acc))

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

    def labelled(self, rewards: Sequence) -> tuple[list, list]:
        """Every segment id's label and rank, each its parent's extended by
        one symbol. A label is (features, action labels, rewards): a feature
        per symbol, an action label and a reward per symbol after the first
        (which shows a feature alone), a reward given as `rewards[id]`: the
        Fractions `self.rewards` or their wire strings. A rank is three ints:
        the symbols' feature, action label and reward ids read as digits.
        Values are interned in sorted order, so an id is its value's rank,
        and on segments of one length ranks compare as the labels'
        `ObservedSegment.sort_key`s do."""
        fv, av, rv = self.features, self.labels, rewards
        nf, na, nr = len(fv), len(av), len(rv)
        labels, ranks = [((), (), ())], [(0, 0, 0)]
        for up, sym in zip(self.parent[1:], self.sym[1:]):
            (a, r), f = divmod(sym // nf, nr), sym % nf
            lf, la, lr = labels[up]
            kf, ka, kr = ranks[up]
            shown = up > 0  # the first symbol's action and reward ids are 0
            labels.append((lf + (fv[f],), la + (av[a],) * shown, lr + (rv[r],) * shown))
            ranks.append((kf * nf + f, ka * na + a, kr * nr + r))
        return labels, ranks


def _evaluate(mdp: TabularMDP, policy: Policy, model: ObservationModel | None = None) -> tuple:
    """The one entry of a single-policy call: the MDP and the model if given
    are checked, then the policy by the pass `validate_policy` reads, whose
    leaf this returns as (engine, occupancy, rewards, cells) for readers
    such as `_segments` and `evaluate._leaf_return`."""
    _require(mdp, model)
    problems, engine, leaf = _walk_policy(mdp, policy, model)
    if problems:
        raise PolicyMismatch("; ".join(problems))
    return (engine, *leaf)


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
    return _segments(policy, _evaluate(mdp, policy, model))


def _ranked(leaf: tuple, rewards: Sequence) -> tuple[list, list]:
    """A leaf of `_evaluate` under a model, read one window DP per start, as
    (labels, per start (t0, den, [(segment id, mass over den)] in
    `ObservedSegment.sort_key` order)); `rewards` label the reward ids
    (`_Engine.labelled`). The windows run first: they grow the trie."""
    engine, dists, _, cells = leaf
    model = engine.model
    tables = [engine.window(t0, dists, cells) for t0 in model.window_starts]
    labels, ranks = engine.labelled(rewards)
    return labels, [(t0, engine.d0 * engine.step ** (t0 + model.window_length), sorted(table, key=lambda item: ranks[item[0]]))
                    for t0, table in zip(model.window_starts, tables)]


def _segments(policy: Policy, leaf: tuple) -> SegmentDistribution:
    """`segment_distribution` read off a leaf of `_evaluate` under a model."""
    engine, model = leaf[0], leaf[0].model
    labels, starts = _ranked(leaf, engine.rewards)
    acts, rews = model.observe_actions, model.observe_rewards
    per_start = []
    for t0, den, table in starts:
        rows = ((labels[seg], Fraction(m, den)) for seg, m in table)
        segs = ((ObservedSegment(t0, f, a if acts else None, r if rews else None), p) for (f, a, r), p in rows)
        per_start.append((t0, tuple(segs)))
    return SegmentDistribution(model=model, policy_id=policy.describe(engine.mdp), per_start=tuple(per_start))


def distributions_equal(a: SegmentDistribution, b: SegmentDistribution) -> bool:
    """Exact equality of segment distributions at every window start."""
    if a.model != b.model:
        raise ModelMismatch("segment distributions come from different observation models")
    return a.per_start == b.per_start
