"""Offline dataset simulation: seeded trajectory sampling and empirical
segment statistics, bridging exact distributions and finite samples.

Reproducibility contract: trajectory i of a dataset is drawn from a Mersenne
Twister generator seeded with the string f"{seed}:{i}" (CPython seeds
strings via SHA-512). One generator is reseeded for each trajectory, which
gives the same stream as a fresh generator, so datasets are byte-stable
across runs and can be partitioned across workers without changing the
result. Every initial state, action and transition outcome selection
consumes exactly one uniform draw, resolved by inverse CDF over outcomes in
canonical order. Each cumulative probability is held as the smallest float
not below it, so a draw falls below that threshold exactly when it falls
below the rational: the same draw gives the same outcome as the Fraction
inverse CDF. Equal sampled paths are one shared Trajectory object, and
downstream code groups trajectories by object identity.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelMismatch
from .mdp import ONE, ZERO, Policy, TabularMDP, Trajectory, _integer
from .observation import ObservationModel, ObservedSegment, SegmentDistribution, _crop, _evaluate


@dataclass(frozen=True)
class OfflineDataset:
    trajectories: tuple[Trajectory, ...]
    behavior_id: str
    seed: int

    def __post_init__(self):
        _integer(self.n, "dataset.n", 1)  # no trajectories give no frequencies

    @property
    def n(self) -> int:
        return len(self.trajectories)


@dataclass(frozen=True)
class EmpiricalSegmentStats:
    """Per window start: observed segments with counts out of n trajectories."""

    model: ObservationModel
    n: int
    per_start: tuple[tuple[int, tuple[tuple[ObservedSegment, int], ...]], ...]

    @property
    def starts(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.per_start)

    def counts(self, start: int) -> dict[ObservedSegment, int]:
        for t, items in self.per_start:
            if t == start:
                return dict(items)
        raise KeyError(f"no statistics for window start {start}")

    def frequencies(self, start: int) -> dict[ObservedSegment, Fraction]:
        return {seg: Fraction(c, self.n) for seg, c in self.counts(start).items()}


def _cdf(pairs) -> tuple[list, list[float]]:
    """Outcomes and thresholds for an inverse-CDF draw over (thing,
    probability) pairs in the given order: a uniform draw x takes
    `things[bisect_right(cuts, x)]`, the first outcome whose threshold exceeds
    x. The last outcome has no threshold, so a draw past every other one takes
    it."""
    things, cuts, acc = [], [], ZERO
    for thing, p in pairs:
        acc += p
        cut = float(acc)  # correctly rounded, so at most one step below acc
        things.append(thing)
        cuts.append(cut if cut >= acc else math.nextafter(cut, 2.0))
    return things, cuts[:-1]


def sample_dataset(
    mdp: TabularMDP,
    behavior: Policy,
    n: int,
    seed: int,
) -> OfflineDataset:
    """Draw n independent trajectories under the behavior policy."""
    n = _integer(n, "n", 1)
    seed = _integer(seed, "seed")
    occupancy = _evaluate(mdp, behavior)[1]  # the single-policy entry check
    trajectories = _draw(mdp, behavior, occupancy[:-1], n, seed, random.Random())
    return OfflineDataset(trajectories, behavior.describe(mdp), seed)


def _draw(mdp: TabularMDP, behavior: Policy, occupancy, n: int, seed: int, rng) -> tuple[Trajectory, ...]:
    """Trajectories 0..n-1, trajectory i drawn from `rng` reseeded with
    f"{seed}:{i}". At step t a draw is in a state keyed in `occupancy[t]`.

    A path is held as one integer: its initial state, then one digit in base
    `width` per step, the slot of the (action, outcome) pair taken. Slot j of
    state s is its j-th positive-probability pair in canonical order. Each
    distinct path is decoded into one Trajectory, shared by its repeats.
    """
    slots = []  # per state, per slot: (action label, next state, reward)
    moves = []  # per state, per action: (outcome thresholds, slot ids, next states)
    for s, rows in enumerate(mdp.transitions):
        here, per_action = [], []
        for a, row in enumerate(rows):
            outcomes, cuts = _cdf(((s2, r), p) for s2, p, r in row if p > 0)
            ids = range(len(here), len(here) + len(outcomes))
            per_action.append((cuts, ids, [s2 for s2, _ in outcomes]))
            here += [(mdp.actions[s][a], s2, r) for s2, r in outcomes]
        slots.append(here)
        moves.append(per_action)
    width = max(map(len, slots))
    horizon = mdp.horizon

    def step(t: int, s: int):
        """The table of cell (t, s): action thresholds and, per action, its move."""
        actions, cuts = _cdf(((0, ONE),) if s in mdp.terminal else behavior.rows[t][s])
        return cuts, [moves[s][a] for a in actions]

    def decode(key: int) -> Trajectory:
        digits = []
        for _ in range(horizon):
            key, digit = divmod(key, width)
            digits.append(digit)
        s = key
        states, actions, rewards = [mdp.states[s]], [], []
        for digit in reversed(digits):
            label, s, r = slots[s][digit]
            actions.append(label)
            rewards.append(r)
            states.append(mdp.states[s])
        return Trajectory(tuple(states), tuple(actions), tuple(rewards))

    initial, initial_cuts = _cdf((s, p) for s, p in enumerate(mdp.initial) if p > 0)
    steps = [{s: step(t, s) for s in dist} for t, dist in enumerate(occupancy)]
    paths: dict[int, Trajectory] = {}
    trajectories = []
    reseed, uniform = rng.seed, rng.random
    for i in range(n):
        reseed(f"{seed}:{i}")
        s = key = initial[bisect_right(initial_cuts, uniform())]
        for tables in steps:
            action_cuts, moves_here = tables[s]
            cuts, ids, nexts = moves_here[bisect_right(action_cuts, uniform())]
            k = bisect_right(cuts, uniform())
            key = key * width + ids[k]
            s = nexts[k]
        traj = paths.get(key)
        if traj is None:
            traj = paths[key] = decode(key)
        trajectories.append(traj)
    del paths  # so that the cache and the copy below are never held at once
    return tuple(trajectories)


def _distinct(trajectories) -> dict[int, list]:
    """The one grouping of trajectories: [trajectory, count] per distinct
    object, by its id, first seen first. A sampled or parsed dataset shares
    one object per distinct path. Equal paths held in distinct objects are
    handled apart: they give the same bytes and tallies, with the work done
    once per object."""
    objects = dict(zip(map(id, trajectories), trajectories))
    return {i: [objects[i], count] for i, count in Counter(map(id, trajectories)).items()}


def empirical_segments(dataset: OfflineDataset, model: ObservationModel) -> EmpiricalSegmentStats:
    """Crop every trajectory at every window start and tally observed segments.

    Trajectories are grouped by object identity: each distinct object is
    checked and cropped once, in first-seen order, and tallied with its
    count; equal paths in distinct objects meet again in the tally.
    """
    phi = model.phi_map
    tallies: dict[int, dict[ObservedSegment, int]] = {t: {} for t in model.window_starts}
    for traj, count in _distinct(dataset.trajectories).values():
        if any(t0 + model.window_length > len(traj.states) - 1 for t0 in model.window_starts):
            raise ModelMismatch(
                f"window start out of range for a trajectory of {len(traj.states) - 1} steps"
            )
        for t0 in model.window_starts:
            try:
                seg = _crop(traj, model, phi, t0)
            except KeyError as exc:
                raise ModelMismatch(f"phi has no feature for state {exc.args[0]!r}") from None
            table = tallies[t0]
            table[seg] = table.get(seg, 0) + count
    per_start = tuple(
        (t0, tuple(sorted(table.items(), key=lambda kv: kv[0].sort_key()))) for t0, table in tallies.items()
    )
    return EmpiricalSegmentStats(model, dataset.n, per_start)


def tv_distance(empirical: EmpiricalSegmentStats, exact: SegmentDistribution) -> dict[int, Fraction]:
    """Total-variation distance between empirical frequencies and an exact
    distribution, one exact rational per window start."""
    if empirical.model != exact.model:
        raise ModelMismatch("empirical statistics and exact distribution use different models")
    out = {}
    for start in empirical.starts:
        freqs = empirical.frequencies(start)
        probs = exact.table(start)
        support = set(freqs) | set(probs)
        total = sum(abs(freqs.get(seg, ZERO) - probs.get(seg, ZERO)) for seg in support)
        out[start] = total / 2
    return out
