"""Offline dataset simulation: seeded trajectory sampling and empirical
segment statistics, bridging exact distributions and finite samples.

Reproducibility contract: trajectory i of a dataset is drawn from its own
Mersenne Twister generator seeded with the string f"{seed}:{i}" (CPython
seeds strings via SHA-512), so datasets are byte-stable across runs and can
be partitioned across workers without changing the result. Every initial
state, action and transition outcome selection consumes exactly one uniform
draw, resolved by inverse CDF over outcomes in canonical order. Each
cumulative probability is held as the smallest float not below it, so a draw
falls below that threshold exactly when it falls below the rational: the same
draw gives the same outcome as the Fraction inverse CDF.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelMismatch
from .mdp import ONE, ZERO, Policy, TabularMDP, Trajectory, _integer
from .observation import ObservationModel, ObservedSegment, SegmentDistribution, _crop, _require_mdp, _require_policy


@dataclass(frozen=True)
class OfflineDataset:
    trajectories: tuple[Trajectory, ...]
    behavior_id: str
    seed: int

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
    """Outcomes and exact thresholds for an inverse-CDF draw over (thing,
    probability) pairs in the given order."""
    things, cuts, acc = [], [], ZERO
    for thing, p in pairs:
        acc += p
        cut = float(acc)  # correctly rounded, so at most one step below acc
        things.append(thing)
        cuts.append(cut if cut >= acc else math.nextafter(cut, 2.0))
    return things, cuts


def _pick(rng: random.Random, table):
    """The first outcome whose threshold exceeds one uniform draw (the last
    outcome if none does)."""
    things, cuts = table
    return things[min(bisect_right(cuts, rng.random()), len(things) - 1)]


def sample_dataset(
    mdp: TabularMDP,
    behavior: Policy,
    n: int,
    seed: int,
) -> OfflineDataset:
    """Draw n independent trajectories under the behavior policy."""
    n = _integer(n, "n", 1)
    seed = _integer(seed, "seed")
    _require_mdp(mdp)
    _require_policy(mdp, behavior)

    initial = _cdf((s, p) for s, p in enumerate(mdp.initial) if p > 0)
    moves = [[_cdf(((s2, r), p) for s2, p, r in row if p > 0) for row in rows] for rows in mdp.transitions]
    # Behaviour cells (t, s) get their table the first time a draw reaches them.
    cells = [[None] * mdp.n_states for _ in range(mdp.horizon)]
    trajectories = []
    for i in range(n):
        rng = random.Random(f"{seed}:{i}")
        s = _pick(rng, initial)
        states = [mdp.states[s]]
        actions = []
        rewards = []
        for t in range(mdp.horizon):
            cell = cells[t][s]
            if cell is None:
                cell = cells[t][s] = _cdf(((0, ONE),) if s in mdp.terminal else behavior.rows[t][s])
            a = _pick(rng, cell)
            s2, r = _pick(rng, moves[s][a])
            actions.append(mdp.actions[s][a])
            rewards.append(r)
            states.append(mdp.states[s2])
            s = s2
        trajectories.append(Trajectory(tuple(states), tuple(actions), tuple(rewards)))
    return OfflineDataset(tuple(trajectories), behavior.describe(mdp), seed)


def _trajectory_key(traj: Trajectory) -> tuple:
    """The one grouping key for equal trajectories: their labels and the
    identity of their reward objects. No reward is hashed per trajectory;
    equal rewards in distinct objects only split a group."""
    return traj.states, traj.actions, tuple(map(id, traj.rewards))


def empirical_segments(dataset: OfflineDataset, model: ObservationModel) -> EmpiricalSegmentStats:
    """Crop every trajectory at every window start and tally observed segments.

    Equal trajectories (grouped by `_trajectory_key`) are checked and cropped
    once, in first-seen order, and tallied with their count; a group split by
    equal rewards in distinct objects is merged again by the tally.
    """
    groups: dict[tuple, list] = {}
    for traj in dataset.trajectories:
        groups.setdefault(_trajectory_key(traj), [traj, 0])[1] += 1
    phi = model.phi_map
    tallies: dict[int, dict[ObservedSegment, int]] = {t: {} for t in model.window_starts}
    for traj, count in groups.values():
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
        (t0, tuple(sorted(tallies[t0].items(), key=lambda kv: kv[0].sort_key())))
        for t0 in sorted(model.window_starts)
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
