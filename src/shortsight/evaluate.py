"""Exact expected returns and state occupancy by forward dynamic programming.

Everything here is a pure function over immutable inputs; expectations are
computed by pushing the exact state distribution forward one step at a time
(the integer engine of `observation`), so stochastic policies cost
O(T * |S| * |A|) rather than enumerating trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .mdp import Policy, TabularMDP, _integer
from .observation import _evaluate


@dataclass(frozen=True)
class OccupancyTable:
    """Marginal state distribution at each timestep t = 0..T inclusive."""

    rows: tuple[tuple[Fraction, ...], ...]

    def distribution(self, t: int) -> dict[int, Fraction]:
        return {s: p for s, p in enumerate(self.rows[t]) if p != 0}


def step_rewards(mdp: TabularMDP, policy: Policy) -> tuple[Fraction, ...]:
    """Exact expected reward collected at each step t = 0..T-1."""
    engine, _, rewards, _ = _evaluate(mdp, policy)
    return tuple(Fraction(r, engine.den(t + 1)) for t, r in enumerate(rewards))


def full_return(mdp: TabularMDP, policy: Policy) -> Fraction:
    """Exact expected episode return of `policy` on `mdp`."""
    return _leaf_return(_evaluate(mdp, policy), mdp.horizon - 1)


def truncated_return(mdp: TabularMDP, policy: Policy, last_step: int) -> Fraction:
    """Expected sum of step rewards 0..last_step inclusive, clipped to the horizon.

    `last_step` is the inclusive index of the final reward term, so a value
    of h keeps h+1 terms; any last_step >= T-1 reproduces the full return.
    """
    return _leaf_return(_evaluate(mdp, policy), last_step)


def _kept_steps(mdp: TabularMDP, last_step: int) -> int:
    """The one rule for an inclusive last reward index: reward terms
    0..last_step, clipped to the horizon."""
    return min(_integer(last_step, "last_step", 0) + 1, mdp.horizon)


def _leaf_return(leaf: tuple, last_step: int) -> Fraction:
    """`truncated_return` read off a leaf of `observation._evaluate`, under
    a model or none: the step rewards do not depend on the model."""
    engine, _, rewards, _ = leaf
    steps = _kept_steps(engine.mdp, last_step)
    return Fraction(engine.total(rewards[:steps]), engine.den(steps))


def occupancy(mdp: TabularMDP, policy: Policy) -> OccupancyTable:
    """Exact marginal state distribution at every time t = 0..T."""
    engine, dists, _, _ = _evaluate(mdp, policy)
    rows = tuple(
        tuple(Fraction(d.get(s, 0), engine.d0 * engine.step**t) for s in range(mdp.n_states))
        for t, d in enumerate(dists)
    )
    return OccupancyTable(rows)
