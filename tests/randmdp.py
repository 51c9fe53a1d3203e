"""Seeded random small MDPs and observation models for oracle comparisons.

Kept deliberately small (<= 6 states, <= 2 actions, <= 2 successors, T <= 4)
so exhaustive trajectory enumeration in the oracle stays trivial.
"""

from __future__ import annotations

import random
from fractions import Fraction

from shortsight import ObservationModel, build_mdp


def random_mdp(rng: random.Random, max_states=6, max_actions=2, max_horizon=4):
    n = rng.randint(2, max_states)
    states = [f"x{i}" for i in range(n)]
    horizon = rng.randint(1, max_horizon)
    terminal = [states[-1]] if rng.random() < 0.3 else []

    actions = {}
    transitions = {}
    for s in states:
        if s in terminal:
            continue
        labels = [f"a{j}" for j in range(rng.randint(1, max_actions))]
        actions[s] = labels
        for a in labels:
            succ = rng.sample(range(n), rng.randint(1, 2))
            if len(succ) == 1:
                probs = [Fraction(1)]
            else:
                den = rng.randint(2, 4)
                num = rng.randint(1, den - 1)
                probs = [Fraction(num, den), Fraction(den - num, den)]
            transitions[(s, a)] = [
                (states[j], p, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for j, p in zip(succ, probs)
            ]

    if rng.random() < 0.5:
        initial = {states[rng.randrange(n)]: 1}
    else:
        i, j = rng.sample(range(n), 2)
        den = rng.randint(2, 4)
        num = rng.randint(1, den - 1)
        initial = {states[i]: Fraction(num, den), states[j]: Fraction(den - num, den)}
    return build_mdp(states, actions, transitions, horizon, initial, terminal)


def random_model(rng: random.Random, mdp):
    window = rng.randint(1, mdp.horizon)
    valid = list(range(0, mdp.horizon - window + 1))
    starts = sorted(rng.sample(valid, rng.randint(1, len(valid))))
    buckets = rng.randint(1, mdp.n_states)
    phi = {s: f"f{rng.randrange(buckets)}" for s in mdp.states}
    return ObservationModel.make(
        window, starts, phi,
        observe_actions=rng.random() < 0.5,
        observe_rewards=rng.random() < 0.5,
    )


def dense_mdp(n_states=7, horizon=6):
    """Two actions everywhere, each moving uniformly to every state.

    Every (t, state) cell is reached, so each deterministic policy is its own
    behaviour: the nonstationary class has 2 ** (n_states * horizon) of them.
    """
    states = [f"x{i}" for i in range(n_states)]
    p = Fraction(1, n_states)
    actions = {s: ["a0", "a1"] for s in states}
    transitions = {
        (s, a): [(s2, p, r) for s2 in states]
        for s in states
        for r, a in enumerate(actions[s])
    }
    return build_mdp(states, actions, transitions, horizon, {s: p for s in states})
