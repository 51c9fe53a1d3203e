"""Seeded random small MDPs and observation models for oracle comparisons.

Kept deliberately small (<= 6 states, <= 2 actions, <= 2 successors, T <= 4)
so exhaustive trajectory enumeration in the oracle stays trivial; layered
MDPs have at most 12 non-terminal states and T <= 7.
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


def layered_mdp(rng: random.Random, max_layers=4, max_width=3, max_actions=2):
    """States in layers 0..L, with transitions only into the next layer and
    the last layer terminal, so each state is reachable at one step only.

    Rewards are in {0, 1} half the time, so that returns tie, and every
    transition is deterministic a third of the time. The horizon may end
    before the last layer or run up to three steps past it.
    """
    depth = rng.randint(1, max_layers)
    layers = [[f"y{t}_{i}" for i in range(rng.randint(1, max_width))] for t in range(depth + 1)]
    coarse, deterministic = rng.random() < 0.5, rng.random() < 1 / 3
    actions, transitions = {}, {}
    for t in range(depth):
        for s in layers[t]:
            actions[s] = [f"a{j}" for j in range(rng.randint(1, max_actions))]
            for a in actions[s]:
                succ = rng.sample(layers[t + 1], 1 if deterministic else min(rng.randint(1, 2), len(layers[t + 1])))
                if len(succ) == 1:
                    probs = [Fraction(1)]
                else:
                    den = rng.randint(2, 4)
                    num = rng.randint(1, den - 1)
                    probs = [Fraction(num, den), Fraction(den - num, den)]
                transitions[(s, a)] = [
                    (s2, p, Fraction(rng.randint(0, 1)) if coarse else Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for s2, p in zip(succ, probs)
                ]
    first = layers[0]
    if len(first) == 1 or rng.random() < 0.5:
        initial = {rng.choice(first): 1}
    else:
        i, j = rng.sample(first, 2)
        initial = {i: Fraction(1, 2), j: Fraction(1, 2)}
    states = [s for layer in layers for s in layer]
    return build_mdp(states, actions, transitions, rng.randint(1, depth + 3), initial, layers[-1])
