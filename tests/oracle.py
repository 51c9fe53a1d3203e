"""Independent brute-force reference implementations, used only by tests.

Everything here enumerates full support trajectories explicitly and works on
plain tuples, so it shares no computation path with the forward-DP engine it
is used to check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from shortsight.mdp import Policy, Trajectory
from shortsight.offline import OfflineDataset

ZERO = Fraction(0)
ONE = Fraction(1)


def support_trajectories(mdp, policy):
    """Every positive-probability trajectory as (prob, states, actions, rewards)."""
    out = []

    def walk(t, s, prob, states, actions, rewards):
        if t == mdp.horizon:
            out.append((prob, tuple(states), tuple(actions), tuple(rewards)))
            return
        cell = ((0, ONE),) if s in mdp.terminal else policy.rows[t][s]
        for a, q in cell:
            if q == 0:
                continue
            for s2, pr, r in mdp.transitions[s][a]:
                if pr == 0:
                    continue
                walk(
                    t + 1,
                    s2,
                    prob * q * pr,
                    states + [mdp.states[s2]],
                    actions + [mdp.actions[s][a]],
                    rewards + [r],
                )

    for s, p in enumerate(mdp.initial):
        if p:
            walk(0, s, p, [mdp.states[s]], [], [])
    return out


def oracle_full_return(mdp, policy):
    return sum(
        (p * sum(rews, ZERO) for p, _, _, rews in support_trajectories(mdp, policy)), ZERO
    )


def oracle_truncated_return(mdp, policy, last_step):
    keep = min(last_step + 1, mdp.horizon)
    return sum(
        (p * sum(rews[:keep], ZERO) for p, _, _, rews in support_trajectories(mdp, policy)),
        ZERO,
    )


def oracle_occupancy(mdp, policy):
    rows = [[ZERO] * mdp.n_states for _ in range(mdp.horizon + 1)]
    idx = {label: i for i, label in enumerate(mdp.states)}
    for p, states, _, _ in support_trajectories(mdp, policy):
        for t, label in enumerate(states):
            rows[t][idx[label]] += p
    return [tuple(r) for r in rows]


def crop_plain(states, actions, rewards, model, t0):
    phi = dict(model.phi)
    hi = t0 + model.window_length
    feats = tuple(phi[s] for s in states[t0 : hi + 1])
    acts = tuple(actions[t0:hi]) if model.observe_actions else None
    rews = tuple(rewards[t0:hi]) if model.observe_rewards else None
    return (t0, feats, acts, rews)


def oracle_segments(mdp, policy, model):
    """Per window start: {plain segment tuple: exact probability}."""
    tables = {t0: {} for t0 in model.window_starts}
    for p, states, actions, rewards in support_trajectories(mdp, policy):
        for t0 in model.window_starts:
            key = crop_plain(states, actions, rewards, model, t0)
            tables[t0][key] = tables[t0].get(key, ZERO) + p
    return tables


def plain_from_library(dist):
    """Reshape a SegmentDistribution into the oracle's plain-tuple form."""
    return {
        t0: {(seg.start, seg.features, seg.actions, seg.rewards): p for seg, p in items}
        for t0, items in dist.per_start
    }


def oracle_validate_policy(mdp, policy):
    """`validate_policy` with its coverage read off a forward pass over
    sets of reachable states, independent of the engine's walk.

    Return invariant violations of `policy` with respect to `mdp`.

    Checks cell-level soundness (available actions, exact sums, point masses
    for deterministic policies) plus coverage: the policy must be defined at
    every non-terminal state reachable under it at every timestep.
    """
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
        return problems
    if policy.stationary and any(row is not policy.rows[0] and row != policy.rows[0] for row in policy.rows):
        add("stationary policy has rows that differ; its one row is read at every step")

    checked = set()
    for t, row in enumerate(policy.rows):
        if id(row) in checked:
            continue
        checked.add(id(row))
        for s, entries in row.items():
            if not (0 <= s < mdp.n_states):
                add(f"policy row {t} references out-of-range state id {s}")
                continue
            label = mdp.states[s]
            if mdp.is_terminal(s):
                add(f"policy defines terminal state {label}; terminal actions are forced")
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
            if any(p <= 0 for _, p in entries):
                add(f"policy cell for state {label} has a non-positive probability")
            if sum(p for _, p in entries) != 1:
                add(f"policy cell for state {label} does not sum to 1")
            if policy.kind == "deterministic" and len(entries) != 1:
                add(f"deterministic policy has a split cell at state {label}")

    if policy.horizon != mdp.horizon:
        return problems

    # Coverage walk: undefined cells are violations only where reachable.
    support = {s for s, p in enumerate(mdp.initial) if p > 0}
    for t in range(mdp.horizon):
        nxt = set()
        for s in support:
            if mdp.is_terminal(s):
                nxt.add(s)
                continue
            entries = policy.rows[t].get(s)
            if entries is None:
                add(f"policy undefined at t={t} for reachable state {mdp.states[s]}")
                continue
            for a, p in entries:
                if p <= 0 or not (0 <= a < len(mdp.actions[s])):
                    continue
                for s2, pr, _ in mdp.transitions[s][a]:
                    if pr > 0:
                        nxt.add(s2)
        support = nxt
    return problems


def all_stationary_policies(mdp):
    """Independent lexicographic enumeration of deterministic stationary policies."""
    nonterm = [s for s in range(mdp.n_states) if s not in mdp.terminal]
    for combo in product(*(range(len(mdp.actions[s])) for s in nonterm)):
        row = {s: ((a, ONE),) for s, a in zip(nonterm, combo)}
        yield Policy("deterministic", mdp.horizon, (row,) * mdp.horizon, True)


def all_nonstationary_policies(mdp):
    """Independent lexicographic enumeration of deterministic nonstationary
    policies: one cell per (t, state), t outermost, last cell fastest."""
    nonterm = [s for s in range(mdp.n_states) if s not in mdp.terminal]
    cells = [(t, s) for t in range(mdp.horizon) for s in nonterm]
    for combo in product(*(range(len(mdp.actions[s])) for _, s in cells)):
        rows = [{} for _ in range(mdp.horizon)]
        for (t, s), a in zip(cells, combo):
            rows[t][s] = ((a, ONE),)
        yield Policy("deterministic", mdp.horizon, tuple(rows), False)


def oracle_members(first, free, below):
    """Member indices of a behaviour below `below`, ascending: `first` plus
    every combination of free-cell digits times their place values."""
    out = []
    for combo in product(*(range(k) for k, _ in free)):
        index = first + sum(a * w for a, (_, w) in zip(combo, free))
        if index >= below:
            break
        out.append(index)
    return out


def _bucket_key(tables):
    return tuple(sorted((t0, tuple(sorted(tbl.items()))) for t0, tbl in tables.items()))


def oracle_sufficient(mdp, model, policies):
    """Bucket by exact segment statistics; sufficient iff each bucket has one return."""
    buckets = {}
    for pol in policies:
        key = _bucket_key(oracle_segments(mdp, pol, model))
        buckets.setdefault(key, []).append(oracle_full_return(mdp, pol))
    return all(len(set(rets)) == 1 for rets in buckets.values())


def oracle_pair_indistinguishable(mdp, model, pol_a, pol_b):
    return oracle_segments(mdp, pol_a, model) == oracle_segments(mdp, pol_b, model)


def oracle_witness(mdp, model, policies):
    """Per-policy reference for the sufficiency witness.

    Returns (i, j, return_i, return_j) for the lexicographically first pair
    i < j with equal segment statistics and different full returns, or None
    when every bucket carries a single return.
    """
    keys = [_bucket_key(oracle_segments(mdp, pol, model)) for pol in policies]
    rets = [oracle_full_return(mdp, pol) for pol in policies]
    for i in range(len(policies)):
        for j in range(i + 1, len(policies)):
            if rets[i] != rets[j] and keys[i] == keys[j]:
                return i, j, rets[i], rets[j]
    return None


def oracle_ordering(mdp, policies, last_step):
    """Per-policy reference for the ordering report.

    Returns (truncated argmax, full argmax, best truncated, best full,
    orderings agree), agreement taken over all pairs.
    """
    trunc = [oracle_truncated_return(mdp, pol, last_step) for pol in policies]
    full = [oracle_full_return(mdp, pol) for pol in policies]
    best_t, best_f = max(trunc), max(full)
    agrees = all(
        (trunc[i] > trunc[j]) == (full[i] > full[j])
        and (trunc[i] == trunc[j]) == (full[i] == full[j])
        for i in range(len(policies))
        for j in range(i + 1, len(policies))
    )
    return (
        tuple(i for i, v in enumerate(trunc) if v == best_t),
        tuple(i for i, v in enumerate(full) if v == best_f),
        best_t,
        best_f,
        agrees,
    )


def oracle_pick(rng, outcomes):
    """Inverse-CDF draw over (thing, probability) pairs in the given order,
    comparing the float draw with running Fraction sums."""
    x = rng.random()
    acc = ZERO
    for thing, p in outcomes:
        acc += p
        if x < acc:
            return thing
    return outcomes[-1][0]


def oracle_sample_dataset(mdp, behavior, n, seed):
    """Reference sampler: the same seeding and draw order as `sample_dataset`,
    every draw resolved by `oracle_pick`."""
    initial = tuple((s, p) for s, p in enumerate(mdp.initial) if p > 0)
    trajectories = []
    for i in range(n):
        rng = random.Random(f"{seed}:{i}")
        s = oracle_pick(rng, initial)
        states, actions, rewards = [mdp.states[s]], [], []
        for t in range(mdp.horizon):
            cell = ((0, ONE),) if s in mdp.terminal else behavior.rows[t][s]
            a = oracle_pick(rng, cell)
            outs = tuple(((s2, r), p) for s2, p, r in mdp.transitions[s][a] if p > 0)
            s2, r = oracle_pick(rng, outs)
            actions.append(mdp.actions[s][a])
            rewards.append(r)
            states.append(mdp.states[s2])
            s = s2
        trajectories.append(Trajectory(tuple(states), tuple(actions), tuple(rewards)))
    return OfflineDataset(tuple(trajectories), behavior.describe(mdp), seed)


def oracle_tally(trajectories, model):
    """Per window start: {plain segment tuple: count}, one crop per trajectory."""
    tables = {t0: {} for t0 in model.window_starts}
    for traj in trajectories:
        for t0 in model.window_starts:
            key = crop_plain(traj.states, traj.actions, traj.rewards, model, t0)
            tables[t0][key] = tables[t0].get(key, 0) + 1
    return tables
