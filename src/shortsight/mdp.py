"""Tabular finite-horizon MDPs and policies over exact rational arithmetic.

Probabilities and rewards are `fractions.Fraction` throughout so that
distribution equality and return comparisons are decided exactly, never
against a floating-point tolerance; a rational string, wherever it enters,
is read by one rule, `parse_rational`. States and actions are identified by
position: the label tuples define the canonical integer ids used everywhere
else in the package.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Mapping, NamedTuple, Sequence

from .errors import InvalidParam, InvalidTrajectory, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)

# (next state id, probability, reward)
Outcome = tuple[int, Fraction, Fraction]
# A policy cell: (action id, probability) pairs sorted by action id.
Cell = tuple[tuple[int, Fraction], ...]

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def format_rational(value: Fraction) -> str:
    """The wire form of an exact rational: "n" or "n/d" in lowest terms,
    which is exactly `str` of a Fraction (or of an int)."""
    return str(value)


def parse_rational(value, where: str | None) -> Fraction:
    """The one rule for a rational string: exactly `format_rational` of its
    value, so each rational has one spelling ("1/2", not "2/4" or "-0")."""
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise ParseError(f"expected an exact rational string like \"3/4\", got {value!r}", where)
    rational = Fraction(value)
    if format_rational(rational) != value:
        raise ParseError(f"expected the canonical spelling {format_rational(rational)!r}, got {value!r}", where)
    return rational


def rational(value) -> Fraction:
    """Coerce ints, Fractions and `parse_rational` strings to Fraction; floats are refused."""
    if isinstance(value, (float, bool)):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, str):
        return parse_rational(value, None)
    return Fraction(value)


def _integer(value, name: str, low: int | None = None) -> int:
    """The one rule for an integer parameter: an int that is not a bool, and
    at least `low` when given. `name` locates the value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParam(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise InvalidParam(f"{name} must be >= {low}, got {value}")
    return value


def _boolean(value, name: str) -> bool:
    """The one rule for a flag parameter: a bool. `name` locates the value."""
    if not isinstance(value, bool):
        raise InvalidParam(f"{name} must be a bool, got {value!r}")
    return value


@dataclass(frozen=True)
class TabularMDP:
    """A finite-horizon MDP over integer state and action ids.

    Instances are deeply immutable: every table is a tuple (or frozenset) of
    ints, strings and Fractions, as `build_mdp` and `parse_mdp` build them, so
    an MDP that passed `validate_mdp` stays valid. The flag that it passed
    and the integer tables the engine compiled from the fields (see
    `observation._Engine`) are kept on the instance, outside equality and hashing.
    """

    states: tuple[str, ...]
    actions: tuple[tuple[str, ...], ...]
    transitions: tuple[tuple[tuple[Outcome, ...], ...], ...]
    horizon: int
    initial: tuple[Fraction, ...]
    terminal: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise KeyError(f"unknown state {label!r}") from None

    def action_index(self, state: int, label: str) -> int:
        try:
            return self.actions[state].index(label)
        except ValueError:
            raise KeyError(
                f"state {self.states[state]!r} has no action {label!r}"
            ) from None

    def is_terminal(self, state: int) -> bool:
        return state in self.terminal

    def nonterminal(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.n_states) if s not in self.terminal)

    def choice_states(self) -> tuple[int, ...]:
        """Non-terminal states where more than one action is available."""
        return tuple(s for s in self.nonterminal() if len(self.actions[s]) > 1)


@dataclass(frozen=True, slots=True)
class Trajectory:
    """One full episode: T+1 state labels, T action labels, T exact rewards."""

    states: tuple[str, ...]
    actions: tuple[str, ...]
    rewards: tuple[Fraction, ...]

    def __post_init__(self):
        if not len(self.states) == len(self.actions) + 1 == len(self.rewards) + 1:
            shape = f"{len(self.states)} states, {len(self.actions)} actions, {len(self.rewards)} rewards"
            raise InvalidTrajectory(f"trajectory shape ({shape}) is not T+1 states, T actions and T rewards")


def build_mdp(
    states: Sequence[str],
    actions: Mapping[str, Sequence[str]],
    transitions: Mapping[tuple[str, str], Sequence[tuple]],
    horizon: int,
    initial: Mapping[str, object],
    terminal: Sequence[str] = (),
) -> TabularMDP:
    """Assemble a TabularMDP from label-keyed tables.

    `transitions` maps (state, action) to (next_state, prob, reward) records;
    probabilities and rewards may be ints, Fractions or `rational` strings.
    Terminal states may omit action and transition entries: the mandatory
    zero-reward self-loop is filled in. Unknown labels are rejected here;
    semantic invariants are checked separately by `validate_mdp`.
    """
    labels = tuple(states)
    idx = {s: i for i, s in enumerate(labels)}
    for s in terminal:
        if s not in idx:
            raise ValueError(f"terminal label {s!r} is not a state")
    term = frozenset(idx[s] for s in terminal)
    for s in actions:
        if s not in idx:
            raise ValueError(f"actions given for unknown state {s!r}")
    for s in initial:
        if s not in idx:
            raise ValueError(f"initial probability given for unknown state {s!r}")

    act_rows = []
    for i, s in enumerate(labels):
        if s in actions:
            act_rows.append(tuple(actions[s]))
        elif i in term:
            act_rows.append(("stay",))
        else:
            act_rows.append(())

    for (s, a), outs in transitions.items():
        if s not in idx:
            raise ValueError(f"transition given for unknown state {s!r}")
        if a not in act_rows[idx[s]]:
            raise ValueError(f"transition for state {s!r} uses unknown action {a!r}")
        for nxt, *_ in outs:
            if nxt not in idx:
                raise ValueError(f"transition for ({s!r}, {a!r}) leads to unknown state {nxt!r}")

    trans_rows = []
    for i, s in enumerate(labels):
        per_action = []
        for a in act_rows[i]:
            if (s, a) in transitions:
                outs = tuple(
                    (idx[nxt], rational(p), rational(r))
                    for nxt, p, r in transitions[(s, a)]
                )
            elif i in term:
                outs = ((i, ONE, ZERO),)
            else:
                outs = ()
            per_action.append(outs)
        trans_rows.append(tuple(per_action))

    init = tuple(rational(initial.get(s, 0)) for s in labels)
    return TabularMDP(labels, tuple(act_rows), tuple(trans_rows), _integer(horizon, "horizon"), init, term)


def validate_mdp(mdp: TabularMDP) -> list[str]:
    """Return one message per invariant violation; an empty list means valid.

    Violations are data, not failures: callers decide what to do with a
    broken model, so nothing is raised here. MDPs are immutable, so each
    object that passes is checked once; a failing one is checked every time.
    """
    if getattr(mdp, "_valid", False):
        return []
    problems = _mdp_problems(mdp)
    if not problems:
        object.__setattr__(mdp, "_valid", True)
    return problems


def _mdp_problems(mdp: TabularMDP) -> list[str]:
    problems = []
    n = mdp.n_states
    if mdp.horizon < 1:
        problems.append(f"horizon must be a positive integer, got {mdp.horizon}")
    elif mdp.horizon > sys.maxsize:  # a policy holds one row per step in a tuple
        problems.append(f"horizon {mdp.horizon} is above {sys.maxsize}, the most steps a tuple can hold")
    if len(set(mdp.states)) != n:
        dup = sorted({s for s in mdp.states if mdp.states.count(s) > 1})
        problems.append(f"duplicate state labels: {', '.join(dup)}")
    if len(mdp.actions) != n or len(mdp.transitions) != n:
        problems.append("actions/transitions tables do not cover every state")
        return problems

    for s in range(n):
        label = mdp.states[s]
        acts = mdp.actions[s]
        if not acts:
            problems.append(f"state {label} has no available actions")
            continue
        if len(set(acts)) != len(acts):
            problems.append(f"state {label} has duplicate action labels")
        if len(mdp.transitions[s]) != len(acts):
            problems.append(f"state {label} transition table does not cover every action")
            continue
        for a, outs in enumerate(mdp.transitions[s]):
            where = f"({label}, {acts[a]})"
            total = ZERO
            for nxt, p, r in outs:
                if not (0 <= nxt < n):
                    problems.append(f"{where} transitions to out-of-range state id {nxt}")
                if p < 0:
                    problems.append(f"{where} has a negative probability {p}")
                total += p
            if total != 1:
                problems.append(f"probabilities for {where} sum to {total}, expected 1")

    if len(mdp.initial) != n:
        problems.append("initial distribution does not cover every state")
    else:
        if any(p < 0 for p in mdp.initial):
            problems.append("initial distribution has a negative entry")
        total = sum(mdp.initial, ZERO)
        if total != 1:
            problems.append(f"initial distribution sums to {total}, expected 1")

    for s in sorted(mdp.terminal):
        if not (0 <= s < n):
            problems.append(f"terminal state id {s} out of range")
            continue
        label = mdp.states[s]
        if len(mdp.actions[s]) != 1:
            problems.append(f"terminal state {label} must have exactly one action")
        elif mdp.transitions[s][0] != ((s, ONE, ZERO),):
            problems.append(f"terminal state {label} must self-loop with probability 1 and reward 0")
    return problems


@dataclass(frozen=True)
class Policy:
    """Per-timestep action distributions over the MDP's non-terminal states.

    `rows[t]` maps state id to a cell of (action id, probability) pairs
    sorted by action id; deterministic cells are single point masses.
    Stationary policies share one row object across all timesteps, so large
    enumerations stay cheap. Treat instances as immutable.
    """

    kind: str  # "deterministic" | "stochastic"
    horizon: int
    rows: tuple[dict[int, Cell], ...]
    stationary: bool

    def describe(self, mdp: TabularMDP) -> str:
        """Canonical human-readable description, listing choice states only."""
        choice = set(mdp.choice_states())

        def fmt(row):
            parts = []
            for s in sorted(row):
                if s not in choice:
                    continue
                entries = row[s]
                if len(entries) == 1 and entries[0][1] == 1:
                    parts.append(f"{mdp.states[s]}={mdp.actions[s][entries[0][0]]}")
                else:
                    inner = ",".join(f"{mdp.actions[s][a]}:{p}" for a, p in entries)
                    parts.append(f"{mdp.states[s]}=({inner})")
            return ",".join(parts) if parts else "(forced)"

        if self.stationary:
            return fmt(self.rows[0]) if self.rows else "(forced)"
        return ";".join(f"t{t}:{fmt(row)}" for t, row in enumerate(self.rows))


def _cell(entries) -> Cell:
    """The one cell rule: (action id, probability) pairs sorted by action id,
    zero entries dropped."""
    return tuple(sorted((a, p) for a, p in entries if p != 0))


def _make_cell(mdp: TabularMDP, state: int, spec) -> Cell:
    if isinstance(spec, str):
        return ((mdp.action_index(state, spec), ONE),)
    return _cell((mdp.action_index(state, a), rational(p)) for a, p in spec.items())


def _policy(horizon: int, rows: Sequence[dict[int, Cell]], stationary: bool, kind: str | None = None) -> Policy:
    """A Policy over `rows` (a stationary one gives its one row). Unless
    given, its kind is read off its cells: deterministic iff every cell is a
    point mass."""
    if kind is None:
        point = all(len(cell) == 1 and cell[0][1] == 1 for row in rows for cell in row.values())
        kind = "deterministic" if point else "stochastic"
    return Policy(kind, horizon, (rows[0],) * horizon if stationary else tuple(rows), stationary)


def make_stationary(
    mdp: TabularMDP,
    choices: Mapping[str, object] | None = None,
    default: str | None = None,
) -> Policy:
    """Build a stationary policy from per-state action choices.

    `choices[state]` is an action label (point mass) or a {label: prob}
    mapping. States with a single available action are filled automatically;
    `default` names the action to use at any remaining multi-action state.
    """
    choices = dict(choices or {})
    for s in choices:
        if s not in mdp.states:
            raise ValueError(f"choice given for unknown state {s!r}")
    row = {}
    for s in mdp.nonterminal():
        label = mdp.states[s]
        spec = choices.get(label)
        if spec is None:
            if len(mdp.actions[s]) == 1:
                spec = mdp.actions[s][0]
            elif default is not None:
                spec = default
            else:
                raise ValueError(f"no action chosen for state {label}")
        row[s] = _make_cell(mdp, s, spec)
    return _policy(mdp.horizon, [row], True)


def half_behavior(mdp: TabularMDP) -> Policy:
    """50/50 stochastic behavior over the first two actions at every choice
    state, forced elsewhere."""
    half = Fraction(1, 2)
    choices = {mdp.states[s]: {mdp.actions[s][0]: half, mdp.actions[s][1]: half} for s in mdp.choice_states()}
    return make_stationary(mdp, choices)


def make_nonstationary(mdp: TabularMDP, per_step: Sequence[Mapping[str, object]]) -> Policy:
    """Build a time-indexed policy from one choices mapping per timestep."""
    if len(per_step) != mdp.horizon:
        raise ValueError(f"expected {mdp.horizon} per-step tables, got {len(per_step)}")
    rows = []
    for table in per_step:
        row = {}
        for label, spec in table.items():
            s = mdp.index(label)
            row[s] = _make_cell(mdp, s, spec)
        rows.append(row)
    return _policy(mdp.horizon, rows, False)


# A cell of the deterministic class: (t, state). Stationary policies have one
# cell per non-terminal state, at t = 0, shared by every timestep (the row a
# stationary Policy shares); nonstationary policies have one per (t, state).
PolicyCell = tuple[int, int]


def policy_cells(mdp: TabularMDP, stationary: bool = True) -> tuple[PolicyCell, ...]:
    """The cells a deterministic policy assigns, most significant first.

    This is the one definition of policy order: policy index i in the class
    is the mixed-radix number whose digits are the action ids at these cells,
    the last cell varying fastest (stationary: states in id order;
    nonstationary: (t, state) with t outermost). `stationary` must be a bool.
    """
    nonterm = mdp.nonterminal()
    steps = range(1) if _boolean(stationary, "stationary") else range(mdp.horizon)
    return tuple((t, s) for t in steps for s in nonterm)


def _place_values(radices: Sequence[int]) -> list[int]:
    """The place value of each digit of a mixed-radix number, most
    significant first: the product of the radices after it."""
    places = [1] * len(radices)
    for k in range(len(radices) - 1, 0, -1):
        places[k - 1] = places[k] * radices[k]
    return places


def policy_at_index(mdp: TabularMDP, index: int, stationary: bool = True) -> Policy:
    """The deterministic policy with the given index in `policy_cells` order."""
    cells = policy_cells(mdp, stationary)
    radices = [len(mdp.actions[s]) for _, s in cells]
    total = prod(radices)
    index = _integer(index, "index")
    if not (0 <= index < total):
        raise IndexError(f"policy index {index} out of range for a class of {total}")
    rows: list[dict[int, Cell]] = [{} for _ in range(1 if stationary else mdp.horizon)]
    for (t, s), k, w in zip(cells, radices, _place_values(radices)):
        rows[t][s] = ((index // w % k, ONE),)
    return _policy(mdp.horizon, rows, stationary, "deterministic")


class Behaviour(NamedTuple):
    """The deterministic policies that agree on every cell the process reaches.

    Members have the same occupancy, step rewards and segment distributions,
    so one leaf of the engine's walk stands for all of them. `first` is the
    smallest member index; the others add, at each free (never reached)
    cell, an action id times the cell's place value: `free` holds (number of
    actions, place value) per free cell with a choice, most significant first.
    """

    first: int
    free: tuple[tuple[int, int], ...]

    def members(self, below: int) -> list[int]:
        """Member indices less than `below`, ascending."""
        # Most significant free cell first: its digits span less than the gap
        # between two indices so far, so the list stays ascending; cut at `below`.
        indices = [self.first] if self.first < below else []
        for radix, place in self.free:
            digits = range(0, radix * place, place)
            indices = [i + d for i in indices for d in digits]
            del indices[bisect_left(indices, below) :]
        return indices


def policy_class_size(mdp: TabularMDP, stationary: bool = True) -> int:
    """Closed-form size of the deterministic class: `policy_at_index` takes
    indices below it."""
    return prod(len(mdp.actions[s]) for _, s in policy_cells(mdp, stationary))
