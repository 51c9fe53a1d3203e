"""JSON document formats for MDPs, observation models, policies and datasets.

Every probability and reward travels as an exact "p/q" string; documents
round-trip exactly (parse(serialize(x)) == x). Parsing is strict: unknown
fields are rejected with the offending field path, a rational string must be
spelt exactly as `format_rational` writes it (`mdp.parse_rational`), syntax errors carry the
line and column, and semantic problems are reported through the same
validators the rest of the package uses.

Every document and CLI report is written by `canonical_json`. Its canonical
form is the bytes of `json.dumps(doc, sort_keys=True, indent=2)` plus a
newline; the writer `_write` produces them itself (strings through the C
`encode_basestring_ascii`). A list's flat rows are filled into one template
per shape, which `_write` renders once with sentinel strings; everything else
takes the generic path. A property test proves the output equal to
`json.dumps` on report-shaped documents.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

from .errors import InvalidParam, InvalidTrajectory, ParseError, ValidationError
from .mdp import Policy, TabularMDP, Trajectory, _boolean, _cell, _integer, _policy, build_mdp, format_rational, parse_rational, validate_mdp
from .observation import ObservationModel, validate_policy
from .offline import OfflineDataset, _distinct


def canonical_json(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, byte for byte, over
    dicts with str keys, lists, str, int, bool and None; any other type
    raises TypeError."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(obj, nl: str, out: list[str]) -> None:
    """Append the text of one value to `out`; each of its line breaks is
    followed by the indent that ends `nl`."""
    if not isinstance(obj, (dict, list)):
        out.append(_scalar(obj))
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        inner = nl + "  "
        lead = "{" + inner
        for key in sorted(obj):
            out.append(lead + _quote(key) + ": ")  # _quote refuses a non-str key
            _write(obj[key], inner, out)
            lead = "," + inner
        out.append(nl + "}")
    else:
        inner = nl + "  "
        out.append("[" + inner)
        out.append(("," + inner).join(_items(obj, inner)))
        out.append(nl + "]")


def _items(items: list, nl: str):
    """The texts of a list's items. An object the list holds again is
    rendered once for this list, and the list's flat rows share one
    template per shape (`_render`)."""
    if all(isinstance(item, str) for item in items):
        return map(_quote, items)
    texts: dict[int, str] = {}
    templates: dict[tuple, str | None] = {}
    parts = []
    for item in items:
        if isinstance(item, (dict, list)):
            text = texts.get(id(item))
            if text is None:
                text = texts[id(item)] = _render(item, nl, templates)
        else:
            text = _scalar(item)
        parts.append(text)
    return parts


_SLOT = "\x00"
_QUOTED_SLOT = _quote(_SLOT)


def _render(item, nl: str, templates: dict) -> str:
    """The text of a list item. A flat row (a dict of scalars and lists of
    strings) fills its shape's template: `_write`'s text of the shape with
    `_SLOT` in each value slot, `%` escaped and each quoted `_SLOT` a %s. A
    shape with more slots than values (a key quoting to a quoted `_SLOT`),
    any other item and any TypeError on the way are left to `_write`."""
    if isinstance(item, dict):
        try:
            keys = sorted(item)
            lengths, values = [], []
            for key in keys:
                value = item[key]
                if type(value) is list:
                    lengths.append(len(value))
                    values += map(_quote, value)  # _quote refuses a non-str item
                else:
                    lengths.append(-1)
                    values.append(_scalar(value))  # _scalar refuses a dict
            shape = (*keys, *lengths)
            if shape not in templates:
                sub: list[str] = []
                _write({k: _SLOT if n < 0 else [_SLOT] * n for k, n in zip(keys, lengths)}, nl, sub)
                text = "".join(sub).replace("%", "%%")
                templates[shape] = text.replace(_QUOTED_SLOT, "%s") if text.count(_QUOTED_SLOT) == len(values) else None
        except TypeError:
            pass
        else:
            if templates[shape] is not None:
                return templates[shape] % tuple(values)
    sub = []
    _write(item, nl, sub)
    return "".join(sub)


def _scalar(obj) -> str:
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, f"line {exc.lineno} column {exc.colno} (char {exc.pos})") from None
    except RecursionError:
        raise ParseError("nested too deeply", "document") from None
    except ValueError as exc:  # an integer longer than sys.get_int_max_str_digits()
        raise ParseError(str(exc), "document") from None


def _as_dict(obj, where):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}", where)
    return obj


def _as_list(obj, where):
    if not isinstance(obj, list):
        raise ParseError(f"expected an array, got {type(obj).__name__}", where)
    return obj


def _as_str(obj, where):
    if not isinstance(obj, str):
        raise ParseError(f"expected a string, got {type(obj).__name__}", where)
    return obj


def _as_int(obj, where, low: int | None = None):
    try:
        return _integer(obj, where, low)
    except InvalidParam:
        bound = "" if low is None else f" >= {low}"
        raise ParseError(f"expected an integer{bound}, got {obj!r}", where) from None


def _as_bool(obj, where):
    try:
        return _boolean(obj, where)
    except InvalidParam:
        raise ParseError(f"expected a boolean, got {obj!r}", where) from None


def _strings(obj, where) -> tuple[str, ...]:
    """A list of strings, checked at once; only a failure builds the path of
    the first non-string item."""
    items = _as_list(obj, where)
    for j, item in enumerate(items):
        if not isinstance(item, str):
            _as_str(item, f"{where}[{j}]")
    return tuple(items)


def _rationals() -> Callable[[object, str], Fraction]:
    """`parse_rational` for one document, which repeats a few rational
    strings: each distinct one is parsed once. Only a value that parsed is
    kept, so a bad one is reported at its first place."""
    memo: dict[str, Fraction] = {}

    def parse(value, where: str) -> Fraction:
        rational = memo.get(value) if isinstance(value, str) else None
        if rational is None:
            rational = memo[value] = parse_rational(value, where)
        return rational

    return parse


def _check_fields(d: dict, where: str, required: tuple, optional: tuple = ()):
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"unknown field(s): {', '.join(unknown)}", where)
    missing = sorted(set(required) - set(d))
    if missing:
        raise ParseError(f"missing required field(s): {', '.join(missing)}", where)


# ---------------------------------------------------------------- MDP


def serialize_mdp(mdp: TabularMDP) -> str:
    transitions = []
    for s in range(mdp.n_states):
        for a, label in enumerate(mdp.actions[s]):
            for nxt, p, r in mdp.transitions[s][a]:
                transitions.append(
                    {
                        "state": mdp.states[s],
                        "action": label,
                        "next": mdp.states[nxt],
                        "prob": format_rational(p),
                        "reward": format_rational(r),
                    }
                )
    return canonical_json({
        "states": list(mdp.states),
        "actions": {mdp.states[s]: list(mdp.actions[s]) for s in range(mdp.n_states)},
        "transitions": transitions,
        "horizon": mdp.horizon,
        "initial": {
            mdp.states[s]: format_rational(p) for s, p in enumerate(mdp.initial) if p != 0
        },
        "terminal": [mdp.states[s] for s in sorted(mdp.terminal)],
    })


def parse_mdp(text: str) -> TabularMDP:
    top = _as_dict(_load_json(text), "document")
    _check_fields(
        top, "document",
        required=("states", "actions", "transitions", "horizon", "initial"),
        optional=("terminal",),
    )
    states = _strings(top["states"], "states")
    if len(set(states)) != len(states):
        raise ParseError("duplicate state labels", "states")
    known = set(states)

    actions = {}
    for label, acts in _as_dict(top["actions"], "actions").items():
        if label not in known:
            raise ParseError(f"unknown state {label!r}", "actions")
        actions[label] = _strings(acts, f"actions[{label}]")

    rational = _rationals()
    transitions: dict[tuple[str, str], list] = {}
    for i, rec in enumerate(_as_list(top["transitions"], "transitions")):
        where = f"transitions[{i}]"
        rec = _as_dict(rec, where)
        _check_fields(rec, where, required=("state", "action", "next", "prob", "reward"))
        s = _as_str(rec["state"], f"{where}.state")
        a = _as_str(rec["action"], f"{where}.action")
        nxt = _as_str(rec["next"], f"{where}.next")
        if s not in known:
            raise ParseError(f"unknown state {s!r}", f"{where}.state")
        if nxt not in known:
            raise ParseError(f"unknown state {nxt!r}", f"{where}.next")
        if a not in actions.get(s, ()):
            raise ParseError(f"state {s!r} has no action {a!r}", f"{where}.action")
        p = rational(rec["prob"], f"{where}.prob")
        r = rational(rec["reward"], f"{where}.reward")
        transitions.setdefault((s, a), []).append((nxt, p, r))

    horizon = _as_int(top["horizon"], "horizon")
    initial = {}
    for label, p in _as_dict(top["initial"], "initial").items():
        if label not in known:
            raise ParseError(f"unknown state {label!r}", "initial")
        initial[label] = rational(p, f"initial[{label}]")
    terminal = []
    for i, label in enumerate(_as_list(top.get("terminal", []), "terminal")):
        label = _as_str(label, f"terminal[{i}]")
        if label not in known:
            raise ParseError(f"unknown state {label!r}", f"terminal[{i}]")
        terminal.append(label)

    # Ensure every declared action has a transition row, even if empty, so
    # the sum-to-1 check reports it as a validation problem, not a crash.
    for s, acts in actions.items():
        for a in acts:
            transitions.setdefault((s, a), [])

    mdp = build_mdp(states, actions, transitions, horizon, initial, terminal)
    problems = validate_mdp(mdp)
    if problems:
        raise ValidationError(problems)
    return mdp


# ---------------------------------------------------- Observation model


def serialize_model(model: ObservationModel) -> str:
    return canonical_json({
        "window_length": model.window_length,
        "window_starts": list(model.window_starts),
        "phi": dict(model.phi),
        "observe_actions": model.observe_actions,
        "observe_rewards": model.observe_rewards,
    })


def parse_model(text: str) -> ObservationModel:
    top = _as_dict(_load_json(text), "document")
    _check_fields(
        top, "document",
        required=("window_length", "window_starts", "phi", "observe_actions", "observe_rewards"),
    )
    starts = [
        _as_int(t, f"window_starts[{i}]")
        for i, t in enumerate(_as_list(top["window_starts"], "window_starts"))
    ]
    phi = {
        _as_str(s, "phi"): _as_str(f, f"phi[{s}]")
        for s, f in _as_dict(top["phi"], "phi").items()
    }
    length = _as_int(top["window_length"], "window_length")
    flags = _as_bool(top["observe_actions"], "observe_actions"), _as_bool(top["observe_rewards"], "observe_rewards")
    try:  # the model's own rules, such as a window length of at least 1
        return ObservationModel(length, starts, phi, *flags)
    except InvalidParam as exc:
        raise ValidationError([str(exc)]) from None


# ------------------------------------------------------------- Policy


def serialize_policy(policy: Policy, mdp: TabularMDP) -> str:
    def row_doc(row):
        return {
            mdp.states[s]: {
                mdp.actions[s][a]: format_rational(p) for a, p in entries
            }
            for s, entries in sorted(row.items())
        }

    rows = [policy.rows[0]] if policy.stationary else list(policy.rows)
    return canonical_json({
        "kind": policy.kind,
        "horizon": policy.horizon,
        "stationary": policy.stationary,
        "rows": [row_doc(row) for row in rows],
    })


def parse_policy(text: str, mdp: TabularMDP) -> Policy:
    top = _as_dict(_load_json(text), "document")
    _check_fields(top, "document", required=("kind", "horizon", "stationary", "rows"))
    kind = _as_str(top["kind"], "kind")
    horizon = _as_int(top["horizon"], "horizon")
    stationary = _as_bool(top["stationary"], "stationary")
    rows_doc = _as_list(top["rows"], "rows")
    if stationary and len(rows_doc) != 1:
        raise ParseError(f"stationary policy must carry exactly one row, got {len(rows_doc)}", "rows")
    if not stationary and len(rows_doc) != horizon:
        raise ParseError(f"expected {horizon} rows, got {len(rows_doc)}", "rows")
    if horizon != mdp.horizon:  # before (row,) * horizon is built
        raise ValidationError([f"policy horizon {horizon} does not match MDP horizon {mdp.horizon}"])

    rational = _rationals()

    def parse_row(row_doc, where):
        row = {}
        for label, cell in _as_dict(row_doc, where).items():
            try:
                s = mdp.index(label)
            except KeyError:
                raise ParseError(f"unknown state {label!r}", where) from None
            entries = []
            for a_label, p in _as_dict(cell, f"{where}[{label}]").items():
                try:
                    a = mdp.action_index(s, a_label)
                except KeyError:
                    raise ParseError(
                        f"state {label!r} has no action {a_label!r}", f"{where}[{label}]"
                    ) from None
                entries.append((a, rational(p, f"{where}[{label}][{a_label}]")))
            row[s] = _cell(entries)
        return row

    rows = [parse_row(r, f"rows[{t}]") for t, r in enumerate(rows_doc)]
    policy = _policy(horizon, rows, stationary, kind)
    problems = validate_policy(mdp, policy)
    if problems:
        raise ValidationError(problems)
    return policy


# ------------------------------------------------------------- Dataset


def serialize_dataset(dataset: OfflineDataset) -> str:
    # One record per distinct trajectory object, listed again for each
    # repeat, so the writer renders it once. Trajectories are grouped by
    # object identity.
    by_id = {
        i: {
            "states": list(traj.states),
            "actions": list(traj.actions),
            "rewards": [format_rational(r) for r in traj.rewards],
        }
        for i, (traj, _) in _distinct(dataset.trajectories).items()
    }
    return canonical_json({
        "behavior_id": dataset.behavior_id,
        "seed": dataset.seed,
        "n": dataset.n,
        "trajectories": list(map(by_id.__getitem__, map(id, dataset.trajectories))),
    })


def _record_key(rec) -> tuple | None:
    """The fields of a record shaped like a valid one (a dict of exactly
    three lists) as one key, else None. Valid items are all strings, so a
    record whose key equals a valid record's is that record."""
    if type(rec) is not dict or len(rec) != 3:
        return None
    try:
        fields = rec["states"], rec["actions"], rec["rewards"]
    except KeyError:
        return None
    if any(type(f) is not list for f in fields):
        return None
    return tuple(map(tuple, fields))


def parse_dataset(text: str) -> OfflineDataset:
    top = _as_dict(_load_json(text), "document")
    _check_fields(top, "document", required=("behavior_id", "seed", "n", "trajectories"))
    n = _as_int(top["n"], "n", 1)
    records = _as_list(top["trajectories"], "trajectories")
    if len(records) != n:
        raise ParseError(f"n is {n} but {len(records)} trajectories are present", "n")
    # A dataset repeats a few records: each distinct one is parsed once. Only
    # records that parsed are kept, so a bad one is still reported where it is.
    parsed: dict[tuple, Trajectory] = {}
    rational = _rationals()
    trajectories = []
    for i, rec in enumerate(records):
        key = _record_key(rec)
        try:
            traj = parsed.get(key)
        except TypeError:  # an unhashable item: the full checks locate it
            key = traj = None
        if traj is not None:
            trajectories.append(traj)
            continue
        where = f"trajectories[{i}]"
        rec = _as_dict(rec, where)
        _check_fields(rec, where, required=("states", "actions", "rewards"))
        states = _strings(rec["states"], f"{where}.states")
        acts = _strings(rec["actions"], f"{where}.actions")
        rewards = [rational(r, f"{where}.rewards[{j}]") for j, r in enumerate(_as_list(rec["rewards"], f"{where}.rewards"))]
        try:
            traj = Trajectory(states, acts, tuple(rewards))
        except InvalidTrajectory:
            raise ParseError("states/actions/rewards lengths are inconsistent", where) from None
        if key is not None:
            parsed[key] = traj
        trajectories.append(traj)
    return OfflineDataset(
        tuple(trajectories),
        _as_str(top["behavior_id"], "behavior_id"),
        _as_int(top["seed"], "seed"),
    )
