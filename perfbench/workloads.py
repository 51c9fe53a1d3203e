"""The four benchmark workloads: the input files each one writes and the
fixed list of operations one pass runs.

A workload is built by `make_plan`. Its `setup` imports nothing itself: it
receives the freshly imported `shortsight` package, writes the input files
under `in/` of the current working directory and returns the objects the
library operations need. Every operation has a golden key that names its
inputs, so one goldens file serves every seed and the tiny variants.

Operations look up every `shortsight` function through a module attribute
at call time (`ss.cli.main`, `ss.serialize.parse_dataset`, ...), so the
tracer's wrappers are what they call in a traced run.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("verify-grid", "check-families", "random-dense", "offline")

# Passed as --cap on every enumerating command, so the caller's
# SHORTSIGHT_POLICY_CAP cannot change the class. Equal to the CLI default.
CAP = "1000000"

# random-dense: a pass runs RD_PER_PASS MDPs drawn by the seed from a pool of
# RD_POOL. The members share one transition graph and differ in
# probabilities, rewards and initial split, so a pass costs the same whichever
# members the seed draws.
RD_POOL = 32
RD_PER_PASS = 8
RD_STATES = 7
RD_HORIZON = 6
RD_WINDOW = 3

# offline: the sampling seed is drawn from OFFLINE_POOL recorded seeds.
OFFLINE_POOL = 16
OFFLINE_N = 20000
OFFLINE_H = 6
OFFLINE_M = 80


@dataclass(frozen=True)
class Op:
    """One operation of a pass.

    `call(ss, state)` is the timed part and returns the raw result;
    `render(result)` turns it into (exit code, report bytes) for the golden
    check, outside the timed region.
    """

    key: str
    call: Callable[[Any, dict], Any]
    render: Callable[[Any], tuple[int, bytes]]


@dataclass
class Plan:
    setup: Callable[[Any], dict]
    ops: list[Op]
    trajectories: int = 0  # trajectories sampled per pass


def cli_op(key: str, argv: list[str]) -> Op:
    def call(ss, state):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = ss.cli.main(argv)
        return code, out.getvalue()

    return Op(key, call, lambda result: (result[0], result[1].encode("utf-8")))


def _gen(ss, argv: list[str]) -> None:
    with redirect_stdout(io.StringIO()):
        code = ss.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"input generation failed: shortsight {' '.join(argv)} exited {code}")


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _half_behavior(ss, mdp):
    """50/50 stochastic behaviour at every choice state, forced elsewhere."""
    half = {}
    for s in mdp.choice_states():
        a0, a1 = mdp.actions[s][0], mdp.actions[s][1]
        half[mdp.states[s]] = {a0: Fraction(1, 2), a1: Fraction(1, 2)}
    return ss.make_stationary(mdp, half)


# ----------------------------------------------------------------- verify-grid


def _verify_grid(tiny: bool) -> Plan:
    ops = []
    for h in range(1, 3 if tiny else 8):
        for prop in (1, 3):
            ops.append(cli_op(f"verify-grid/p{prop}-H{h}", ["verify", "--prop", str(prop), "--H", str(h), "--cap", CAP]))
        for m in (h + 2, 10 * (h + 2)):
            argv = ["verify", "--prop", "2", "--H", str(h), "--M", str(m), "--cap", CAP]
            ops.append(cli_op(f"verify-grid/p2-H{h}-M{m}", argv))

    def setup(ss):
        return {}

    return Plan(setup, ops)


# -------------------------------------------------------------- check-families


def _check_families(tiny: bool) -> Plan:
    gh, ph = (2, 3) if tiny else (6, 10)
    greedy, prefix = f"greedy-H{gh}-M80", f"prefix-H{ph}"

    def setup(ss):
        os.makedirs("in", exist_ok=True)
        _gen(ss, ["gen", "greedy", "--H", str(gh), "--M", "80", "-o", f"in/{greedy}"])
        _gen(ss, ["gen", "prefix", "--H", str(ph), "-o", f"in/{prefix}"])
        return {}

    ops = [
        cli_op(
            f"check-families/{greedy}/check",
            ["check", "--mdp", f"in/{greedy}.mdp.json", "--obs", f"in/{greedy}.obs.json", "--cap", CAP],
        ),
        cli_op(
            f"check-families/{prefix}/check-nonstationary",
            ["check", "--mdp", f"in/{prefix}.mdp.json", "--obs", f"in/{prefix}.obs.json", "--nonstationary", "--cap", CAP],
        ),
    ]
    return Plan(setup, ops)


# ---------------------------------------------------------------- random-dense


def random_dense_docs(ss, index: int, n_states: int):
    """Pool member `index`: MDP, pairwise-aliased observation model and the
    50/50 behaviour, all determined by the index.

    Every state x{k} has actions a and b; a leads to x{k+1} or x{k+2}, b to
    x{k+3} or x{k+4} (mod n), with probabilities over a denominator of 2 to
    5 and rational rewards. The window has length RD_WINDOW and starts at
    every t.
    """
    rng = random.Random(f"random-dense:{n_states}:{index}")
    states = [f"x{k}" for k in range(n_states)]
    actions = {s: ("a", "b") for s in states}
    transitions = {}
    for k, s in enumerate(states):
        for shift, a in ((1, "a"), (3, "b")):
            den = rng.randint(2, 5)
            num = rng.randint(1, den - 1)
            transitions[(s, a)] = [
                (states[(k + shift) % n_states], Fraction(num, den), _reward(rng)),
                (states[(k + shift + 1) % n_states], Fraction(den - num, den), _reward(rng)),
            ]
    den = rng.randint(2, 5)
    num = rng.randint(1, den - 1)
    initial = {states[0]: Fraction(num, den), states[n_states // 2]: Fraction(den - num, den)}
    mdp = ss.build_mdp(states, actions, transitions, RD_HORIZON, initial, ())
    phi = {s: f"f{k // 2}" for k, s in enumerate(states)}
    model = ss.ObservationModel.make(RD_WINDOW, range(RD_HORIZON - RD_WINDOW + 1), phi)
    return mdp, model, _half_behavior(ss, mdp)


def _reward(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _random_dense(seed: int, tiny: bool, everything: bool) -> Plan:
    n_states = 4 if tiny else RD_STATES
    if tiny:
        indices = [0]
    elif everything:
        indices = list(range(RD_POOL))
    else:
        indices = random.Random(f"random-dense:{seed}").sample(range(RD_POOL), RD_PER_PASS)
    names = [f"n{n_states}-i{i}" for i in indices]

    def setup(ss):
        os.makedirs("in", exist_ok=True)
        for name, index in zip(names, indices):
            mdp, model, behavior = random_dense_docs(ss, index, n_states)
            _write(f"in/{name}.mdp.json", ss.serialize.serialize_mdp(mdp))
            _write(f"in/{name}.obs.json", ss.serialize.serialize_model(model))
            _write(f"in/{name}.half.json", ss.serialize.serialize_policy(behavior, mdp))
        return {}

    ops = []
    for name in names:
        mdp, obs, half = f"in/{name}.mdp.json", f"in/{name}.obs.json", f"in/{name}.half.json"
        ops += [
            cli_op(f"random-dense/{name}/check", ["check", "--mdp", mdp, "--obs", obs, "--cap", CAP]),
            cli_op(f"random-dense/{name}/ordering", ["ordering", "--mdp", mdp, "--h", "2", "--cap", CAP]),
            cli_op(f"random-dense/{name}/segdist", ["segdist", "--mdp", mdp, "--policy", half, "--obs", obs]),
        ]
    return Plan(setup, ops)


# --------------------------------------------------------------------- offline


def _render_dataset(ds) -> tuple[int, bytes]:
    h = hashlib.sha256()
    for traj in ds.trajectories:
        line = "|".join(traj.states) + ";" + "|".join(traj.actions) + ";" + "|".join(map(str, traj.rewards)) + "\n"
        h.update(line.encode("utf-8"))
    head = json.dumps({"behavior_id": ds.behavior_id, "seed": ds.seed, "n": ds.n, "trajectories": h.hexdigest()})
    return 0, head.encode("utf-8")


def _render_stats(stats) -> tuple[int, bytes]:
    doc = [
        [t, [[list(seg.features), list(seg.actions or ()), [str(r) for r in seg.rewards or ()], c] for seg, c in items]]
        for t, items in stats.per_start
    ]
    return 0, hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest().encode("ascii")


def _render_tv(tv) -> tuple[int, bytes]:
    return 0, json.dumps({str(t): str(v) for t, v in sorted(tv.items())}).encode("utf-8")


def _offline(seed: int, tiny: bool, everything: bool) -> Plan:
    n = 200 if tiny else OFFLINE_N
    h = 2 if tiny else OFFLINE_H
    mdp_path, half_path = f"in/greedy-H{h}.mdp.json", f"in/greedy-H{h}.half.json"
    if tiny:
        seeds = [0]
    elif everything:
        seeds = list(range(OFFLINE_POOL))
    else:
        seeds = [seed % OFFLINE_POOL]

    def setup(ss):
        os.makedirs("in", exist_ok=True)
        _gen(ss, ["gen", "greedy", "--H", str(h), "--M", str(OFFLINE_M), "-o", f"in/greedy-H{h}"])
        with open(mdp_path, encoding="utf-8") as fh:
            mdp = ss.serialize.parse_mdp(fh.read())
        with open(f"in/greedy-H{h}.obs.json", encoding="utf-8") as fh:
            bundled = ss.serialize.parse_model(fh.read())
        behavior = _half_behavior(ss, mdp)
        _write(half_path, ss.serialize.serialize_policy(behavior, mdp))
        identity = ss.ObservationModel.make(bundled.window_length, bundled.window_starts, ss.identity_phi(mdp))
        return {"mdp": mdp, "behavior": behavior, "models": {"bundled": bundled, "identity": identity}}

    def parse(ss, state):
        with open("data.json", encoding="utf-8") as fh:
            state["dataset"] = ss.serialize.parse_dataset(fh.read())
        return state["dataset"]

    def empirical(name):
        def call(ss, state):
            state[f"stats-{name}"] = ss.empirical_segments(state["dataset"], state["models"][name])
            return state[f"stats-{name}"]

        return call

    def tv(name):
        def call(ss, state):
            exact = ss.segment_distribution(state["mdp"], state["behavior"], state["models"][name])
            return ss.tv_distance(state[f"stats-{name}"], exact)

        return call

    ops = []
    for s in seeds:
        base = f"offline/greedy-H{h}-n{n}-s{s}"
        argv = ["sample", "--mdp", mdp_path, "--behavior", half_path, "--n", str(n), "--seed", str(s), "-o", "data.json"]
        ops += [
            cli_op(f"{base}/sample", argv),
            Op(f"{base}/parse", parse, _render_dataset),
            Op(f"{base}/empirical-bundled", empirical("bundled"), _render_stats),
            Op(f"{base}/empirical-identity", empirical("identity"), _render_stats),
            Op(f"{base}/tv-bundled", tv("bundled"), _render_tv),
            Op(f"{base}/tv-identity", tv("identity"), _render_tv),
        ]
    return Plan(setup, ops, trajectories=n * len(seeds))


def make_plan(workload: str, seed: int, tiny: bool = False, everything: bool = False) -> Plan:
    """The plan one run executes; `everything` covers the whole input pool,
    which is what goldens are recorded over."""
    if workload == "verify-grid":
        return _verify_grid(tiny)
    if workload == "check-families":
        return _check_families(tiny)
    if workload == "random-dense":
        return _random_dense(seed, tiny, everything)
    if workload == "offline":
        return _offline(seed, tiny, everything)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
