"""Command-line front end.

Subcommands: gen, eval, segdist, check, ordering, verify, sample. Every
command prints one canonical JSON report to stdout (sorted keys, exact
rational strings, content hashes for file inputs), so identical invocations
produce byte-identical reports. Exit status: 0 on success or a passing
verification, 1 when a proposition verification fails, 2 on usage, parse or
validation errors. Each input file is read, hashed and parsed by `_load`
before the next one is opened, and a document error (a file that is not
UTF-8 included) names its file. Output files (`gen -o`, `sample -o`) are
written by `_write` alone, in place over an existing file, which is then cut
to the new length if it was longer.

Numbers in flags are spelt as in documents (`mdp.parse_rational`), integers
with denominator 1 ("3", not "03"). The policy-enumeration cap is 10**6
unless --cap or, when the flag is absent, the SHORTSIGHT_POLICY_CAP
environment variable gives another; either must be an integer >= 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from fractions import Fraction

from .counterexamples import FAMILIES, CounterexampleSpec, build_counterexample, verify_proposition
from .errors import DocumentError, InvalidParam, ParseError, ShortsightError
from .evaluate import full_return, truncated_return
from .mdp import format_rational, parse_rational, policy_at_index
from .observation import _evaluate, _ranked
from .offline import sample_dataset
from .serialize import (
    canonical_json,
    parse_mdp,
    parse_model,
    parse_policy,
    serialize_dataset,
    serialize_mdp,
    serialize_model,
    sha256_hex,
)
from .sufficiency import DEFAULT_CAP, check_objective_consistency, check_sufficiency, require_cap

CAP_ENV = "SHORTSIGHT_POLICY_CAP"


def _resolve_cap(flag: str | None) -> int:
    """The --cap flag if given, else CAP_ENV if set, else DEFAULT_CAP.

    Both sources pass the same checks, and errors name the source.
    """
    source, raw = ("--cap", flag) if flag is not None else (CAP_ENV, os.environ.get(CAP_ENV))
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = _integer_arg(raw)
    except argparse.ArgumentTypeError:
        raise InvalidParam(f"{source} must be an integer, got {raw!r}") from None
    return require_cap(cap, source)


def _load(path: str, parse, *context) -> tuple:
    """One input file, read, hashed, decoded and parsed by `parse(text,
    *context)`, as (object, input record). A document error names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        obj = parse(data.decode("utf-8"), *context)
    except (DocumentError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{path}: {exc}") from exc
    return obj, {"path": path, "sha256": sha256_hex(data)}


def _write(path: str, text: str) -> dict:
    """Write `text` as UTF-8 over `path` in place and return its output record.

    The file is opened without O_TRUNC: truncating it to 0 would free every
    block of the old file, which costs tens of ms on a filesystem that
    discards freed blocks online. Only a regular file longer than the new
    bytes is cut afterwards, so at most its tail is freed; `/dev/null` and
    pipes cannot be truncated. A new file gets mode 0o666 & ~umask, as with
    `open(path, "wb")`, and O_BINARY keeps it binary on Windows.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as fh:
        old = os.fstat(fd)
        fh.write(data)
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            fh.truncate()
    return {"path": path, "sha256": sha256_hex(data)}


def _rational_arg(text: str) -> Fraction:
    """A rational flag, by the documents' rule (`mdp.parse_rational`)."""
    try:
        return parse_rational(text, None)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer_arg(text: str) -> int:
    """An integer flag, by the same rule: a rational with denominator 1."""
    try:
        if (value := parse_rational(text, None)).denominator == 1:
            return value.numerator
    except ParseError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _policy_class_doc(pclass) -> dict:
    return {
        "kind": pclass.kind,
        "enumerated": pclass.enumerated,
        "total": pclass.total,
        "truncated_by_cap": pclass.truncated,
        "note": pclass.describe(),
    }


def _emit(report: dict) -> None:
    sys.stdout.write(canonical_json(report))


def _cmd_gen(args) -> int:
    spec = CounterexampleSpec(args.family, args.H, args.M)
    mdp, model = build_counterexample(spec)
    out_mdp = _write(f"{args.output}.mdp.json", serialize_mdp(mdp))
    out_model = _write(f"{args.output}.obs.json", serialize_model(model))
    report = {
        "command": "gen",
        "family": spec.family,
        "inputs": {"H": spec.window_length},
        "outputs": {"mdp": out_mdp, "observation_model": out_model},
    }
    if spec.penalty is not None:
        report["inputs"]["M"] = format_rational(spec.penalty)
    _emit(report)
    return 0


def _cmd_eval(args) -> int:
    mdp, mdp_input = _load(args.mdp, parse_mdp)
    policy, policy_input = _load(args.policy, parse_policy, mdp)
    report = {
        "command": "eval",
        "inputs": {"mdp": mdp_input, "policy": policy_input},
        "policy_id": policy.describe(mdp),
    }
    if args.truncate is None:
        report["full_return"] = format_rational(full_return(mdp, policy))
    else:
        report["last_step"] = args.truncate
        report["truncated_return"] = format_rational(truncated_return(mdp, policy, args.truncate))
    _emit(report)
    return 0


def _cmd_segdist(args) -> int:
    mdp, mdp_input = _load(args.mdp, parse_mdp)
    policy, policy_input = _load(args.policy, parse_policy, mdp)
    model, model_input = _load(args.obs, parse_model)
    # `segment_distribution`'s rows, read off the engine's ranked tables:
    # each segment's label lists are built once and shared by its rows at
    # every start, and each distinct mass of a start is formatted once.
    leaf = _evaluate(mdp, policy, model)
    labels, starts = _ranked(leaf, [format_rational(r) for r in leaf[0].rewards])
    lists, per_start = {}, {}
    for start, den, table in starts:
        probs, rows = {}, []
        for seg, m in table:
            if seg not in lists:
                f, a, r = labels[seg]
                lists[seg] = {"features": list(f)}
                if model.observe_actions:
                    lists[seg]["actions"] = list(a[1:])
                if model.observe_rewards:
                    lists[seg]["rewards"] = list(r[1:])
            if m not in probs:
                probs[m] = format_rational(Fraction(m, den))
            rows.append({**lists[seg], "prob": probs[m]})
        per_start[str(start)] = rows
    _emit(
        {
            "command": "segdist",
            "inputs": {"mdp": mdp_input, "policy": policy_input, "observation_model": model_input},
            "policy_id": policy.describe(mdp),
            "distribution": per_start,
        }
    )
    return 0


def _witness_doc(witness, mdp) -> dict | None:
    if witness is None:
        return None
    return {
        "policy_a": {"index": witness.index_a, "description": witness.policy_a.describe(mdp)},
        "policy_b": {"index": witness.index_b, "description": witness.policy_b.describe(mdp)},
        "return_a": format_rational(witness.return_a),
        "return_b": format_rational(witness.return_b),
        "return_gap": format_rational(witness.gap),
    }


def _cmd_check(args) -> int:
    mdp, mdp_input = _load(args.mdp, parse_mdp)
    model, model_input = _load(args.obs, parse_model)
    verdict = check_sufficiency(mdp, model, stationary=not args.nonstationary, cap=args.cap)
    _emit(
        {
            "command": "check",
            "inputs": {"mdp": mdp_input, "observation_model": model_input},
            "sufficient": verdict.sufficient,
            "witness": _witness_doc(verdict.witness, mdp),
            "policy_class": _policy_class_doc(verdict.policy_class),
        }
    )
    return 0


def _describe_policies(mdp, indices, stationary: bool) -> list[str]:
    """The descriptions of the policies at `indices` of the class, in order."""
    return [policy_at_index(mdp, i, stationary).describe(mdp) for i in indices]


def _cmd_ordering(args) -> int:
    mdp, mdp_input = _load(args.mdp, parse_mdp)
    stationary = not args.nonstationary
    report = check_objective_consistency(mdp, args.h, stationary=stationary, cap=args.cap)
    _emit(
        {
            "command": "ordering",
            "inputs": {"mdp": mdp_input},
            "last_step": report.last_step,
            "truncated_argmax": {
                "value": format_rational(report.best_truncated),
                "indices": list(report.truncated_argmax),
                "policies": _describe_policies(mdp, report.truncated_argmax, stationary),
            },
            "full_argmax": {
                "value": format_rational(report.best_full),
                "indices": list(report.full_argmax),
                "policies": _describe_policies(mdp, report.full_argmax, stationary),
            },
            "argmax_intersects": report.argmax_intersects,
            "ordering_agrees": report.ordering_agrees,
            "policy_class": _policy_class_doc(report.policy_class),
        }
    )
    return 0


def _cmd_verify(args) -> int:
    report = verify_proposition(args.prop, args.H, args.M, cap=args.cap)
    doc = {
        "command": "verify",
        "proposition": report.proposition,
        "family": report.family,
        "inputs": {"H": report.window_length},
        "checks": [
            {
                "description": c.description,
                "expected": c.expected,
                "computed": c.computed,
                "passed": c.passed,
            }
            for c in report.checks
        ],
        "passed": report.passed,
    }
    if report.penalty is not None:
        doc["inputs"]["M"] = format_rational(report.penalty)
    _emit(doc)
    return 0 if report.passed else 1


def _cmd_sample(args) -> int:
    mdp, mdp_input = _load(args.mdp, parse_mdp)
    behavior, behavior_input = _load(args.behavior, parse_policy, mdp)
    dataset = sample_dataset(mdp, behavior, args.n, args.seed)
    out = _write(args.output, serialize_dataset(dataset))
    _emit(
        {
            "command": "sample",
            "inputs": {"mdp": mdp_input, "behavior": behavior_input},
            "behavior_id": dataset.behavior_id,
            "n": dataset.n,
            "seed": dataset.seed,
            "output": out,
        }
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="shortsight",
        description="Exact diagnostics for learning from fixed-length trajectory windows in tabular MDPs.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a counterexample MDP and observation model")
    p.add_argument("family", choices=FAMILIES)
    p.add_argument("--H", type=_integer_arg, required=True, help="window length")
    p.add_argument("--M", type=_rational_arg, default=None, help="greedy-family penalty (requires M > H+1)")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("eval", help="exact expected return of a policy")
    p.add_argument("--mdp", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--truncate", type=_integer_arg, default=None, help="inclusive last reward index")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("segdist", help="exact observable segment distribution of a policy")
    p.add_argument("--mdp", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--obs", required=True)
    p.set_defaults(run=_cmd_segdist)

    p = sub.add_parser("check", help="decide window sufficiency over the deterministic policy class")
    p.add_argument("--mdp", required=True)
    p.add_argument("--obs", required=True)
    p.add_argument("--nonstationary", action="store_true")
    p.add_argument("--cap")
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("ordering", help="compare truncated-return and full-return policy orderings")
    p.add_argument("--mdp", required=True)
    p.add_argument("--h", type=_integer_arg, required=True, help="inclusive last reward index of the truncated objective")
    p.add_argument("--nonstationary", action="store_true")
    p.add_argument("--cap")
    p.set_defaults(run=_cmd_ordering)

    p = sub.add_parser("verify", help="verify one counterexample proposition end to end")
    p.add_argument("--prop", type=_integer_arg, choices=(1, 2, 3), required=True)
    p.add_argument("--H", type=_integer_arg, required=True)
    p.add_argument("--M", type=_rational_arg, default=None)
    p.add_argument("--cap")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("sample", help="sample an offline dataset under a behavior policy")
    p.add_argument("--mdp", required=True)
    p.add_argument("--behavior", required=True)
    p.add_argument("--n", type=_integer_arg, required=True)
    p.add_argument("--seed", type=_integer_arg, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(run=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if "cap" in vars(args):
            args.cap = _resolve_cap(args.cap)
        return args.run(args)
    except (ShortsightError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
