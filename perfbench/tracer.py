"""In-memory span tracer for the benchmark's traced run.

`Tracer.install` replaces the public functions of each layer module with
timing wrappers, at every module attribute bound to them, so a caller that
looks a function up by name (`cli` calling `check_sufficiency`, `evaluate`
calling its own `forward`, the benchmark calling `cli.main`) reaches the
wrapper. Nothing under `src/` is edited. A span is (name, start, end,
parent index); spans are kept in a list and written out at the end, and a
span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# The repository's modules, one layer each. `errors` has no work to time.
LAYERS = ("mdp", "evaluate", "observation", "sufficiency", "counterexamples", "offline", "serialize", "cli")

# Public functions left unwrapped: they run per DP cell or per value, where
# a wrapper would cost more than the work it times, or (canonical_json,
# sha256_hex) their time belongs to the CLI's own report writing.
UNWRAPPED = frozenset({"rational", "resolve_cell", "format_rational", "parse_rational", "canonical_json", "sha256_hex"})

CHECK = "sufficiency.check_sufficiency"
ENUMERATE = "mdp.enumerate_deterministic_policies"
SEGDIST = "observation.segment_distribution"

# Per-layer metrics of one pass, with units, in report order.
UNITS = {
    "mdp.enumerate_s": "s",
    "mdp.policies": "count",
    "evaluate.forward_s": "s",
    "evaluate.calls": "count",
    "observation.segdist_s": "s",
    "observation.calls": "count",
    "observation.segments": "count",
    "sufficiency.self_s": "s",
    "sufficiency.distinct_frac": "ratio",
    "counterexamples.build_s": "s",
    "counterexamples.self_s": "s",
    "offline.sample_s": "s",
    "offline.empirical_s": "s",
    "offline.tv_s": "s",
    "offline.trajectories": "count",
    "serialize.serialize_s": "s",
    "serialize.parse_s": "s",
    "serialize.bytes": "B",
    "cli.self_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        # Distinct per_start values seen inside each check_sufficiency span,
        # keyed by that span's index.
        self._distinct: dict[int, set] = {}
        self._pass_start = 0

    # ------------------------------------------------------------ wrapping

    def install(self, package) -> None:
        """Wrap every public function of every layer."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items()) if name == package.__name__ or name.startswith(prefix)]
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or fname in UNWRAPPED:
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fname}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_generator(name, fn)
                else:
                    wrapper = self._wrap(name, fn, self._hook_for(layer, fname))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)

    def _hook_for(self, layer: str, fname: str):
        if layer == "observation" and fname == "segment_distribution":
            return self._after_segdist
        if layer == "offline" and fname == "sample_dataset":
            return self._after_sample
        if layer == "serialize" and fname.startswith("serialize_"):
            return self._after_serialize
        if layer == "serialize" and fname.startswith("parse_"):
            return self._after_parse
        return None

    def _wrap(self, name, fn, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                # Bookkeeping gets its own span so it leaves the caller's
                # self time untouched and shows as tracing overhead.
                hook = ["trace.hook", clock(), 0.0, stack[-1] if stack else -1]
                spans.append(hook)
                after(args, result)
                hook[2] = clock()
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """Time each `next` of the generator; count the items it yields."""
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
                    spans.append(rec)
                    rec[1] = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec[2] = clock()
                    counts[name] += 1
                    yield item

            return timed()

        return traced

    # --------------------------------------------------------------- hooks

    def _after_segdist(self, args, dist) -> None:
        self.counts["observation.segments"] += sum(len(items) for _, items in dist.per_start)
        owner = next((i for i in reversed(self._stack) if self.spans[i][0] == CHECK), None)
        if owner is None:
            self.counts["distinct"] += 1
        else:
            self._distinct.setdefault(owner, set()).add(dist.per_start)

    def _after_sample(self, args, dataset) -> None:
        self.counts["offline.trajectories"] += dataset.n

    def _after_serialize(self, args, text) -> None:
        self.counts["serialize.bytes"] += len(text)  # canonical JSON is ASCII

    def _after_parse(self, args, result) -> None:
        self.counts["serialize.bytes"] += len(args[0])

    # ---------------------------------------------------------- per pass

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counts.clear()
        self._distinct.clear()

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since `begin_pass`."""
        lo = self._pass_start
        spans = self.spans[lo:]
        selfs = [end - start for _, start, end, _ in spans]
        for _, start, end, parent in spans:
            if parent >= lo:
                selfs[parent - lo] -= end - start
        self_by = defaultdict(float)
        calls = Counter()
        build_s = 0.0
        for (name, start, end, parent), own in zip(spans, selfs):
            self_by[name] += own
            calls[name] += 1
            if name.startswith("counterexamples.build_"):
                if parent < 0 or not self.spans[parent][0].startswith("counterexamples.build_"):
                    build_s += end - start

        def layer_self(layer, keep=lambda fname: True):
            return sum(v for k, v in self_by.items() if k.startswith(layer + ".") and keep(k.split(".", 1)[1]))

        distinct = self.counts["distinct"] + sum(len(s) for s in self._distinct.values())
        segdist_calls = calls[SEGDIST]
        return {
            "mdp.enumerate_s": self_by[ENUMERATE],
            "mdp.policies": self.counts[ENUMERATE],
            "evaluate.forward_s": self_by["evaluate.forward"],
            "evaluate.calls": calls["evaluate.forward"],
            "observation.segdist_s": self_by[SEGDIST],
            "observation.calls": segdist_calls,
            "observation.segments": self.counts["observation.segments"],
            "sufficiency.self_s": layer_self("sufficiency"),
            "sufficiency.distinct_frac": distinct / segdist_calls if segdist_calls else 0.0,
            "counterexamples.build_s": build_s,
            "counterexamples.self_s": layer_self("counterexamples"),
            "offline.sample_s": self_by["offline.sample_dataset"],
            "offline.empirical_s": self_by["offline.empirical_segments"],
            "offline.tv_s": self_by["offline.tv_distance"],
            "offline.trajectories": self.counts["offline.trajectories"],
            "serialize.serialize_s": layer_self("serialize", lambda f: f.startswith("serialize_") or f.endswith("_to_doc")),
            "serialize.parse_s": layer_self("serialize", lambda f: f.startswith("parse_") or f.endswith("_from_doc")),
            "serialize.bytes": self.counts["serialize.bytes"],
            "cli.self_s": layer_self("cli"),
        }

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
