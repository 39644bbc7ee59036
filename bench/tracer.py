"""In-process span tracing of the ``clasp`` layers, from outside the package.

``Tracer.install`` wraps every public module-level function of each layer
module, plus the methods that stand for a layer (backend ``generate`` and
the n-best lookups), and rebinds each wrapper under every name a ``clasp``
module holds for the original, so calls made through ``from … import``
bindings are seen too. ``uninstall`` restores the originals.

A span is (id, group, parent id, start, end, stage). Spans stay in memory
until the run ends. A wrapped call made directly inside a span of the same
group is folded into that span, so recursion and helper chains inside one
group count once.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "datasets", "trees", "canonical", "sentinels", "prompts", "backends",
    "gate", "projection", "mixing", "metrics",
)

# Functions reported under their own group name; every other public
# function of a layer is reported as "<layer>.other".
GROUPS = {
    "datasets.read_jsonl": "datasets.read_jsonl",
    "datasets.write_records": "datasets.write_records",
    "trees.parse": "trees.parse",
    "trees.leaf_slots": "trees.leaf_slots",
    "trees.serialize": "trees.serialize",
    "trees.find_token_span": "trees.find_token_span",
    "canonical.contains_catalog_word": "canonical.contains_catalog_word",
    "canonical.to_canonical_form": "canonical.to_canonical_form",
    "canonical.sample_replacement": "canonical.sample_replacement",
    "sentinels.encode_sentinels": "sentinels.encode_sentinels",
    "prompts.build_rs_prompt": "prompts.build",
    "prompts.build_gb_prompt": "prompts.build",
    "prompts.build_ts_prompt": "prompts.build",
    "prompts.build_tb_prompt": "prompts.build",
    "prompts.build_slot_mt_prompt": "prompts.build",
    "prompts.build_sent_mt_prompt": "prompts.build",
    "prompts.split_generation": "prompts.split_generation",
    "backends.MockBackend.generate": "backends.generate",
    "backends.HttpBackend.generate": "backends.generate",
    "gate.gate_rs": "gate.gate",
    "gate.gate_gb": "gate.gate",
    "gate.gate_mtop": "gate.gate",
    "gate.SlotNBestMap.top": "gate.nbest_lookup",
    "gate.SlotNBestMap.alternatives": "gate.nbest_lookup",
    "gate.fallback": "gate.fallback",
    "gate.compile_stats": "gate.compile_stats",
    "projection.project_parse": "projection.project_parse",
    "mixing.plan_mix": "mixing.plan_mix",
    "mixing.emit_manifest": "mixing.emit_manifest",
    "metrics.score_corpus": "metrics.score_corpus",
    "metrics.uem": "metrics.uem",
    "metrics.sciem": "metrics.sciem",
}

_METHODS = (
    ("backends", "MockBackend", "generate"),
    ("backends", "HttpBackend", "generate"),
    ("gate", "SlotNBestMap", "top"),
    ("gate", "SlotNBestMap", "alternatives"),
)

ROOT = "cli"


class Tracer:
    """Records spans and result counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, float, float, str]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: tuple[int, str] | None = None
        self._stage = ""
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ bindings

    def install(self) -> None:
        """Wrap the layers of the already imported ``clasp`` package."""
        modules = [m for name, m in sys.modules.items()
                   if name == "clasp" or name.startswith("clasp.")]
        for layer in LAYERS:
            mod = sys.modules.get(f"clasp.{layer}")
            if mod is None:
                continue
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                key = f"{layer}.{name}"
                wrapper = self._wrap(fn, GROUPS.get(key, f"{layer}.other"), key)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, attr, wrapper)
        for layer, cls_name, meth in _METHODS:
            cls = getattr(sys.modules.get(f"clasp.{layer}"), cls_name, None)
            if cls is not None and meth in vars(cls):
                key = f"{layer}.{cls_name}.{meth}"
                self._rebind(cls, meth, self._wrap(vars(cls)[meth], GROUPS[key], key))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # --------------------------------------------------------------- spans

    def run(self, stage: str, fn) -> float:
        """Call ``fn`` as one traced CLI stage; return its wall seconds."""
        self._stage = stage
        self._root = (next(self._ids), ROOT)
        self._local.stack = [self._root]
        t0 = perf_counter()
        try:
            fn()
        finally:
            t1 = perf_counter()
            self.spans.append((self._root[0], ROOT, 0, t0, t1, stage))
            self._root = None
        return t1 - t0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None or stack[0] is not self._root:
            # A worker thread: its spans hang off the running stage.
            stack = self._local.stack = [self._root]
        return stack

    def _wrap(self, fn, group: str, key: str):
        post = _POST.get(key)
        pre = _PRE.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._root is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1]
            if parent[1] == group:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(tracer, args)
            me = (next(tracer._ids), group)
            stack.append(me)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((me[0], group, parent[0], t0, t1, tracer._stage))
            if post is not None:
                post(tracer.counts, args, result)
            return result

        return wrapper

    # ------------------------------------------------------------- results

    def self_times(self) -> dict[tuple[str, str], list[float]]:
        """{(stage, group): [calls, self seconds]}.

        Self time is a span's duration minus the union of its children's
        intervals; the union matters where worker threads overlap.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, _, parent, t0, t1, _ in self.spans:
            if parent:
                children[parent].append((t0, t1))
        out: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0])
        for sid, group, _, t0, t1, stage in self.spans:
            acc = out[(stage, group)]
            acc[0] += 1
            acc[1] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        return out

    def self_by_stage(self) -> dict[str, dict[str, float]]:
        """{stage: {layer: self seconds}}."""
        table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (stage, group), (_, self_s) in self.self_times().items():
            table[stage][group.split(".")[0]] += self_s
        return table

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tparent\tstart\tend\tstage\n")
            for sid, group, parent, t0, t1, stage in self.spans:
                fh.write(f"{sid}\t{group}\t{parent}\t{t0:.7f}\t{t1:.7f}\t{stage}\n")

    def layer_metrics(self, walls: dict[str, float], tasks: dict[str, int],
                      http: tuple[str, int, float] | None,
                      requests_seen: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass.

        ``walls`` holds each stage's traced wall seconds, ``tasks`` the
        task count of each augment stage, and ``http`` names the stage that
        talks to the HTTP stub with its in-flight limit and injected
        latency; ``requests_seen`` is what the stub counted meanwhile.
        """
        groups: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for (_, group), (calls, self_s) in self.self_times().items():
            groups[group][0] += calls
            groups[group][1] += self_s
        c = self.counts
        m: dict[str, float] = {"cli.self_s": groups[ROOT][1]}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                v[1] for g, v in groups.items() if g.split(".")[0] == layer)
        for name in ("trees.parse", "trees.leaf_slots", "trees.serialize",
                     "trees.find_token_span", "canonical.contains_catalog_word",
                     "canonical.to_canonical_form", "canonical.sample_replacement",
                     "sentinels.encode_sentinels", "prompts.build",
                     "prompts.split_generation", "gate.gate", "gate.nbest_lookup",
                     "projection.project_parse", "metrics.uem"):
            m[f"{name}.calls"], m[f"{name}.self_s"] = groups[name]
        for name in ("datasets.read_jsonl", "datasets.write_records",
                     "mixing.emit_manifest"):
            m[f"{name}.self_s"] = groups[name][1]
            m[f"{name}.rows"] = c[f"{name}.rows"]
        m["gate.fallback.calls"] = groups["gate.fallback"][0]
        m["gate.compile_stats.self_s"] = groups["gate.compile_stats"][1]
        m["mixing.plan_mix.self_s"] = groups["mixing.plan_mix"][1]
        m["metrics.score_corpus.self_s"] = groups["metrics.score_corpus"][1]
        m["metrics.sciem.calls"] = groups["metrics.sciem"][0]

        # Backend wait: generate spans, which overlap when requests share the wire.
        gen = [(t0, t1, st) for _, g, _, t0, t1, st in self.spans
               if g == "backends.generate"]
        waits = sorted(t1 - t0 for t0, t1, _ in gen)
        busy = {st: _covered([(t0, t1) for t0, t1, s in gen if s == st],
                             float("-inf"), float("inf")) for st in walls}
        m["backends.generate.calls"] = len(gen)
        m["backends.generate.busy_s"] = sum(busy.values())
        m["backends.wait.samples"] = len(waits)
        m["backends.wait_p50_ms"] = 1e3 * _percentile(waits, 0.50)
        m["backends.wait_p95_ms"] = 1e3 * _percentile(waits, 0.95)
        m["backends.retries"] = 0
        m["backends.saturation"] = 0.0
        if http is not None:
            stage, inflight, latency = http
            spans = [(t0, t1) for t0, t1, st in gen if st == stage]
            m["backends.retries"] = max(0, requests_seen - len(spans))
            if spans:
                window = max(t1 for _, t1 in spans) - min(t0 for t0, _ in spans)
                m["backends.saturation"] = len(spans) / window / (inflight / latency)
        n_tasks = sum(tasks.values())
        overhead = sum(walls[st] - busy[st] for st in tasks)
        m["cli.overhead_ms_per_task"] = 1e3 * overhead / n_tasks if n_tasks else 0.0

        cands, gates = c["gate.candidates"], groups["gate.gate"][0]
        m["gate.candidate_pass_frac"] = c["gate.candidates_passed"] / cands if cands else 0.0
        m["gate.survivor_frac"] = c["gate.survivors"] / gates if gates else 0.0
        m["gate.success.clean"] = c["gate.success.clean"]
        m["gate.recovered.slot_nbest"] = c["gate.success.slot_nbest"]
        m["gate.recovered.fix_casing"] = c["gate.success.fix_casing"]
        for mode in ("missing_slot", "untagged_slot", "invalid_separators",
                     "copy_example", "duplicate_output", "invalid_parse",
                     "mismatch_parse"):
            m[f"gate.mode.{mode}"] = c[f"gate.mode.{mode}"]
        projected = groups["projection.project_parse"][0]
        m["projection.ok_frac"] = c["projection.ok"] / projected if projected else 0.0
        return m


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for t0, t1 in sorted(intervals):
        t0, t1 = max(t0, end), min(t1, hi)
        if t1 > t0:
            total += t1 - t0
            end = t1
    return total


# ------------------------------------------------------------ counters


class _Counting:
    def __init__(self, counts, key: str, items) -> None:
        self.counts, self.key, self.items = counts, key, items

    def __iter__(self):
        for item in self.items:
            self.counts[self.key] += 1
            yield item


def _count_written(tracer: Tracer, args):
    path, records, *rest = args
    return (path, _Counting(tracer.counts, "datasets.write_records.rows", records), *rest)


def _rows(name: str):
    def post(counts, args, result) -> None:
        counts[name] += len(result)
    return post


def _gate_post(counts, args, result) -> None:
    verdict, event = result
    for modes in event.candidate_modes:
        counts["gate.candidates"] += 1
        counts["gate.candidates_passed"] += not modes
        for mode in modes:
            counts[f"gate.mode.{mode}"] += 1
    counts["gate.survivors"] += verdict.final is not None
    if event.success_mode is not None:
        counts[f"gate.success.{event.success_mode}"] += 1


def _projection_post(counts, args, result) -> None:
    counts["projection.ok"] += result.ok


_PRE = {"datasets.write_records": _count_written}
_POST = {
    "datasets.read_jsonl": _rows("datasets.read_jsonl.rows"),
    "mixing.emit_manifest": _rows("mixing.emit_manifest.rows"),
    "gate.gate_rs": _gate_post,
    "gate.gate_gb": _gate_post,
    "gate.gate_mtop": _gate_post,
    "projection.project_parse": _projection_post,
}
