"""Tracing from outside the program: wrap hgspdc's public functions.

Each wrapped call is a span (name, start, end, parent). Self time is the
span's duration minus the time covered by wrapped calls it made. Totals per
layer cover every call; full span records are kept in memory up to a cap and
written out when the benchmark ends.
"""

from __future__ import annotations

import sys
import time

# (layer, defining module, attribute). The serialization layer sums the
# matrix and sweep writers.
TARGETS = (
    ("specfun.gamma_half", "hgspdc.specfun", "gamma_half"),
    ("specfun.hyp2f1_real", "hgspdc.specfun", "hyp2f1_real"),
    ("specfun.hyp2f1_terminating", "hgspdc.specfun", "hyp2f1_terminating"),
    ("channel.derive_constants", "hgspdc.channel", "derive_constants"),
    ("engine.f_kernel", "hgspdc.engine", "f_kernel"),
    ("engine.k_kernel", "hgspdc.engine", "k_kernel"),
    ("engine.pi_factor", "hgspdc.engine", "pi_factor"),
    ("engine.joint_probability", "hgspdc.engine", "joint_probability"),
    ("engine.probability_matrix", "hgspdc.engine", "probability_matrix"),
    ("oracle.overlap_table", "hgspdc.oracle", "overlap_table"),
    ("validate.check_oracle", "hgspdc.validate", "check_oracle"),
    ("validate.check_symmetry_factorization", "hgspdc.validate",
     "check_symmetry_factorization"),
    ("validate.run_checks", "hgspdc.validate", "run_checks"),
    ("serialization", "hgspdc.serialization", "matrix_to_json"),
    ("serialization", "hgspdc.serialization", "matrix_to_csv"),
    ("serialization", "hgspdc.serialization", "format_matrix_table"),
    ("serialization", "hgspdc.serialization", "sweep_to_json"),
    ("serialization", "hgspdc.serialization", "sweep_to_csv"),
    ("cli.main", "hgspdc.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))
#: layers that only a `python -m hgspdc` process reaches
CLI_LAYERS = ("oracle.overlap_table", "validate.check_oracle",
              "validate.check_symmetry_factorization", "validate.run_checks",
              "serialization", "cli.main")


class Tracer:
    """Per-layer call counts and self time, plus capped span records."""

    def __init__(self, span_cap: int):
        self.span_cap = span_cap
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_ns = {layer: 0 for layer in LAYERS}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self._stack: list[list[int]] = []  # [child_ns, span_id] per open span
        self._next_id = 0
        self._pi_seen: set = set()
        self.pi_reused = 0
        self._k_kernel = None
        self._k_base = (0, 0)

    def reset_counts(self) -> None:
        """Start a new measurement window. Keys already seen stay seen."""
        for layer in self.calls:
            self.calls[layer] = 0
            self.self_ns[layer] = 0
        self.pi_reused = 0
        if self._k_kernel is not None:
            info = self._k_kernel.cache_info()
            self._k_base = (info.hits, info.misses)

    def wrap(self, name: str, fn, on_call=None):
        calls, self_ns, spans, stack = self.calls, self.self_ns, self.spans, self._stack
        calls.setdefault(name, 0)
        self_ns.setdefault(name, 0)
        clock = time.perf_counter_ns
        cap = self.span_cap
        tracer = self

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_ns[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if len(spans) < cap:
                    spans.append((span_id, parent, tracer.op_id, name, start, end))
                else:
                    tracer.dropped += 1

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _pi_key(self, mu, nu, consts, *rest, **kwargs):
        key = (min(mu, nu), max(mu, nu), consts)
        if key in self._pi_seen:
            self.pi_reused += 1
        else:
            self._pi_seen.add(key)

    def install(self) -> None:
        """Replace each target in every hgspdc namespace that holds it.

        Modules that import a function by name hold their own reference, and
        validate keeps its checks in a tuple and a set, so every module
        attribute and every tuple, list, set or frozenset of an hgspdc
        module that holds an original is rebound to the wrapper.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hgspdc" or name.startswith("hgspdc.")]
        wrapped = {}
        for layer, modname, attr in TARGETS:
            if modname not in sys.modules:  # e.g. cli and validate in-process
                continue
            orig = getattr(sys.modules[modname], attr)
            on_call = self._pi_key if layer == "engine.pi_factor" else None
            if layer == "engine.k_kernel":
                self._k_kernel = orig
            wrapped[id(orig)] = (orig, self.wrap(layer, orig, on_call))
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
                elif isinstance(value, (tuple, list, set, frozenset)):
                    items = [wrapped[id(v)][1] if id(v) in wrapped and wrapped[id(v)][0] is v
                             else v for v in value]
                    if any(a is not b for a, b in zip(items, value)):
                        setattr(module, key, type(value)(items))
        self.reset_counts()

    def snapshot(self, label: str) -> dict:
        """Totals since the last reset, in the form merge() sums."""
        hits = misses = 0
        if self._k_kernel is not None:
            info = self._k_kernel.cache_info()
            hits, misses = info.hits - self._k_base[0], info.misses - self._k_base[1]
        return {
            "calls": dict(self.calls),
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "k_kernel_hits": hits,
            "k_kernel_misses": misses,
            "pi_reused": self.pi_reused,
            "processes": [{"label": label, "dropped": self.dropped,
                           "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                           "spans": self.spans}],
        }


def empty_totals() -> dict:
    return {"calls": {layer: 0 for layer in LAYERS},
            "self_s": {layer: 0.0 for layer in LAYERS},
            "k_kernel_hits": 0, "k_kernel_misses": 0, "pi_reused": 0,
            "processes": []}


def merge(into: dict, part: dict, layers=None) -> dict:
    """Add part's totals to into; with layers, only their calls and self time."""
    for layer in part["calls"] if layers is None else layers:
        into["calls"][layer] = into["calls"].get(layer, 0) + part["calls"][layer]
        into["self_s"][layer] = into["self_s"].get(layer, 0.0) + part["self_s"][layer]
    if layers is None:
        for key in ("k_kernel_hits", "k_kernel_misses", "pi_reused"):
            into[key] += part[key]
    into["processes"].extend(part["processes"])
    return into


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit)."""
    calls, self_s = totals["calls"], totals["self_s"]
    out: dict[str, tuple[float, str]] = {}

    def both(layer):
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")

    for layer in ("specfun.gamma_half", "specfun.hyp2f1_real",
                  "specfun.hyp2f1_terminating", "channel.derive_constants",
                  "engine.f_kernel", "engine.k_kernel", "engine.pi_factor",
                  "engine.joint_probability", "engine.probability_matrix",
                  "oracle.overlap_table", "serialization"):
        both(layer)
    lookups = totals["k_kernel_hits"] + totals["k_kernel_misses"]
    out["engine.k_kernel.hit_ratio"] = (
        totals["k_kernel_hits"] / lookups if lookups else 0.0, "ratio")
    pi_calls = calls["engine.pi_factor"]
    out["engine.pi_factor.reuse_ratio"] = (
        totals["pi_reused"] / pi_calls if pi_calls else 0.0, "ratio")
    for layer in ("validate.check_oracle", "validate.check_symmetry_factorization",
                  "validate.run_checks", "cli.main"):
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    return out
