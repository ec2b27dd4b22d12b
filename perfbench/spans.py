"""Span tracing from outside the program, through public names only.

`Tracer.install` wraps each layer function where callers look it up: the
module attribute, every other butterflylab module that imported the same
object by name (``lis.int_convolve``, ``cli.substream``, ...), or the class
attribute for methods (``Permutation.__init__``, ``Pmf.moment``). Private
state such as the memo ladders is never read. A layer whose name no longer
resolves is listed in ``missing`` and its metrics are left out, so a
refactor that moves a function cannot crash the benchmark.

Spans are (name, start, end, parent index) and stay in memory until the
episode writes them out. Self time is a span's duration minus that of its
direct children.
"""
from __future__ import annotations

import importlib
import sys
import time


def _int_convolve_bits(c, idx, args, result):
    # Size of the carry-free Kronecker product: one slot per output coefficient.
    a, b = args[0], args[1]
    if a and b:
        slot = (max(a) * max(b) * min(len(a), len(b))).bit_length()
        c["product_bits"] = c.get("product_bits", 0) + slot * (len(a) + len(b) - 1)


def _exact_ladder_call(c, idx, args, result):
    # Exact mode returns a count-mode Pmf; only those calls can hit int_convolve.
    if getattr(result, "mode", None) == "count":
        c.setdefault("exact_spans", []).append(idx)


def _gepp_work(c, idx, args, result):
    T, N = args[0].shape[0], args[0].shape[1]
    c["trials"] = c.get("trials", 0) + T
    c["flops"] = c.get("flops", 0) + T * 2 * N**3 // 3


def _result_elements(c, idx, args, result):
    c["elements"] = c.get("elements", 0) + result.size


def _arg_elements(c, idx, args, result):
    c["elements"] = c.get("elements", 0) + args[0].size


# Counter names each hook fills, reported as 0 when the layer never ran.
COUNTERS = {
    _int_convolve_bits: ("product_bits",),
    _exact_ladder_call: ("exact_calls", "ladder_hit_ratio"),
    _gepp_work: ("trials", "flops", "batch_fill"),
    _result_elements: ("elements",),
    _arg_elements: ("elements",),
}

# (metric prefix, module, attribute path, counter hook). The last five are
# helpers that cli calls directly; wrapping them keeps their work out of
# cli.self_s, which should be formatting and writing only.
LAYERS = [
    ("pmf.int_convolve", "pmf", "int_convolve", _int_convolve_bits),
    ("pmf.Pmf.moment", "pmf", "Pmf.moment", None),
    ("lis.nonsimple_lis_counts", "lis", "nonsimple_lis_counts", _exact_ladder_call),
    ("cycles.nonsimple_cycle_counts", "cycles", "nonsimple_cycle_counts", _exact_ladder_call),
    ("cycles.limit_moments", "cycles", "limit_moments", None),
    ("gepp.gepp_perm_batch", "gepp", "gepp_perm_batch", _gepp_work),
    ("gepp.build_butterfly", "gepp", "build_butterfly", None),
    ("gepp.ensemble_sample", "gepp", "ensemble_sample", None),
    ("groups.sample_nonsimple", "groups", "sample_nonsimple", None),
    ("groups.materialize", "groups", "materialize", _result_elements),
    ("lis.lis", "lis", "lis", _arg_elements),
    ("rng.substream", "rng", "substream", None),
    ("permutations.Permutation", "permutations", "Permutation.__init__", None),
    ("permutations.fisher_yates", "permutations", "fisher_yates", None),
    ("groups.sample_simple", "groups", "sample_simple", None),
    ("gepp.sample_spec", "gepp", "sample_spec", None),
    ("gepp.gepp", "gepp", "gepp", None),
    ("cycles.density_grid", "cycles", "density_grid", None),
    ("lis.fit_exponent", "lis", "fit_exponent", None),
]

# Span name of one subcommand, opened by the episode around cli.main.
CLI = "cli"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, dict] = {}
        self.missing: list[str] = []
        self.recording = True

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, hook):
        counters = self.counters.setdefault(name, {})

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(counters, idx, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, module, path, hook in LAYERS:
            try:
                owner = importlib.import_module(f"butterflylab.{module}")
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, hook)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("butterflylab"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)

    def _children(self) -> tuple[list[float], list[set]]:
        child_time = [0.0] * len(self.spans)
        child_names: list[set] = [set() for _ in self.spans]
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_names[parent].add(name)
        return child_time, child_names

    def self_time_by_root(self) -> dict[int, dict[str, float]]:
        """Self time per layer under each root span, i.e. per subcommand."""
        child_time, _ = self._children()
        roots: list[int] = []
        out: dict[int, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            roots.append(i if parent < 0 else roots[parent])
            per = out.setdefault(roots[i], {})
            per[name] = per.get(name, 0.0) + end - start - child_time[i]
        return out

    def summary(self) -> dict:
        """Per-layer calls, busy_s, self_s and counters, keyed by metric name."""
        names = [name for name, *_ in LAYERS if name not in self.missing] + [CLI]
        out = {f"{n}.{k}": 0 for n in names for k in ("calls", "busy_s", "self_s")}
        for name, _module, _path, hook in LAYERS:
            if name not in self.missing:
                out.update({f"{name}.{k}": 0 for k in COUNTERS.get(hook, ())})
        child_time, child_names = self._children()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[i]
            # Busy time counts a layer once when it calls itself.
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.busy_s"] += end - start
        for name, counters in self.counters.items():
            for key, value in counters.items():
                if key != "exact_spans":
                    out[f"{name}.{key}"] = value
                    continue
                hits = sum("pmf.int_convolve" not in child_names[i] for i in value)
                out[f"{name}.exact_calls"] = len(value)
                out[f"{name}.ladder_hit_ratio"] = hits / len(value)
        batch = "gepp.gepp_perm_batch"
        if batch not in self.missing:
            calls = out[f"{batch}.calls"]
            out[f"{batch}.batch_fill"] = out[f"{batch}.trials"] / calls if calls else 0.0
        return out
