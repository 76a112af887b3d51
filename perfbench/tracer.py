"""In-memory span tracer wrapped around qtelarray's layer boundaries.

``install`` replaces every public function of the layer modules (in its own
module and under every name another module imported it as, ``cli``
included) and every public ``SupportState`` method with a wrapper that
records a span: name, parent span, item index, start and end. Post-call
hooks add work counters at the same boundaries. Spans stay in memory until
the pass ends; ``layer_metrics`` then derives per-layer times, counters and
self times (span time minus the time of its child spans).

Nothing here runs unless a traced pass asks for it; untraced passes never
import this module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

from metrics import PER_LAYER

# Modules whose public functions are wrapped; the span name is the module
# path below ``qtelarray`` plus the function name, and the layer is its
# first segment.
TRACED_MODULES = (
    "qtelarray.qcore.registry",
    "qtelarray.qcore.states",
    "qtelarray.qcore.gates",
    "qtelarray.qcore.optics",
    "qtelarray.source",
    "qtelarray.codec",
    "qtelarray.netdecode",
    "qtelarray.imaging",
    "qtelarray.transfer",
)
# Modules searched for imported aliases of the wrapped functions.
ALIAS_MODULES = TRACED_MODULES + (
    "qtelarray.qcore",
    "qtelarray.qcore.support",
    "qtelarray.cli",
)
SUPPORT_PREFIX = "qcore.support.SupportState."
LAYERS = ("qcore", "source", "codec", "netdecode", "imaging", "transfer",
          "cli", "bench")

# Per-layer time and call metrics: metric stem -> span names it sums.
SPAN_GROUPS = {
    "qcore.optics.lo_matrix": ("qcore.optics.linear_optics_matrix",),
    "qcore.optics.apply": ("qcore.optics.apply_linear_optics",),
    "qcore.gates.enumerate_measure": ("qcore.gates.enumerate_measure",),
    "qcore.support.to_vector": (SUPPORT_PREFIX + "to_vector",),
    "source.visibility": ("source.visibility_from_intensity",),
    "codec.write": ("codec.encode_bin",),
    "codec.compress": ("codec.parallel_frequency_compress",),
    "netdecode.decode": ("netdecode.decode_arrival",),
    "netdecode.w_readout": ("netdecode.w_state_readout",),
    "imaging.qft": ("imaging.qft_image_diagonal", "imaging.qft_process"),
    "imaging.sample_qft": ("imaging.sample_qft",),
    "imaging.classical": ("imaging.classical_pipeline",),
    "transfer.table": ("transfer.coherent_amplitude_table",
                       "transfer.multiport_amplitude_table"),
    "transfer.enum": ("transfer.transfer_branches",),
    "transfer.closed": ("transfer.heralded_rate_closed",
                        "transfer.deterministic_fidelity_closed"),
    "transfer.lossy": ("transfer.lossy_transfer",),
    "transfer.network_mc": ("transfer.network_monte_carlo",),
    "cli.encode": ("cli.encode",),
    "cli.imaging": ("cli.imaging",),
    "cli.transfer": ("cli.transfer",),
    "cli.formulas": ("cli.formulas",),
}

# Size sweeps: metric stem -> (item kind, span name or None for item time,
# the item groups of the sweep).
SCALING = {
    "imaging.frame_s": ("frame", None, ("N32", "N64", "N128", "N256")),
    "netdecode.decode_s": ("arrival", "netdecode.decode_arrival",
                           ("N8", "N12", "N16", "N18", "N20")),
    "transfer.enum_s": ("enum", "transfer.transfer_branches",
                        ("c10", "c12", "c16", "sites3")),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_to_vector(tr, args, kwargs, out):
    tr.add("qcore.support.to_vector.bytes", 16 * out.size)


def _count_branches(tr, args, kwargs, out):
    tr.add("qcore.gates.enumerate_measure.branches", len(out))


def _count_exp_evals(tr, args, kwargs, out):
    intensity = _arg(args, kwargs, 0, "intensity")
    tr.add("source.visibility.exp_evals", out.geometry.N ** 2 * len(intensity))


def _count_write(tr, args, kwargs, out):
    for _w, sup, _meta in out.components:
        tr.add("codec.support_size.total", len(sup.amps))
        tr.add("codec.support_size.count", 1)


def _count_decode(tr, args, kwargs, out):
    tr.add("netdecode.ghz_checks", out.checks)


def _count_readout(tr, args, kwargs, out):
    tr.add("netdecode.w_attempts", out.attempts)
    tr.add("netdecode.w_readouts", 1)


def _count_classical(tr, args, kwargs, out):
    tr.add("imaging.shots", out.shots)
    tr.add("imaging.successes", out.extra["successes"])


def _count_enum(tr, args, kwargs, out):
    table = _arg(args, kwargs, 0, "table")
    sites = len(_arg(args, kwargs, 1, "amps"))
    tr.add("transfer.enum.records", len(table.outcomes()) ** sites)
    tr.add("transfer.enum.branches", len(out[0]))


def _count_trials(tr, args, kwargs, out):
    tr.add("transfer.network_mc.trials", out["trials"])


POST_HOOKS = {
    SUPPORT_PREFIX + "to_vector": _count_to_vector,
    "qcore.gates.enumerate_measure": _count_branches,
    "source.visibility_from_intensity": _count_exp_evals,
    "codec.encode_bin": _count_write,
    "netdecode.decode_arrival": _count_decode,
    "netdecode.w_state_readout": _count_readout,
    "imaging.classical_pipeline": _count_classical,
    "transfer.transfer_branches": _count_enum,
    "transfer.network_monte_carlo": _count_trials,
}


class Tracer:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self):
        # [name, parent span index or -1, item index, start, end, outermost]
        self.spans = []
        self.counters = defaultdict(float)
        self.item = -1
        self._stack = []
        self._depth = defaultdict(int)

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outer = self._depth[name] == 0
        self._depth[name] += 1
        self._stack.append(idx)
        self.spans.append([name, parent, self.item, perf_counter(), 0.0, outer])
        return idx

    def close(self, idx: int):
        self.spans[idx][4] = perf_counter()
        self._depth[self.spans[idx][0]] -= 1
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add(self, name: str, value):
        self.counters[name] += value

    def wrap(self, fn, name: str):
        post = POST_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if post is not None:
                post(self, args, kwargs, out)
            return out

        return traced

    def dump(self, path: str, item_ids):
        """Write the spans as JSON: names once, then one row per span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], round(s[3], 9), round(s[4], 9)]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "items": list(item_ids),
                       "columns": ["name", "parent", "item", "start", "end"],
                       "spans": rows}, fh, separators=(",", ":"))


def install(tracer: Tracer):
    """Wrap the layer boundaries; returns a function that undoes it."""
    from qtelarray.qcore import SupportState

    owners = [importlib.import_module(m) for m in ALIAS_MODULES]
    patched = []
    for modname in TRACED_MODULES:
        mod = importlib.import_module(modname)
        prefix = modname[len("qtelarray."):]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != modname):
                continue
            wrapped = tracer.wrap(fn, f"{prefix}.{attr}")
            for owner in owners:
                for alias, value in list(vars(owner).items()):
                    if value is fn:
                        patched.append((owner, alias, fn))
                        setattr(owner, alias, wrapped)
    for attr, raw in list(vars(SupportState).items()):
        if attr.startswith("_"):
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(raw.__func__, SUPPORT_PREFIX + attr))
        elif inspect.isfunction(raw):
            wrapped = tracer.wrap(raw, SUPPORT_PREFIX + attr)
        else:
            continue
        patched.append((SupportState, attr, raw))
        setattr(SupportState, attr, wrapped)

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, items, seconds, wall_s: float) -> dict:
    """The per-layer metrics of one traced pass (all but the overhead,
    which needs untraced passes too).

    ``items`` are the pass's items and ``seconds`` their run times. Times
    of a named function count its outermost calls only, so recursion is not
    counted twice; self times partition the traced item time by layer.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, parent, _item, t0, t1, _outer in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    incl = defaultdict(float)
    incl_item = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    support_self = 0.0
    support_calls = 0
    for i, (name, _parent, item, t0, t1, outer) in enumerate(spans):
        dur = t1 - t0
        own = dur - child[i]
        layer_self[name.split(".", 1)[0]] += own
        calls[name] += 1
        if outer:
            incl[name] += dur
            incl_item[(name, item)] += dur
        if name.startswith(SUPPORT_PREFIX):
            support_self += own
            support_calls += 1

    c = tracer.counters
    out = {
        "qcore.support.calls": support_calls,
        "qcore.support.self_s": support_self,
        "qcore.support.to_vector.bytes": c["qcore.support.to_vector.bytes"],
        "qcore.gates.enumerate_measure.branches":
            c["qcore.gates.enumerate_measure.branches"],
        "source.visibility.exp_evals": c["source.visibility.exp_evals"],
        "codec.support_size.mean": _ratio(c["codec.support_size.total"],
                                          c["codec.support_size.count"]),
        "netdecode.ghz_checks": c["netdecode.ghz_checks"],
        "netdecode.w_attempts": c["netdecode.w_attempts"],
        "netdecode.w_success_ratio": _ratio(c["netdecode.w_readouts"],
                                            c["netdecode.w_attempts"]),
        "imaging.shots": c["imaging.shots"],
        "imaging.success_ratio": _ratio(c["imaging.successes"],
                                        c["imaging.shots"]),
        "transfer.enum.records": c["transfer.enum.records"],
        "transfer.enum.kept_ratio": _ratio(c["transfer.enum.branches"],
                                           c["transfer.enum.records"]),
        "transfer.network_mc.trials": c["transfer.network_mc.trials"],
        "cli.report_bytes": c["cli.report_bytes"],
        "trace.wall_s": wall_s,
        "trace.spans": len(spans),
    }
    for stem, names in SPAN_GROUPS.items():
        out[f"{stem}.s"] = sum(incl[n] for n in names)
        out[f"{stem}.calls"] = sum(calls[n] for n in names)
    for layer, own in layer_self.items():
        out[f"{layer}.self_s"] = own
    for stem, (kind, span_name, groups) in SCALING.items():
        for group in groups:
            picked = [i for i, it in enumerate(items)
                      if it.kind == kind and it.group == group]
            if span_name is None:
                vals = [seconds[i] for i in picked]
            else:
                vals = [incl_item[(span_name, i)] for i in picked]
            out[f"{stem}.{group}"] = sum(vals) / len(vals) if vals else 0.0
    return {name: out[name] for name, *_ in PER_LAYER if name in out}
