"""Benchmark workloads: ordered lists of items built from a seed.

An item is one user-level call into qtelarray (a codeword roundtrip, an
imaging frame, a decoded arrival, a transfer evaluation or a CLI
subcommand run) together with the expected value its output is checked
against. Expected values come from deterministic counterparts computed
without the code under test where possible (the Fejer identity, stored
amplitudes, pinned report digests), so a check never calls the layer it
checks during the timed pass.

Items look library functions up through their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

from qtelarray import cli, codec, imaging, netdecode, source, transfer

WORKLOADS = ("codebook", "wide_array", "transfer")

# Golden report digests are pinned for these CLI seeds; a benchmark seed s
# runs the CLI items with seed s % CLI_SEEDS.
CLI_SEEDS = 8
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

CLI_ITEMS = {
    "codebook": (
        ("encode", "M=16", "R=4", "layout=parallel"),
    ),
    "wide_array": (
        ("imaging", "N=128", "shots=200000"),
    ),
    "transfer": (
        ("transfer",),
        ("transfer", "mode=lossy", "eta_step=0.01"),
        ("formulas", "N=64", "trials=1000000"),
    ),
}

IMAGING_SHOTS = 200_000
# Scenes per array size. With the five arrivals and the CLI item these 19
# items put the p50 item on the second-fastest N=64 frame and the p90 item on
# the faster N=256 frame, inside blocks of similar items rather than on the
# edge between two sizes, so both percentiles stay steady from run to run.
FRAME_SCENES = {32: 3, 64: 4, 128: 4, 256: 2}
ARRIVAL_SITES = (8, 12, 16, 18, 20)
FRAME_TOL = 1e-10
G_HAT_TOL = 1e-9
# Sampled images must sit within this many reported standard deviations of
# the closed form; seeded trials up to N=128 peak near 4.3.
SAMPLED_Z = 8.0
TRANSFER_TOL = 1e-6
MASS_TOL = 1e-9
FIDELITY_TOL = 1e-10

# Host speed probe. A shared VM can switch, for seconds to minutes at a
# time, between a fast mode and one where the same code runs slower (1.4 to
# 1.9 times on a 2-vCPU x86-64 VM). A fixed kernel timed between items (at
# most every PROBE_EVERY_S of item time, fastest of PROBE_REPEATS runs)
# tracks that mode; an item's slowdown is the mean of the probes just before
# and just after it, divided by PROBE_REF_S, the probe's time in the fast mode
# of a 2-vCPU x86-64 VM (CPython 3.11, numpy 2.4).
PROBE_EVERY_S = 0.02
PROBE_REPEATS = 3
PROBE_REF_S = 0.26e-3
_PROBE_ARRAY = np.arange(20_000, dtype=np.float64)
# Set-up is scaled by the median of the pass's first SETUP_PROBES probes.
SETUP_PROBES = 5


class CheckFailed(AssertionError):
    """An item's output disagrees with its expected value."""


@dataclass
class Item:
    """One user-level call: ``run()`` gives the output, ``check`` judges it."""

    id: str
    kind: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], None]
    expect: Any


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def cli_argv(spec, cli_seed: int) -> list:
    sub, *sets = spec
    argv = [sub]
    for kv in sets + [f"seed={cli_seed}"]:
        argv += ["--set", kv]
    return argv


def cli_key(argv) -> str:
    return " ".join(argv)


def run_cli(argv):
    """Run one CLI subcommand in process; returns (exit code, report text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---- item factories ----------------------------------------------------------


def _check_cli(out, expect):
    code, text = out
    _require(code == 0, f"exit code {code}")
    _require(expect is not None, "no golden digest for this config and seed")
    _require(report_digest(text) == expect, "report digest mismatch")


def _cli_item(spec, cli_seed, golden, span, counters):
    argv = cli_argv(spec, cli_seed)
    sub = argv[0]

    def run():
        with span(f"cli.{sub}"):
            code, text = run_cli(argv)
        counters("cli.report_bytes", len(text.encode("utf-8")))
        return code, text

    return Item(id=cli_key(argv), kind="cli", group=sub, run=run,
                check=_check_cli, expect=golden.get(cli_key(argv)))


def _check_arrival(out, expect):
    res, w, corr, phases = out
    m, r = expect
    _require((res.m, res.r) == (m, r),
             f"decoded ({res.m}, {res.r}), wrote ({m}, {r})")
    a, b = w.pair
    want = np.exp(1j * (phases[a] - phases[b]))
    _require(abs(corr["g_hat"] - want) <= G_HAT_TOL,
             f"g_hat off by {abs(corr['g_hat'] - want):.3e}")


def _roundtrip_item(cfg, m, r, amps):
    def run():
        run_ = codec.encode_single_photon(cfg, m, r, amps=amps)
        if cfg.layout == "parallel":
            run_ = codec.parallel_frequency_compress(run_)
        return netdecode.decode_arrival(run_)

    def check(res, expect):
        _require((res.m, res.r) == tuple(expect),
                 f"decoded ({res.m}, {res.r}), wrote {tuple(expect)}")

    return Item(id=f"{cfg.layout}/m{m}r{r}", kind="roundtrip",
                group=cfg.layout, run=run, check=check, expect=(m, r))


def _arrival_item(N, m, r, phases, cfg_seed, readout_seed):
    cfg = codec.RunConfig(M=4, R=2, N=N, layout="sequential", seed=cfg_seed)
    amps = np.exp(1j * phases) / np.sqrt(N)

    def run():
        run_ = codec.encode_single_photon(cfg, m, r, amps=amps)
        res = netdecode.decode_arrival(run_)
        w = netdecode.w_state_readout(res.state, rng=readout_seed)
        corr = netdecode.pair_correlators(w.density)
        return res, w, corr, phases

    return Item(id=f"arrival/N{N}", kind="arrival", group=f"N{N}",
                run=run, check=_check_arrival, expect=(m, r))


def _check_frame(out, expect):
    closed, conjugated, qft_est, cls_est = out
    gap = float(np.max(np.abs(closed - conjugated)))
    _require(gap <= FRAME_TOL, f"QFT routes differ by {gap:.3e}")
    fejer = float(np.max(np.abs(closed - expect)))
    _require(fejer <= FRAME_TOL, f"closed form off the scene by {fejer:.3e}")
    shots = qft_est.shots
    _require(int(qft_est.extra["counts"].sum()) == shots, "QFT counts lost")
    p = np.clip(expect, 0.0, 1.0)
    sd = np.sqrt(p * (1.0 - p) / shots)
    z = np.abs(qft_est.i_hat - p) - 1e-9
    _require(bool(np.all(z <= SAMPLED_Z * sd)), "QFT sample off the closed form")
    _require(bool(np.all(np.isfinite(cls_est.i_hat))), "classical image not finite")
    _require(abs(cls_est.i_hat.sum() - 1.0) <= 1e-9, "classical image mass")
    _require(0 < cls_est.extra["successes"] <= shots, "classical successes")
    off = float(np.max(np.abs(cls_est.i_hat - p)))
    _require(off <= SAMPLED_Z * float(np.sqrt(cls_est.var[0])),
             "classical sample off the closed form")


def _frame_item(N, k, weights, qft_seed, cls_seed):
    def run():
        dist = source.IntensityDistribution.on_grid(N, 1.0, weights,
                                                    normalize=True)
        vis = source.visibility_from_intensity(dist, source.ArrayGeometry(N, 1.0))
        closed = imaging.qft_image_diagonal(vis)
        conjugated = np.diag(imaging.qft_process(vis)).real
        qft_est = imaging.sample_qft(vis, IMAGING_SHOTS, rng=qft_seed)
        cls_est = imaging.classical_pipeline(vis, IMAGING_SHOTS, rng=cls_seed)
        return closed, conjugated, qft_est, cls_est

    # on the native grid the closed form reproduces the scene exactly
    return Item(id=f"frame/N{N}/{k}", kind="frame", group=f"N{N}", run=run,
                check=_check_frame, expect=weights / weights.sum())


def _check_heralded(out, expect):
    gap = abs(out.probability - expect)
    _require(gap <= TRANSFER_TOL, f"enumeration off the closed form by {gap:.3e}")
    _require(abs(out.fidelity - 1.0) <= FIDELITY_TOL, "accepted fidelity below 1")


def _heralded_item(cutoff, alpha, amps, closed_rate):
    def run():
        return transfer.heralded_transfer(alpha, amps=amps, cutoff=cutoff)

    return Item(id=f"heralded/c{cutoff}/a{alpha}", kind="enum",
                group=f"c{cutoff}", run=run, check=_check_heralded,
                expect=closed_rate)


def _check_sites(out, expect):
    _require(abs(out.mass - 1.0) <= MASS_TOL, f"branch mass {out.mass!r}")
    _require(out.probability > 0, "no accepted branch")
    _require(abs(out.fidelity - 1.0) <= FIDELITY_TOL,
             f"accepted fidelity {out.fidelity!r}")


def _sites_item(item_id, kind, group, make):
    return Item(id=item_id, kind=kind, group=group, run=make,
                check=_check_sites, expect=None)


# ---- workloads -----------------------------------------------------------------


def _codebook(rng, cli_seed, golden, span, counters):
    items = []
    for layout in ("parallel", "sequential"):
        cfg = codec.RunConfig(M=64, R=8, N=2, layout=layout,
                              seed=int(rng.integers(2 ** 31)))
        for m in range(1, cfg.M + 1):
            for r in range(1, cfg.R + 1):
                amps = np.exp(1j * rng.uniform(0, 2 * np.pi, 2)) / np.sqrt(2)
                items.append(_roundtrip_item(cfg, m, r, amps))
    for spec in CLI_ITEMS["codebook"]:
        items.append(_cli_item(spec, cli_seed, golden, span, counters))
    return items


def _scene(rng, N, k):
    """Even scenes are dense random weights, odd ones three point sources."""
    if k % 2 == 0:
        return rng.uniform(0.05, 1.0, N)
    weights = np.zeros(N)
    weights[rng.choice(N, 3, replace=False)] = rng.uniform(0.2, 1.0, 3)
    return weights


def _wide_array(rng, cli_seed, golden, span, counters):
    items = []
    for N, scenes in FRAME_SCENES.items():
        for k in range(scenes):
            items.append(_frame_item(N, k, _scene(rng, N, k),
                                     int(rng.integers(2 ** 31)),
                                     int(rng.integers(2 ** 31))))
    for N in ARRIVAL_SITES:
        m, r = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        items.append(_arrival_item(N, m, r, rng.uniform(0, 2 * np.pi, N),
                                   int(rng.integers(2 ** 31)),
                                   int(rng.integers(2 ** 31))))
    for spec in CLI_ITEMS["wide_array"]:
        items.append(_cli_item(spec, cli_seed, golden, span, counters))
    return items


def _site_amps(rng, n):
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return amps / np.linalg.norm(amps)


def _transfer(rng, cli_seed, golden, span, counters):
    items = []
    for cutoff in (10, 12, 16):
        for alpha in (0.5, 0.88, 1.2):
            items.append(_heralded_item(
                cutoff, alpha, _site_amps(rng, 2),
                transfer.heralded_rate_closed(alpha),
            ))
    amps3 = _site_amps(rng, 3)
    items.append(_sites_item(
        "heralded/sites3/c5", "enum", "sites3",
        lambda: transfer.heralded_transfer(0.88, amps=amps3, cutoff=5),
    ))
    amps_mp = _site_amps(rng, 3)
    items.append(_sites_item(
        "heralded/sites3/multiport2", "multiport", "sites3",
        lambda: transfer.heralded_transfer(
            table=transfer.multiport_amplitude_table(2), amps=amps_mp),
    ))
    for spec in CLI_ITEMS["transfer"]:
        items.append(_cli_item(spec, cli_seed, golden, span, counters))
    return items


_BUILDERS = {
    "codebook": _codebook,
    "wide_array": _wide_array,
    "transfer": _transfer,
}


def build(workload: str, seed: int,
          span=lambda name: contextlib.nullcontext(),
          counters=lambda name, value: None) -> list:
    """The workload's items for ``seed``, in their fixed order.

    ``span(name)`` gives a context manager around each CLI call and
    ``counters(name, value)`` records work counts; both default to no-ops.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (one of {WORKLOADS})")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, seed % CLI_SEEDS, load_golden(), span,
                               counters)


def probe_s() -> float:
    """Fastest of PROBE_REPEATS runs of a fixed pure-Python and numpy kernel
    that no qtelarray code touches."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        np.sort(_PROBE_ARRAY[::-1].copy())
        best = min(best, perf_counter() - t0)
    return best


def slowdowns(spans, probes) -> list:
    """Each item's host slowdown: the mean of the probe before and the probe
    after its (start, end) span, over PROBE_REF_S. ``probes`` are
    (start, end, seconds) in run order, one before the first item and one
    after the last."""
    out = []
    k = 0
    for start, end in spans:
        while k + 1 < len(probes) and probes[k + 1][1] <= start:
            k += 1
        after = k
        while probes[after][0] < end:
            after += 1
        out.append((probes[k][2] + probes[after][2]) / 2 / PROBE_REF_S)
    return out


def run_item(item: Item):
    """Run and check one item: (seconds, ok, error text or None, output).

    A raising item is a failed item, not a failed pass, so every exception
    is caught here and reported with its type.
    """
    t0 = perf_counter()
    try:
        out = item.run()
    except Exception as exc:  # noqa: BLE001 - counted as a failed item
        return perf_counter() - t0, False, f"{type(exc).__name__}: {exc}", None
    seconds = perf_counter() - t0
    try:
        item.check(out, item.expect)
    except Exception as exc:  # noqa: BLE001 - counted as a failed item
        return seconds, False, f"{type(exc).__name__}: {exc}", out
    return seconds, True, None, out


def environment() -> dict:
    """Interpreter and library versions the pass ran with."""
    import scipy

    import qtelarray

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qtelarray": qtelarray.__version__,
        "qtelarray_path": os.path.dirname(os.path.abspath(qtelarray.__file__)),
    }


def run_pass(workload: str, seed: int, trace: bool, spans_path=None) -> dict:
    """Build the items, then run and check each once, in order.

    With ``trace`` the layer boundaries are wrapped for the pass only, the
    record gains the pass's per-layer metrics, and the spans are written to
    ``spans_path`` when one is given.
    """
    tracer = None
    build_kwargs = {}
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        build_kwargs = {"span": tracer.span, "counters": tracer.add}
    items = build(workload, seed, **build_kwargs)
    undo = tracing.install(tracer) if trace else None
    records = []
    probes = []
    spans = []

    def probe():
        start = perf_counter()
        seconds = probe_s()
        probes.append((start, perf_counter(), seconds))

    try:
        t0 = perf_counter()
        for index, item in enumerate(items):
            if not probes or perf_counter() - probes[-1][1] >= PROBE_EVERY_S:
                probe()
            start = perf_counter()
            if tracer is None:
                seconds, ok, err, out = run_item(item)
            else:
                tracer.item = index
                with tracer.span("bench.item"):
                    seconds, ok, err, out = run_item(item)
            spans.append((start, perf_counter()))
            cli_report = out is not None and item.kind == "cli"
            digest = report_digest(out[1]) if cli_report else None
            records.append([item.id, seconds, ok, err, digest])
        probe()
        wall_s = perf_counter() - t0
    finally:
        if undo is not None:
            undo()
    for record, slowdown in zip(records, slowdowns(spans, probes)):
        record.append(slowdown)
    result = {
        "workload": workload,
        "seed": seed,
        "traced": bool(trace),
        "wall_s": wall_s,
        "items": records,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_slowdown": float(np.median([p[2] for p in probes[:SETUP_PROBES]]))
                          / PROBE_REF_S,
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer, items, [r[1] for r in records], wall_s
        )
        if spans_path:
            tracer.dump(spans_path, [it.id for it in items])
    return result
