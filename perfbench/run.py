"""qtelarray benchmark: end-to-end and per-layer numbers for three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload codebook --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

Each run repeats passes over the workload's items until the next pass
would end after ``--seconds`` (at least three passes, or one of each kind
in a traced run). Every pass is a fresh interpreter, so the
package's caches start cold as they do for a CLI user, and each pass gives
one set-up sample: the time from process start until ``qtelarray.cli`` and
the layer modules are imported. Items run one after another in one process
(a closed loop with one client) on one thread: BLAS and OpenMP pools are
pinned to one thread, which keeps pass times steadier on a shared machine
than one thread per CPU.

With ``--trace 0`` the run reports the end-to-end metrics, from untraced
passes: set-up and peak memory as medians over passes, item latencies as
each item's median over passes. Times are scaled to a reference host speed
by a probe kernel the worker times between items; the unscaled values are
printed beside them (see ``end_to_end``). With ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (medians over traced passes), plus the tracing overhead
(traced minus untraced median pass wall time). Every item's output is
checked in both modes; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("codebook", "wide_array", "transfer")
MIN_PASSES = 3
MIN_TRACED_PASSES = 1
# No pass starts unless it can end by RUN_DEADLINE_S after the run began.
RUN_DEADLINE_S = 165.0
PASS_TIMEOUT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
THREADS = 1
SPANS_DIR = os.path.join(HERE, "out")


class BenchError(RuntimeError):
    """The benchmark could not run: no source tree, or a pass crashed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def run_pass(root, workload, seed, traced, timeout) -> dict:
    """One fresh-interpreter pass; adds ``setup_s`` to the worker's record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, f"spans-{workload}.json")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = rest.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = setup_s
    return record


def run_passes(root, workload, seed, seconds, trace) -> list:
    """Passes until the minimum counts are met and the next pass would end
    after ``seconds``; with ``trace`` they alternate untraced and traced, and
    the next pass's length is predicted from earlier passes of its kind."""
    start = time.perf_counter()
    passes = []
    durations = []
    while True:
        traced = trace and len(passes) % 2 == 1
        elapsed = time.perf_counter() - start
        plain = sum(not p["traced"] for p in passes)
        with_trace = len(passes) - plain
        enough = (plain >= MIN_TRACED_PASSES and with_trace >= MIN_TRACED_PASSES
                  if trace else plain >= MIN_PASSES)
        same_kind = [d for p, d in zip(passes, durations) if p["traced"] == traced]
        if enough and elapsed + statistics.mean(same_kind) > seconds:
            break
        if passes and elapsed + 1.5 * max(durations) > RUN_DEADLINE_S:
            break
        t0 = time.perf_counter()
        passes.append(run_pass(root, workload, seed, traced,
                               min(PASS_TIMEOUT_S, RUN_DEADLINE_S - elapsed)))
        durations.append(time.perf_counter() - t0)
    return passes


def end_to_end(passes, scaled=True) -> tuple:
    """End-to-end metric values and their sample counts.

    A shared VM can switch, for seconds to minutes at a time, between a
    fast mode and one where the same code runs 1.4 to 1.9 times slower, so
    with ``scaled`` every time is first divided by the host slowdown the
    worker's probe measured around it (see ``workloads.PROBE_REF_S``): times
    are reported at the probe's reference host speed. An item's latency is
    the median of its times over the run's untraced passes; ``wall_s`` is
    the sum of those latencies, one pass at that cost, and the percentiles
    run over items. Set-up is scaled by the pass's first probes
    (``workloads.SETUP_PROBES``).
    """
    plain = [p for p in passes if not p["traced"]]
    samples = {}
    for p in plain:
        for item_id, seconds, _ok, _err, _digest, slowdown in p["items"]:
            samples.setdefault(item_id, []).append(
                seconds / slowdown if scaled else seconds)
    item_s = [statistics.median(v) for v in samples.values()]
    cuts = statistics.quantiles([s * 1e3 for s in item_s], n=100,
                                method="exclusive")
    setup = [p["setup_s"] / p["setup_slowdown"] if scaled else p["setup_s"]
             for p in passes]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(item_s),
        "item_ms_p50": cuts[49],
        "item_ms_p90": cuts[89],
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
    }
    counts = {
        "setup_s": f"{len(passes)} interpreters",
        "wall_s": f"{len(item_s)} items x {len(plain)} passes",
        "item_ms_p50": f"{len(item_s)} items x {len(plain)} passes",
        "item_ms_p90": f"{len(item_s)} items x {len(plain)} passes",
        "peak_rss_mib": f"{len(plain)} passes",
    }
    return values, counts


def per_layer(passes) -> tuple:
    """Per-layer medians over traced passes, the tracing overhead, and the
    list of self-time violations (traced passes whose layer self times add
    up to more than their wall time)."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {}
    for name, *_ in metrics.PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(p["wall_s"] for p in traced)
                            - statistics.median(p["wall_s"] for p in plain))
        else:
            values[name] = statistics.median(p["layers"][name] for p in traced)
    bad = []
    for p in traced:
        total = sum(p["layers"][name] for name in metrics.SELF_TIMES)
        if total > p["wall_s"]:
            bad.append(f"layer self times {total:.6f} s exceed pass wall "
                       f"{p['wall_s']:.6f} s")
    return values, bad


def failures(passes) -> list:
    """One line per failed item: its id and what went wrong."""
    return [f"{item_id}: {err}" for p in passes
            for item_id, _s, ok, err, *_ in p["items"] if not ok]


def report_mismatches(passes) -> list:
    """CLI items whose report digest differs between passes of one run."""
    seen = {}
    bad = []
    for p in passes:
        for item_id, _s, _ok, _err, digest, *_ in p["items"]:
            if digest is None:
                continue
            if seen.setdefault(item_id, digest) != digest:
                bad.append(f"{item_id}: report differs between passes")
    return bad


def source_digest(root: str) -> str:
    """sha256 over the package source, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(root, seed, passes) -> dict:
    env = {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "seed": seed,
        "nproc": nproc(),
        "threads": {var: str(THREADS) for var in THREAD_VARS},
    }
    env.update(passes[0]["env"])
    return env


def run_workload(root, workload, seed, seconds, trace) -> dict:
    passes = run_passes(root, workload, seed, seconds, trace)
    attempted = sum(len(p["items"]) for p in passes)
    failed = failures(passes)
    problems = report_mismatches(passes)
    if trace:
        values, bad = per_layer(passes)
        problems += bad
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        counts = {name: f"{sum(p['traced'] for p in passes)} traced passes"
                  for name in values}
    else:
        values, counts = end_to_end(passes)
        raw, _ = end_to_end(passes, scaled=False)
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
        counts = {name: f"{counts[name]}, unscaled {raw[name]:.6g}"
                  for name in values}
    print(f"# env {json.dumps(environment(root, seed, passes), sort_keys=True)}")
    print(f"{workload} seed={seed} trace={int(trace)} passes={len(passes)}")
    for name, value in values.items():
        print(f"  {name:40s} {value:16.6f} {units[name]:6s} n={counts[name]}")
    print(f"  {'fail_share':40s} {len(failed) / attempted:16.6f} {'ratio':6s} "
          f"n={attempted} items ({len(failed)} failed)")
    for line in (failed + problems)[:20]:
        print(f"perfbench {workload}: {line}", file=sys.stderr)
    return {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="qtelarray benchmark (run from the repository root)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qtelarray", "cli.py")):
        print("perfbench: no src/qtelarray here; run from the repository root",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds,
                                         bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
