"""Command-line front end.

Four subcommands cover the pipeline end to end:

* ``encode``   -- binary-code write/read roundtrips with resource counts
* ``imaging``  -- Fourier-sampling vs pair-correlation image estimates
* ``transfer`` -- ancilla-interference fidelity and acceptance sweeps
* ``formulas`` -- network success formulas, optionally Monte Carlo checked

Every subcommand reads an optional ``key=value`` config file, applies
``--set key=value`` overrides, and writes a deterministic report whose
``#`` header records the tool version, the resolved config, and the seed.
Exit codes: 0 on success, 2 for malformed input or an ``--output`` path
that cannot be written, 3 when a built-in consistency check fails. The
library checks its own inputs and raises ``ConfigError`` naming the bad one,
through three rules in ``util``: ``count`` for integers (N, M, R, shots,
trials, seed, ...; ``N=2.5`` is refused, not rounded), ``real`` for float
scalars and ``array`` for numeric arrays. The runners check only the
CLI's own keys and reports, and :func:`main` alone turns an error into
exit 2. ``transfer`` and its ``qcore.optics`` are imported by the
two runners that use them, so ``encode`` and ``imaging`` never load them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import __version__
from .codec import RunConfig, encode_single_photon, parallel_frequency_compress
from .imaging import (
    classical_pipeline,
    qft_image_diagonal,
    qft_process,
    sample_qft,
)
from .netdecode import decode_arrival
from .source import (
    ArrayGeometry,
    IntensityDistribution,
    native_grid,
    visibility_from_intensity,
)
from .util import ConfigError, count, make_rng, parse_key_value

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECK = 3


def _format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.12g" % float(x)
    return str(x)


def _render_header(config, notes=()) -> list:
    """The ``#`` lines every report opens with: version, config, seed, notes."""
    cfg = " ".join(f"{k}={_format_value(v)}" for k, v in sorted(config.items()))
    lines = [f"# qtelarray {__version__}", f"# config: {cfg}",
             f"# seed: {config.get('seed', 0)}"]
    return lines + [f"# {note}" for note in notes]


def _render_table(headers, rows, config, notes=()) -> str:
    lines = _render_header(config, notes)
    lines.append(",".join(headers))
    for row in rows:
        lines.append(",".join(_format_value(x) for x in row))
    return "\n".join(lines) + "\n"


def _coerce(key: str, raw, default):
    if not isinstance(raw, str):
        return raw
    try:
        if isinstance(default, int) and not isinstance(default, bool):
            # int() keeps every digit; float() only reads forms like 1e6
            try:
                return int(raw)
            except ValueError:
                val = float(raw)
            if val != int(val):
                raise ValueError("not an integer")
            return int(val)
        if isinstance(default, float):
            return float(raw)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    return raw


def resolve_config(defaults: dict, path, sets) -> dict:
    """Merge defaults, an optional config file, and --set overrides."""
    merged = dict(defaults)
    layers = []
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        layers.append(parse_key_value(text))
    if sets:
        layers.append(parse_key_value("\n".join(sets)))
    for layer in layers:
        for key, raw in layer.items():
            if key not in defaults:
                known = ", ".join(sorted(defaults))
                raise ConfigError(f"unknown config key {key!r} (known: {known})")
            merged[key] = _coerce(key, raw, defaults[key])
    count(merged["seed"], "seed")
    return merged


# ---- encode ---------------------------------------------------------------------


ENCODE_DEFAULTS = dataclasses.asdict(RunConfig())
# one report row per codeword: a 2**20-row report is tens of MiB
ENCODE_ROUNDTRIPS_MAX = 2 ** 20


def run_encode(config: dict):
    run_config = RunConfig(**config)
    M, R = run_config.M, run_config.R
    if M * R > ENCODE_ROUNDTRIPS_MAX:
        raise ConfigError(
            f"M * R = {M} * {R} round trips exceeds ENCODE_ROUNDTRIPS_MAX "
            f"= {ENCODE_ROUNDTRIPS_MAX}"
        )
    rows = []
    ok = True
    checks_seen = set()
    ledger = None
    for m in range(1, M + 1):
        for r in range(1, R + 1):
            run = encode_single_photon(run_config, m, r)
            if run_config.layout == "parallel":
                run = parallel_frequency_compress(run)
            result = decode_arrival(run)
            good = result.m == m and result.r == r
            ok = ok and good
            checks_seen.add(result.checks)
            ledger = run.ledger
            rows.append((m, r, result.m, result.r, result.checks, int(good)))
    notes = [
        f"memory_qubits_per_site: {ledger.as_dict()['memory_qubits_per_site']}",
        f"ancilla_qubits: {ledger.as_dict()['ancilla_qubits']}",
        f"parity_checks_per_decode: {sorted(checks_seen)}",
        f"roundtrips: {len(rows)}",
    ]
    text = _render_table(
        ("m", "r", "decoded_m", "decoded_r", "checks", "ok"),
        rows, config, notes,
    )
    return text, ok


# ---- imaging --------------------------------------------------------------------


IMAGING_DEFAULTS = {
    "N": 4, "d": 1.0, "source": "flat", "shots": 100000,
    "sampler": "w_state", "quadratures": "auto", "seed": 0,
}


def _parse_source(text: str, N: int, d: float) -> IntensityDistribution:
    text = str(text).strip()
    if text == "flat":
        return IntensityDistribution.flat_on_grid(N, d)
    if text.startswith("point:"):
        try:
            j = int(text[len("point:"):])
        except ValueError:
            raise ConfigError(f"bad point source {text!r}") from None
        return IntensityDistribution.point_on_grid(N, d, j)
    try:
        weights = np.array([float(w) for w in text.split(",")])
    except ValueError:
        raise ConfigError(f"bad source value {text!r}") from None
    return IntensityDistribution.on_grid(N, d, weights, normalize=True)


def run_imaging(config: dict):
    N, d = config["N"], config["d"]
    dist = _parse_source(config["source"], N, d)
    vis = visibility_from_intensity(dist, ArrayGeometry(N, d))
    closed = qft_image_diagonal(vis)
    conjugated = np.diag(qft_process(vis)).real
    route_gap = float(np.max(np.abs(closed - conjugated)))
    ok = route_gap <= 1e-10
    qft_est = sample_qft(vis, config["shots"], rng=make_rng(config["seed"]))
    cls_est = classical_pipeline(
        vis, config["shots"], rng=make_rng(config["seed"] + 1),
        sampler=config["sampler"], quadratures=config["quadratures"],
    )
    grid = native_grid(N, d)
    rows = []
    for j in range(N):
        rows.append((
            j, grid[j], closed[j],
            qft_est.i_hat[j], qft_est.var[j],
            cls_est.i_hat[j], cls_est.var[j],
        ))
    notes = [
        f"route_gap: {route_gap:.3e}",
        f"quadratures: {cls_est.extra['quadratures']}",
        f"successes: {cls_est.extra['successes']}",
    ]
    text = _render_table(
        ("j", "y_j", "I_true", "I_hat_qft", "var_qft",
         "I_hat_classical", "var_classical"),
        rows, config, notes,
    )
    return text, ok


# ---- transfer ---------------------------------------------------------------------


TRANSFER_DEFAULTS = {
    "mode": "sweep",
    "alpha_min": 0.0, "alpha_max": 2.0, "alpha_step": 0.05,
    "eta_min": 0.1, "eta_max": 1.0, "eta_step": 0.1,
    "seed": 0,
}


def run_transfer(config: dict):
    from . import transfer as _transfer
    mode = config["mode"]
    if mode == "sweep":
        alphas = _transfer.value_grid(config["alpha_min"], config["alpha_max"],
                                      config["alpha_step"], "alpha")
        rows = []
        for alpha in alphas:
            f_det = _transfer.deterministic_fidelity_closed(float(alpha))
            p_her = _transfer.heralded_rate_closed(float(alpha))
            rows.append((alpha, f_det, p_her, 1.0 if p_her > 0 else 0.0))
        spot = _transfer.deterministic_transfer(0.8, cutoff=10)
        spot_her = _transfer.heralded_transfer(0.8, cutoff=10)
        gap = max(
            abs(spot.fidelity - _transfer.deterministic_fidelity_closed(0.8)),
            abs(spot_her.probability - _transfer.heralded_rate_closed(0.8)),
        )
        ok = gap <= 1e-6
        notes = [f"route_gap_at_0.8: {gap:.3e}"]
        text = _render_table(
            ("alpha", "f_deterministic", "p_heralded", "f_heralded"),
            rows, config, notes,
        )
        return text, ok
    if mode == "lossy":
        etas = _transfer.value_grid(config["eta_min"], config["eta_max"],
                                    config["eta_step"], "eta")
        outs = [_transfer.lossy_transfer(float(e)) for e in etas]
        rows = [(e, o.fidelity, o.probability) for e, o in zip(etas, outs)]
        f = np.array([o.fidelity for o in outs])
        p = np.array([o.probability for o in outs])
        ok = bool(np.all(np.diff(f) >= -1e-12) and np.all(np.diff(p) >= -1e-12))
        if etas[-1] == 1.0:
            ok = ok and abs(f[-1] - 1.0) <= 1e-10 and abs(p[-1] - 0.5) <= 1e-10
        notes = ["monotone: " + ("yes" if ok else "no")]
        text = _render_table(("eta", "f", "p"), rows, config, notes)
        return text, ok
    raise ConfigError(f"unknown transfer mode {mode!r} (sweep or lossy)")


# ---- formulas ---------------------------------------------------------------------


FORMULAS_DEFAULTS = {
    "N": 8, "p1": 0.469041575982343, "f2": 1.0, "trials": 0, "seed": 0,
}


def run_formulas(config: dict):
    from . import transfer as _transfer
    N, p1, f2 = config["N"], config["p1"], config["f2"]
    count(config["trials"], "trials")
    p_fail = _transfer.network_failure_probability(N, p1)
    dist = _transfer.network_pair_distribution(N, p1)
    fid = _transfer.network_fidelity(N, f2)
    lines = _render_header(config)
    lines.append("p_fail = %.12g" % p_fail)
    lines.append("fidelity = %.12g" % fid)
    for k in sorted(dist):
        lines.append("p_pair_%d = %.12g" % (k, dist[k]))
    ok = True
    if config["trials"] > 0:
        mc = _transfer.network_monte_carlo(
            N, p1, config["trials"], rng=make_rng(config["seed"])
        )
        se = float(np.sqrt(p_fail * (1.0 - p_fail) / mc["trials"]))
        z = abs(mc["p_fail"] - p_fail) / se if se > 0 else 0.0
        ok = z <= 3.0
        lines.append("mc_p_fail = %.12g" % mc["p_fail"])
        lines.append("mc_z = %.12g" % z)
    return "\n".join(lines) + "\n", ok


# ---- entry point ------------------------------------------------------------------


_COMMANDS = {
    "encode": (ENCODE_DEFAULTS, run_encode,
               "write/read roundtrips over every codeword"),
    "imaging": (IMAGING_DEFAULTS, run_imaging,
                "Fourier-sampling vs pair-correlation imaging"),
    "transfer": (TRANSFER_DEFAULTS, run_transfer,
                 "ancilla-interference fidelity sweeps"),
    "formulas": (FORMULAS_DEFAULTS, run_formulas,
                 "network success formulas with optional Monte Carlo"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtelarray",
        description="memory-assisted telescope-array pipeline tools",
    )
    parser.add_argument("--version", action="version",
                        version=f"qtelarray {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_defaults, _runner, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None,
                       help="key=value config file")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="overrides",
                       help="override one config key (repeatable)")
        p.add_argument("--output", default=None,
                       help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    defaults, runner, _ = _COMMANDS[args.command]
    try:
        config = resolve_config(defaults, args.config, args.overrides)
        text, ok = runner(config)
    except (ConfigError, MemoryError) as exc:
        print(f"qtelarray {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"qtelarray {args.command}: cannot write {args.output!r}: "
                  f"{exc.strerror}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    if not ok:
        print(f"qtelarray {args.command}: consistency check failed",
              file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
