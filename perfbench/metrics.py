"""Metric definitions, with the end-to-end metric and workload each layer
metric is expected to move.

``BENCHMARK.json`` at the repository root lists the same names, units and
directions; it has no room for the ``moves`` column, which lives here.
"""

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("item_ms_p50", "ms", "lower", 0.25),
    ("item_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

_SUPPORT = "wall_s, item_ms_p50 -> codebook"
_TO_VECTOR = "item_ms_p90, wall_s -> wide_array"
_QCORE_OPTICS = "wall_s -> transfer"
_SOURCE = "item_ms_p90, peak_rss_mib -> wide_array"
_CODEC = "item_ms_p50 -> codebook; wall_s -> wide_array"
_DECODE = "wall_s -> codebook, wide_array"
_READOUT = "wall_s -> wide_array"
_IMAGING = "item_ms_p50, item_ms_p90, wall_s -> wide_array"
_ENUM = "wall_s, item_ms_p90 -> transfer"
_CLOSED = "wall_s, item_ms_p50 -> transfer"
_MC = "peak_rss_mib, wall_s -> transfer"
_CLI = "wall_s on the owning workload; expected flat"
_SELF = "none; the layer self times sum to at most trace.wall_s"
_NONE = "none"

PER_LAYER = (
    # name, unit, better, moves
    ("qcore.support.calls", "count", "lower", _SUPPORT),
    ("qcore.support.self_s", "s", "lower", _SUPPORT),
    ("qcore.support.to_vector.calls", "count", "lower", _TO_VECTOR),
    ("qcore.support.to_vector.bytes", "B", "lower", _TO_VECTOR),
    ("qcore.support.to_vector.s", "s", "lower", _TO_VECTOR),
    ("qcore.optics.lo_matrix.calls", "count", "lower", _QCORE_OPTICS),
    ("qcore.optics.lo_matrix.s", "s", "lower", _QCORE_OPTICS),
    ("qcore.optics.apply.s", "s", "lower", _QCORE_OPTICS),
    ("qcore.gates.enumerate_measure.s", "s", "lower", _QCORE_OPTICS),
    ("qcore.gates.enumerate_measure.branches", "count", "lower", _QCORE_OPTICS),
    ("source.visibility.s", "s", "lower", _SOURCE),
    ("source.visibility.exp_evals", "count", "lower", _SOURCE),
    ("codec.write.calls", "count", "lower", _CODEC),
    ("codec.write.s", "s", "lower", _CODEC),
    ("codec.compress.s", "s", "lower", _CODEC),
    ("codec.support_size.mean", "count", "lower", _CODEC),
    ("netdecode.decode.s", "s", "lower", _DECODE),
    ("netdecode.ghz_checks", "count", "lower", _DECODE),
    ("netdecode.w_readout.s", "s", "lower", _READOUT),
    ("netdecode.w_attempts", "count", "lower", _READOUT),
    ("netdecode.w_success_ratio", "ratio", "higher", _READOUT),
    ("imaging.qft.s", "s", "lower", _IMAGING),
    ("imaging.sample_qft.s", "s", "lower", _IMAGING),
    ("imaging.classical.s", "s", "lower", _IMAGING),
    ("imaging.shots", "count", "higher", _IMAGING),
    ("imaging.success_ratio", "ratio", "higher", _IMAGING),
    ("transfer.table.s", "s", "lower", _ENUM),
    ("transfer.enum.s", "s", "lower", _ENUM),
    ("transfer.enum.records", "count", "lower", _ENUM),
    ("transfer.enum.kept_ratio", "ratio", "higher", _ENUM),
    ("transfer.closed.calls", "count", "lower", _CLOSED),
    ("transfer.closed.s", "s", "lower", _CLOSED),
    ("transfer.lossy.s", "s", "lower", _CLOSED),
    ("transfer.network_mc.s", "s", "lower", _MC),
    ("transfer.network_mc.trials", "count", "higher", _MC),
    ("cli.encode.s", "s", "lower", _CLI),
    ("cli.imaging.s", "s", "lower", _CLI),
    ("cli.transfer.s", "s", "lower", _CLI),
    ("cli.formulas.s", "s", "lower", _CLI),
    ("cli.self_s", "s", "lower", _CLI),
    ("cli.report_bytes", "B", "lower", _CLI),
    ("qcore.self_s", "s", "lower", _SELF),
    ("source.self_s", "s", "lower", _SELF),
    ("codec.self_s", "s", "lower", _SELF),
    ("netdecode.self_s", "s", "lower", _SELF),
    ("imaging.self_s", "s", "lower", _SELF),
    ("transfer.self_s", "s", "lower", _SELF),
    ("bench.self_s", "s", "lower", _SELF),
    ("imaging.frame_s.N32", "s", "lower", _IMAGING),
    ("imaging.frame_s.N64", "s", "lower", _IMAGING),
    ("imaging.frame_s.N128", "s", "lower", _IMAGING),
    ("imaging.frame_s.N256", "s", "lower", _IMAGING),
    ("netdecode.decode_s.N8", "s", "lower", _DECODE),
    ("netdecode.decode_s.N12", "s", "lower", _DECODE),
    ("netdecode.decode_s.N16", "s", "lower", _DECODE),
    ("netdecode.decode_s.N18", "s", "lower", _DECODE),
    ("netdecode.decode_s.N20", "s", "lower", _DECODE),
    ("transfer.enum_s.c10", "s", "lower", _ENUM),
    ("transfer.enum_s.c12", "s", "lower", _ENUM),
    ("transfer.enum_s.c16", "s", "lower", _ENUM),
    ("transfer.enum_s.sites3", "s", "lower", _ENUM),
    ("trace.wall_s", "s", "lower", _NONE),
    ("trace.spans", "count", "lower", _NONE),
    ("trace.overhead_s", "s", "lower", _NONE),
)

# Layer self times; together they may not exceed the traced pass wall time.
SELF_TIMES = tuple(name for name, *_ in PER_LAYER
                   if name.endswith(".self_s") and name.count(".") == 1)
