"""One array rule at every call site that takes a numeric array.

Each site refuses a value that is not an array of numbers of its kind (a
string, a dict, None, ragged nesting, complex values where it takes reals),
one with a NaN or an infinity, and one of the wrong shape, with a
ConfigError that names the input, what it got and the rule it broke, in one
short line even for a million-element input; a refusal leaves a given
generator untouched. Lists, tuples and int, float32, float64 and complex
arrays of the same values give what a plain ``np.asarray`` of them gives.
"""

import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from qtelarray.codec import RunConfig, encode_bin, encode_run_full, new_run
from qtelarray.imaging import image_from_visibilities, qft_process
from qtelarray.netdecode import (
    pair_correlators,
    sample_pair_products,
    w_state_readout,
)
from qtelarray.qcore import coherent_amplitudes, linear_optics_matrix
from qtelarray.source import (
    ArrayGeometry,
    IntensityDistribution,
    VisibilityModel,
    coherence_matrix,
    visibility_function,
)
from qtelarray.transfer import (
    AmplitudeTable,
    deterministic_fidelity_closed,
    multiport_amplitude_table,
    transfer_branches,
)
from qtelarray.util import ConfigError, array, unit_amplitudes

from test_count_rule import _plain, _rng


class Site(NamedTuple):
    call: Callable  # (value, rng) -> result
    name: str
    kind: str  # "real" or "complex"
    wrong: object  # a value of the wrong shape
    shape_message: str  # what the wrong shape is told
    good: list | int  # integer values, so every dtype holds them exactly


CFG = RunConfig(M=3, R=1, N=2)
CFG_EPS = RunConfig(M=2, R=1, N=2, eps=0.25)
DIST = IntensityDistribution([0.0, 0.25], [0.5, 0.5])
TABLE = multiport_amplitude_table(1)
RHO = [[1, 0], [0, 0]]
SQUARE = "must have shape (any, any), got (2,)"

SITES = {
    "encode_bin photon amplitudes": Site(
        lambda v, rng: encode_bin(new_run(CFG), 1, (1, v)),
        "photon amplitudes", "complex", [1, 1, 1],
        "photon amplitudes must have shape (2,), got (3,)", [1, 1]),
    "encode_run_full band g": Site(
        lambda v, rng: encode_run_full(CFG_EPS, band_g=[v]),
        "band g", "complex", [1, 0, 0], "g must have shape (2, 2), got (3,)",
        [[1, 0], [0, 1]]),
    "ArrayGeometry positions": Site(
        lambda v, rng: ArrayGeometry(positions=v), "positions", "real",
        [[0, 1], [2, 3]], "positions must have shape (any,), got (2, 2)",
        [0, 1, 3]),
    "IntensityDistribution y": Site(
        lambda v, rng: IntensityDistribution(v, [0, 1]), "sample positions",
        "real", [[0, 2]], "sample positions must have shape (any,), got (1, 2)",
        [0, 2]),
    "IntensityDistribution weights": Site(
        lambda v, rng: IntensityDistribution([0, 2], v), "intensities",
        "real", [[0, 1]], "intensities must have shape (any,), got (1, 2)",
        [0, 1]),
    "on_grid weights": Site(
        lambda v, rng: IntensityDistribution.on_grid(2, 1.0, v),
        "intensities", "real", [[0, 1]],
        "intensities must have shape (any,), got (1, 2)", [0, 1]),
    "coherence_matrix g": Site(
        lambda v, rng: coherence_matrix(v, 2), "g", "complex", [1, 0],
        "g must have shape (2, 2), got (2,)", [[1, 0], [0, 1]]),
    "VisibilityModel g": Site(
        lambda v, rng: VisibilityModel(ArrayGeometry(2, 1.0), v), "g",
        "complex", [1, 0], "g must have shape (2, 2), got (2,)",
        [[1, 0], [0, 1]]),
    "visibility_function x": Site(
        lambda v, rng: visibility_function(DIST, v), "baselines x", "real",
        None, "", [0, 1, 2]),
    "w_state_readout rho": Site(
        lambda v, rng: w_state_readout(v, rng), "which-site density",
        "complex", [1, 0], f"which-site density {SQUARE}", RHO),
    "pair_correlators density": Site(
        lambda v, rng: pair_correlators(v), "pair density", "complex",
        [[1]], "pair density must have shape (2, 2), got (1, 1)", RHO),
    "sample_pair_products density": Site(
        lambda v, rng: sample_pair_products(v, "XX", 10, rng),
        "pair density", "complex", [[1]],
        "pair density must have shape (2, 2), got (1, 1)", RHO),
    "image_from_visibilities gk": Site(
        lambda v, rng: image_from_visibilities(v, 4), "baseline visibilities",
        "complex", [1, 0], "baseline visibilities must have shape (3,), "
        "got (2,)", [1, 0, 0]),
    "qft_process density": Site(
        lambda v, rng: qft_process(v), "which-site density", "complex",
        [1, 0], f"which-site density {SQUARE}", RHO),
    "transfer_branches amps": Site(
        lambda v, rng: transfer_branches(TABLE, v), "site amplitudes",
        "complex", [[1, 1]], "site amplitudes must have shape (any,), "
        "got (1, 2)", [1, 1]),
    "deterministic_fidelity_closed amps": Site(
        lambda v, rng: deterministic_fidelity_closed(0.75, v),
        "site amplitudes", "complex", [[1, 1]], "site amplitudes must have "
        "shape (any,), got (1, 2)", [1, 1]),
    "AmplitudeTable amp0": Site(
        lambda v, rng: AmplitudeTable("m", [(0,), (1,)], v, [0, 1]),
        "table 'm': amp0", "complex", [1],
        "table 'm': amp0 must have shape (2,), got (1,)", [1, 0]),
    "AmplitudeTable amp1": Site(
        lambda v, rng: AmplitudeTable("m", [(0,), (1,)], [1, 0], v),
        "table 'm': amp1", "complex", [1, 0, 0],
        "table 'm': amp1 must have shape (2,), got (3,)", [0, 1]),
    "unit_amplitudes": Site(
        lambda v, rng: unit_amplitudes(v), "site amplitudes", "complex",
        [[1, 1]], "site amplitudes must have shape (any,), got (1, 2)",
        [1, 1]),
    "linear_optics_matrix S": Site(
        lambda v, rng: linear_optics_matrix(v, (1, 1)), "S", "complex",
        [1, 0], f"S {SQUARE}", [[1, 0], [0, 1]]),
    "coherent_amplitudes alpha": Site(
        lambda v, rng: coherent_amplitudes(v, 3), "alpha", "complex",
        [1, 0], "alpha must have shape (), got (2,)", 1),
}
SITE_IDS = list(SITES)


def _refused(case, value, message):
    """Call ``case`` on ``value``; return its ConfigError text after
    checking that it starts with ``message`` and left the rng untouched."""
    rng = _rng()
    before = rng.bit_generator.state
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}") as exc:
        case.call(value, rng)
    assert rng.bit_generator.state == before
    return str(exc.value)


@pytest.mark.parametrize("value", ["ab", {"a": 1}, None, [[1, 0], [0]]],
                         ids=["str", "dict", "None", "ragged"])
@pytest.mark.parametrize("site", SITE_IDS)
def test_refuses_what_is_not_an_array_of_numbers(site, value):
    case = SITES[site]
    message = f"{case.name} must be an array of {case.kind} numbers, got "
    if site == "ArrayGeometry positions" and value is None:  # not given
        message = "give positions, or both N and d"
    _refused(case, value, message + (repr(value) if "got" in message else ""))


@pytest.mark.parametrize("site", [s for s in SITE_IDS
                                  if SITES[s].kind == "real"])
def test_refuses_complex_values_for_a_real_array(site):
    case = SITES[site]
    for value in (np.asarray(case.good) + 0.5j, [*case.good[:-1], 1j]):
        _refused(case, value, f"{case.name} must be an array of real "
                              f"numbers, got ")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", SITE_IDS)
def test_refuses_a_value_that_is_not_finite(site, bad):
    case = SITES[site]
    value = np.array(case.good, dtype=float)
    value.flat[-1] = bad
    at = np.unravel_index(value.size - 1, value.shape)
    shown = complex(bad, 0) if case.kind == "complex" else bad
    where = f" at index {tuple(map(int, at))}" if at else ""  # a scalar: ()
    _refused(case, value, f"{case.name} must be finite, got {shown}{where}")


@pytest.mark.parametrize("site", [s for s in SITE_IDS
                                  if SITES[s].wrong is not None])
def test_refuses_a_value_of_the_wrong_shape(site):
    case = SITES[site]
    message = _refused(case, case.wrong, case.shape_message)
    assert message == case.shape_message


@pytest.mark.parametrize("value", [
    ["a"] * 10 ** 6, "a" * 10 ** 6, np.zeros(10 ** 6, dtype=complex),
    np.full(10 ** 6, np.nan), np.ones((1000, 1000, 1)),
    [[1.0] * 10 ** 6, [1.0]],
], ids=["strs", "str", "complex", "nan", "cube", "ragged"])
@pytest.mark.parametrize("site", SITE_IDS)
def test_message_stays_one_short_line(site, value):
    case = SITES[site]
    rng = _rng()
    before = rng.bit_generator.state
    try:
        case.call(value, rng)
    except ConfigError as exc:
        message = str(exc)
    else:  # only a site that takes any shape takes the cube
        assert case.wrong is None
        return
    assert case.name in message or message.startswith("g must")
    assert "\n" not in message and len(message) < 200
    assert rng.bit_generator.state == before


def _forms(case):
    """The site's good values as a list, a tuple and arrays of each dtype
    it takes."""
    dtypes = [np.int64, np.float32, np.float64]
    if case.kind == "complex":
        dtypes.append(np.complex128)
    plain = [case.good, tuple(case.good)] if np.ndim(case.good) else [
        case.good]
    return plain + [np.asarray(case.good, dtype=t) for t in dtypes]


@pytest.mark.parametrize("site", SITE_IDS)
def test_every_form_gives_what_a_plain_asarray_gives(site):
    case = SITES[site]
    rng_want = _rng()
    want = _plain(case.call(np.asarray(case.good), rng_want))
    for value in _forms(case):
        rng = _rng()
        assert _plain(case.call(value, rng)) == want
        assert rng.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("call, name", [
    (lambda: ArrayGeometry(positions=[0, 1j]), "positions"),
    (lambda: IntensityDistribution([[0.1], [0.2, 0.3]], [1.0]),
     "sample positions"),
    (lambda: coherence_matrix([[1, 0], [0]], 2), "g"),
    (lambda: w_state_readout([[1, 0], [0]], 0), "which-site density"),
    (lambda: image_from_visibilities(["a", "b", "c"], 4),
     "baseline visibilities"),
    (lambda: transfer_branches(TABLE, {}), "site amplitudes"),
    (lambda: unit_amplitudes(["a"]), "site amplitudes"),
    (lambda: encode_run_full(CFG_EPS, band_g=["x"]), "band g"),
    (lambda: visibility_function(DIST, [math.nan]), "baselines x"),
], ids=["positions", "intensity", "coherence", "readout", "image",
        "branches", "unit", "band_g", "visibility"])
def test_probe_inputs_raise_a_named_config_error(call, name):
    with pytest.raises(ConfigError, match=f"^{re.escape(name)} must "):
        call()


def test_nested_list_pair_density_reads_as_the_array():
    rho = [[0.5, 0.5], [0.5, 0.5]]
    assert pair_correlators(rho) == pair_correlators(np.array(rho))
    assert np.array_equal(sample_pair_products(rho, "XY", 50, 3),
                          sample_pair_products(np.array(rho), "XY", 50, 3))


def test_array_keeps_a_matching_ndarray_and_reads_shapes():
    x = np.arange(6.0).reshape(2, 3)
    assert array(x, "x", float) is x
    assert array(x, "x", float, (2, None)) is x
    assert array(x, "x", float, (None, 3)) is x
    assert array(np.float64(2.5), "x", float, ()).shape == ()
    assert array([True, False], "x", float).tolist() == [1.0, 0.0]
    assert array(np.arange(3), "x", float).dtype == np.float64
    with pytest.raises(ConfigError, match=re.escape(
            "x must have shape (3, any), got (2, 3)")):
        array(x, "x", float, (3, None))
    with pytest.raises(ConfigError, match=re.escape(
            "x must have shape (), got (1,)")):
        array([1.0], "x", float, ())
    with pytest.raises(ConfigError, match=r"^x must be finite, got nan$"):
        array(math.nan, "x", float)
    # a Python int past int64 makes an object array, which is refused
    with pytest.raises(ConfigError, match="array of real numbers"):
        array([1, 2 ** 70], "x", float)
