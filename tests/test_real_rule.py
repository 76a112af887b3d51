"""One real-number rule at every call site that takes a float scalar.

Each site refuses a value that is not a real number (a string, None, a
complex number, an array) and one outside its bounds, NaN and infinities
included, with a ConfigError that names the input, its value and the
bound; a refusal leaves a given generator untouched, and a numpy float
gives what the float gives.
"""

import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from qtelarray import transfer
from qtelarray.codec import RunConfig
from qtelarray.source import ArrayGeometry, native_grid
from qtelarray.util import ConfigError, real

from test_count_rule import _plain, _rng

INF = math.inf


class Site(NamedTuple):
    call: Callable  # (value, rng) -> result
    name: str
    low: float
    high: float
    high_name: str | None
    bad: tuple  # reals outside [low, high] or not finite
    good: float


ALPHA = ("ancilla amplitude alpha", 0, transfer.ALPHA_MAX, "ALPHA_MAX",
         (-0.5, 2e154, math.nan, INF))
UNIT_BAD = (-0.1, 1.5, math.nan, INF, -INF)
PHASE = ("input phase theta", -INF, INF, None, (math.nan, INF, -INF))

# every good value is a float32 too, so a float32 input names the same value
SITES = {
    "coherent_amplitude_table alpha": Site(
        lambda v, rng: transfer.coherent_amplitude_table(v, 4), *ALPHA, 0.75),
    "deterministic_fidelity_closed alpha": Site(
        lambda v, rng: transfer.deterministic_fidelity_closed(v), *ALPHA,
        0.75),
    "heralded_rate_closed alpha": Site(
        lambda v, rng: transfer.heralded_rate_closed(v), *ALPHA, 0.75),
    "lossy_transfer eta": Site(
        lambda v, rng: transfer.lossy_transfer(v), "transmission eta", 0, 1,
        None, UNIT_BAD, 0.75),
    "lossy_transfer theta": Site(
        lambda v, rng: transfer.lossy_transfer(0.75, v), *PHASE, 0.25),
    "plus_ancilla_transfer theta": Site(
        lambda v, rng: transfer.plus_ancilla_transfer(v), *PHASE, 0.25),
    "network_fidelity f2": Site(
        lambda v, rng: transfer.network_fidelity(4, v),
        "pairwise fidelity f2", 0, 1, None, UNIT_BAD, 0.875),
    "network_failure_probability p1": Site(
        lambda v, rng: transfer.network_failure_probability(4, v),
        "per-site success p1", 0, 1, None, UNIT_BAD, 0.5),
    "network_pair_distribution p1": Site(
        lambda v, rng: transfer.network_pair_distribution(4, v),
        "per-site success p1", 0, 1, None, UNIT_BAD, 0.5),
    "network_monte_carlo p1": Site(
        lambda v, rng: transfer.network_monte_carlo(3, v, 40, rng=rng),
        "per-site success p1", 0, 1, None, UNIT_BAD, 0.5),
    "ArrayGeometry d": Site(
        lambda v, rng: ArrayGeometry(4, v), "maximal baseline d", -INF, INF,
        None, (math.nan, INF, -INF), 0.75),
    "native_grid d": Site(
        lambda v, rng: native_grid(4, v), "native grid d", -INF, INF, None,
        (math.nan, INF, -INF), 0.75),
    "RunConfig eps": Site(lambda v, rng: RunConfig(eps=v), "eps", 0, 1, None,
                          (-0.1, 1.5, math.nan, INF), 0.0625),
}
SITE_IDS = list(SITES)


@pytest.mark.parametrize("value", ["0.5", None, 0.5j, np.array([0.5, 0.6]),
                                   [0.5]], ids=["str", "None", "complex",
                                                "array", "list"])
@pytest.mark.parametrize("site", SITE_IDS)
def test_refuses_a_value_that_is_not_real(site, value):
    case = SITES[site]
    rng = _rng()
    before = rng.bit_generator.state
    message = f"{case.name} = {value!r} must be a real number"
    if site == "ArrayGeometry d" and value is None:  # None: d not given
        message = "give positions, or both N and d"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        case.call(value, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("site", SITE_IDS)
def test_refuses_a_value_outside_its_bounds(site):
    case = SITES[site]
    for value in case.bad:
        if case.low == -INF and case.high == INF:
            message = f"{case.name} = {value} must be finite"
        else:
            bound = (f"{case.high_name} = {case.high:.6g}" if case.high_name
                     else case.high)
            message = f"{case.name} = {value} must lie in [{case.low}, {bound}]"
        rng = _rng()
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            case.call(value, rng)
        assert rng.bit_generator.state == before


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("site", SITE_IDS)
def test_numpy_float_gives_what_the_float_gives(site, dtype):
    case = SITES[site]
    rng_float, rng_np = _rng(), _rng()
    want = case.call(case.good, rng_float)
    got = case.call(dtype(case.good), rng_np)
    assert _plain(got) == _plain(want)
    assert rng_np.bit_generator.state == rng_float.bit_generator.state


def test_eps_keeps_its_half_open_bound():
    with pytest.raises(ConfigError, match=r"^eps = 1\.0 must be < 1$"):
        RunConfig(eps=1)
    assert RunConfig(eps=0).eps == 0.0


def test_real_returns_a_python_float():
    assert type(real(np.float32(0.5), "x", 0, 1)) is float
    assert type(real(3, "x")) is float
    assert real(True, "x", 0, 1) == 1.0
    assert real(-2.0, "x", -2.0, -2.0) == -2.0
    # an int past the float range is an infinity, named as such
    with pytest.raises(ConfigError, match=r"^x = inf must lie in \[0, 1\]$"):
        real(10 ** 400, "x", 0, 1)
    with pytest.raises(ConfigError, match=r"^x = -inf must be finite$"):
        real(-10 ** 400, "x")
    with pytest.raises(ConfigError, match=r"^x = 2\.0 must lie in \[0, "
                                          r"LIMIT = 1\.5\]$"):
        real(2, "x", 0, 1.5, "LIMIT")
