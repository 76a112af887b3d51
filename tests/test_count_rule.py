"""One integer-count rule at every call site that takes a count.

Each site refuses a count that is not an integer (a float, even a whole
one, a string or None) and one outside its bounds with a ConfigError that
names the input, its value and the bound; a refusal leaves a given
generator untouched, and a numpy integer gives what the int gives.
"""

import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from qtelarray import codec, netdecode, transfer
from qtelarray.codec import Codebook, MemoryLayout, RunConfig, encode_bin, new_run
from qtelarray.imaging import (
    SHOTS_MAX,
    classical_pipeline,
    image_from_visibilities,
    natural_weights,
    sample_qft,
)
from qtelarray.qcore import coherent_amplitudes, linear_optics_matrix
from qtelarray.source import (
    MAX_SITES,
    ArrayGeometry,
    IntensityDistribution,
    native_grid,
    visibility_from_intensity,
)
from qtelarray.util import ConfigError, count, qft_matrix, unit_amplitudes


class Site(NamedTuple):
    call: Callable  # (count, rng) -> result
    name: str
    low: int
    high: int | None
    high_name: str | None
    bad: tuple  # integers outside low..high
    good: int


VIS = visibility_from_intensity(IntensityDistribution.flat_on_grid(4, 1.0),
                                ArrayGeometry(4, 1.0))
PAIR = np.array([[0.5, 0.3], [0.3, 0.5]])
CFG = RunConfig(M=5, R=2, N=2)
LAYOUT = MemoryLayout(RunConfig(M=5, R=2, layout="parallel"))
BOOK = Codebook(5, 2)
PHOTON = [1.0, 1.0]

SITES = {
    "sample_qft shots": Site(
        lambda v, rng: sample_qft(VIS, v, rng=rng),
        "shots", 1, SHOTS_MAX, "SHOTS_MAX", (0, -3, SHOTS_MAX + 1), 50),
    "classical_pipeline shots": Site(
        lambda v, rng: classical_pipeline(VIS, v, rng=rng),
        "shots", 1, SHOTS_MAX, "SHOTS_MAX", (0, -3, SHOTS_MAX + 1), 50),
    "sample_pair_products shots": Site(
        lambda v, rng: netdecode.sample_pair_products(PAIR, "XX", v, rng),
        "shots", 0, None, None, (-1,), 50),
    "w_state_readout max_attempts": Site(
        lambda v, rng: netdecode.w_state_readout(np.eye(3) / 3, rng,
                                                 max_attempts=v),
        "max_attempts", 1, None, None, (0, -1), 8),
    "natural_weights N": Site(
        lambda v, rng: natural_weights(v),
        "N", 1, MAX_SITES, "MAX_SITES", (0, -1, MAX_SITES + 1), 4),
    "image_from_visibilities N": Site(
        lambda v, rng: image_from_visibilities([0.5, 0.25, 0.125], v),
        "N", 1, MAX_SITES, "MAX_SITES", (0, MAX_SITES + 1), 4),
    "ArrayGeometry N": Site(
        lambda v, rng: ArrayGeometry(v, 1.0),
        "N", 2, MAX_SITES, "MAX_SITES", (1, 0, MAX_SITES + 1), 4),
    "native_grid N": Site(
        lambda v, rng: native_grid(v, 1.0),
        "native grid N", 1, MAX_SITES, "MAX_SITES", (0, MAX_SITES + 1), 4),
    "point_on_grid j": Site(
        lambda v, rng: IntensityDistribution.point_on_grid(4, 1.0, v),
        "point source index j", 0, 3, None, (-1, 4), 2),
    "RunConfig M": Site(lambda v, rng: RunConfig(M=v), "M", 1, None, None,
                        (0,), 3),
    "RunConfig R": Site(lambda v, rng: RunConfig(R=v), "R", 1, None, None,
                        (0,), 3),
    "RunConfig N": Site(lambda v, rng: RunConfig(N=v), "N", 2, None, None,
                        (1,), 3),
    "RunConfig seed": Site(lambda v, rng: RunConfig(seed=v), "seed", 0,
                           None, None, (-5,), 3),
    "Codebook M": Site(lambda v, rng: Codebook(v, 2), "M", 1, None, None,
                       (0,), 3),
    "Codebook R": Site(lambda v, rng: Codebook(5, v), "R", 1, None, None,
                       (0,), 3),
    "codeword m": Site(lambda v, rng: BOOK.codeword(v, 1), "time bin m", 1, 5,
                       None, (0, 6), 3),
    "codeword r": Site(lambda v, rng: BOOK.codeword(1, v), "band r", 1, 2,
                       None, (0, 3), 2),
    "write_mask m": Site(lambda v, rng: LAYOUT.write_mask(v, 1), "time bin m",
                         1, 5, None, (0, 6), 3),
    "write_mask r": Site(lambda v, rng: LAYOUT.write_mask(1, v), "band r", 1,
                         2, None, (0, 3), 2),
    "band_code r": Site(lambda v, rng: LAYOUT.band_code(v), "band r", 1, 2,
                        None, (0, 3), 2),
    "encode_bin vacuum m": Site(
        lambda v, rng: encode_bin(new_run(CFG), v, None),
        "time bin m", 1, 5, None, (0, 99), 3),
    "encode_bin photon m": Site(
        lambda v, rng: encode_bin(new_run(CFG), v, (1, PHOTON)),
        "time bin m", 1, 5, None, (0, 6), 3),
    "encode_bin photon r": Site(
        lambda v, rng: encode_bin(new_run(CFG), 1, (v, PHOTON)),
        "band r", 1, 2, None, (0, 3), 2),
    "coherent_amplitude_table cutoff": Site(
        lambda v, rng: transfer.coherent_amplitude_table(0.8, v),
        "cutoff", 1, None, None, (0, -2), 4),
    "multiport_amplitude_table ports": Site(
        lambda v, rng: transfer.multiport_amplitude_table(v),
        "ports", 1, None, None, (0,), 1),
    "network_fidelity N": Site(
        lambda v, rng: transfer.network_fidelity(v, 0.9),
        "N", 2, None, None, (1, 0), 5),
    "network_failure_probability N": Site(
        lambda v, rng: transfer.network_failure_probability(v, 0.5),
        "N", 2, None, None, (1,), 5),
    "network_pair_distribution N": Site(
        lambda v, rng: transfer.network_pair_distribution(v, 0.5),
        "N", 2, transfer.MAX_PAIR_SITES, "MAX_PAIR_SITES",
        (1, transfer.MAX_PAIR_SITES + 1), 5),
    "network_monte_carlo N": Site(
        lambda v, rng: transfer.network_monte_carlo(v, 0.5, 40, rng=rng),
        "N", 2, None, None, (1,), 5),
    "network_monte_carlo trials": Site(
        lambda v, rng: transfer.network_monte_carlo(3, 0.5, v, rng=rng),
        "trials", 1, None, None, (0, -3), 40),
    "log2_ceil n": Site(lambda v, rng: codec.log2_ceil(v), "n", 1, None, None,
                        (0, -1), 5),
    "qft_matrix n": Site(lambda v, rng: qft_matrix(v), "n", 1, None, None,
                         (0, -1), 3),
    "linear_optics_matrix cutoffs": Site(
        lambda v, rng: linear_optics_matrix(np.eye(2), (v, 1)),
        "cutoff", 0, None, None, (-1,), 2),
    "linear_optics_matrix out_cutoffs": Site(
        lambda v, rng: linear_optics_matrix(np.eye(2), (1, 1), (0, v)),
        "cutoff", 0, None, None, (-3,), 2),
    "coherent_amplitudes cutoff": Site(
        lambda v, rng: coherent_amplitudes(1.0, v),
        "cutoff", 0, None, None, (-1,), 3),
}
SITE_IDS = list(SITES)


def _plain(x):
    """``x`` as nested tuples of values, arrays as their bytes."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return tuple((_plain(k), _plain(v)) for k, v in x.items())
    if isinstance(x, (list, tuple)):
        return tuple(map(_plain, x))
    if hasattr(x, "__dict__"):
        return (type(x).__name__, _plain(vars(x)))
    return x


def _rng():
    return np.random.default_rng(12)


@pytest.mark.parametrize("value", [2.5, 4.0, "3", None])
@pytest.mark.parametrize("site", SITE_IDS)
def test_refuses_a_count_that_is_not_an_integer(site, value):
    case = SITES[site]
    rng = _rng()
    before = rng.bit_generator.state
    message = f"{case.name} = {value!r} must be an integer"
    if site == "ArrayGeometry N" and value is None:  # None: N not given
        message = "give positions, or both N and d"
    with pytest.raises(ConfigError, match=re.escape(message)):
        case.call(value, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("site", SITE_IDS)
def test_refuses_a_count_outside_its_bounds(site):
    case = SITES[site]
    for value in case.bad:
        if case.high is None:
            message = f"{case.name} = {value} must be >= {case.low}"
        else:
            bound = (f"{case.high_name} = {case.high}" if case.high_name
                     else case.high)
            message = f"{case.name} = {value} outside {case.low}..{bound}"
        rng = _rng()
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            case.call(value, rng)
        assert rng.bit_generator.state == before


@pytest.mark.parametrize("site", SITE_IDS)
def test_numpy_integer_gives_what_the_int_gives(site):
    case = SITES[site]
    rng_int, rng_np = _rng(), _rng()
    want = case.call(case.good, rng_int)
    got = case.call(np.int64(case.good), rng_np)
    assert _plain(got) == _plain(want)
    assert rng_np.bit_generator.state == rng_int.bit_generator.state


def test_count_returns_a_python_int():
    assert type(count(np.int64(3), "k")) is int
    assert count(7, "k", 7, 7) == 7


@pytest.mark.parametrize("photon", [(1, PHOTON, 3), (1,), 7, [1]],
                         ids=["triple", "single", "int", "list"])
def test_encode_bin_refuses_a_photon_that_is_not_a_pair(photon):
    message = f"photon = {photon!r} must be None or an (r, amps) pair"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        encode_bin(new_run(CFG), 1, photon)


def test_library_raises_one_input_error():
    assert not hasattr(transfer, "TransferError")
    assert codec.ConfigError is ConfigError
    with pytest.raises(TypeError):
        unit_amplitudes([1, 0], error=ConfigError)
