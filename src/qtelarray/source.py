"""Stellar-light models: geometry, intensities and visibilities.

The forward transform is g(x) = sum_j I_j exp(-2 pi i x y_j), so the
imaging reconstruction (which uses exp(+2 pi i x_k y_j)) inverts it exactly
on the native grid y_j = (N-1) j / (N d).
"""

from __future__ import annotations

import math

import numpy as np

from .util import ConfigError, array, count, real

# Complex entries of one block of the visibility phase matrix (16 MiB).
VIS_BLOCK = 1 << 20
# Rows of g per block of the conjugate-symmetry check.
SYMMETRY_ROWS = 256
# The most float64 entries one array holds: past it numpy's arange raises a
# bare size error, or for N = 2 ** 63 returns an empty range.
MAX_SITES = np.iinfo(np.intp).max // 8


class ArrayGeometry:
    """Telescope site positions along a line.

    Either uniform (``N`` sites from 0 to the maximal baseline ``d``) or an
    explicit strictly increasing position list.
    """

    def __init__(self, N=None, d=None, positions=None):
        if (N is None, d is None) != (positions is not None,) * 2:
            raise ConfigError("give positions, or both N and d")
        if positions is None:
            N = count(N, "N", 2, MAX_SITES, "MAX_SITES")
            d = real(d, "maximal baseline d")
            positions = d * np.arange(N) / (N - 1)  # inf where d * k overflows
        pos = array(positions, "positions", float, (None,))
        if pos.size < 2:
            raise ConfigError("need at least two sites")
        if np.any(np.diff(pos) <= 0):
            raise ConfigError("positions must be strictly increasing")
        self.positions = pos
        self.N = int(pos.size)
        self.d = float(pos[-1] - pos[0])

    @property
    def is_uniform(self) -> bool:
        spacing = np.diff(self.positions)
        # positions round relative to their size, so spans far above 1 need
        # a tolerance relative to the spacing as well
        return bool(np.allclose(spacing, spacing[0], rtol=1e-9, atol=1e-12))

    def baseline(self, k: int) -> float:
        """x_k = d k / (N - 1) for uniform arrays."""
        if not self.is_uniform:
            raise ConfigError("baselines indexed by k need a uniform array")
        return self.d * k / (self.N - 1)

    def __repr__(self):
        return f"ArrayGeometry(N={self.N}, d={self.d})"


def native_grid(N: int, d: float) -> np.ndarray:
    """Reconstruction grid y_j = (N-1) j / (N d), j = 0..N-1.

    Raises ConfigError when N is not a count in 1..MAX_SITES, d not a
    finite real, or the grid leaves the float range: an N d past it
    collapses the grid onto 0, and a tiny d sends its last point to inf.
    """
    N = count(N, "native grid N", 1, MAX_SITES, "MAX_SITES")
    d = real(d, "native grid d")
    span = N * d
    if not (0 < span < math.inf and (N - 1) / span * (N - 1) < math.inf):
        raise ConfigError(
            f"native grid of N = {N} sites over d = {d}: d must be positive "
            f"and the grid must stay inside the float range"
        )
    return (N - 1) * np.arange(N) / span


class IntensityDistribution:
    """Discrete source intensity: float arrays y_j and I_j, sum I_j = 1."""

    def __init__(self, y, weights, normalize=False):
        y = array(y, "sample positions", float, (None,))
        w = array(weights, "intensities", float, (None,))
        if w.size != y.size:
            raise ConfigError(f"need {y.size} intensities, got {w.size}")
        if not y.size:
            raise ConfigError("need at least one sample")
        if np.any(w < 0):
            raise ConfigError("intensities must be nonnegative")
        # finite weights can still sum past the float range
        with np.errstate(over="ignore"):
            total = w.sum()
        if normalize:
            if total <= 0:
                raise ConfigError("cannot normalize zero intensity")
            if total == np.inf:
                raise ConfigError("intensities sum past the float range")
            w = w / total
        elif abs(total - 1.0) > 1e-12:
            raise ConfigError(f"intensities sum to {total}, not 1")
        self.y = y
        self.weights = w

    @classmethod
    def point(cls, y0: float) -> "IntensityDistribution":
        return cls([y0], [1.0])

    @classmethod
    def flat_on_grid(cls, N: int, d: float) -> "IntensityDistribution":
        return cls(native_grid(N, d), np.full(N, 1.0 / N))

    @classmethod
    def point_on_grid(cls, N, d, j: int) -> "IntensityDistribution":
        grid = native_grid(N, d)
        j = count(j, "point source index j", 0, N - 1)
        return cls(grid, (np.arange(N) == j).astype(float))

    @classmethod
    def on_grid(cls, N, d, weights, normalize=False) -> "IntensityDistribution":
        return cls(native_grid(N, d), weights, normalize=normalize)

    def __len__(self):
        return self.y.size


def coherence_matrix(g, N: int) -> np.ndarray:
    """g as a complex N x N array, checked: finite, with a unit diagonal
    and conjugate-symmetric to 1e-12. ConfigError names the rule it breaks."""
    # array refuses NaN, which would pass the tolerance checks below
    g = array(g, "g", complex, (N, N))
    if np.max(np.abs(np.diagonal(g) - 1.0)) > 1e-12:
        raise ConfigError("g must have unit diagonal")
    # row blocks against the matching columns keep the temporaries at
    # SYMMETRY_ROWS x N; the maximum, and so the verdict, is the same
    for lo in range(0, N, SYMMETRY_ROWS):
        rows = slice(lo, lo + SYMMETRY_ROWS)
        if np.max(np.abs(g[rows] - g[:, rows].conj().T)) > 1e-12:
            raise ConfigError("g must be conjugate-symmetric")
    return g


class VisibilityModel:
    """Array geometry plus the complex coherence matrix g_{i,j}."""

    def __init__(self, geometry: ArrayGeometry, g):
        self.geometry = geometry
        self.g = coherence_matrix(g, geometry.N)

    def baseline_visibilities(self) -> np.ndarray:
        """g^{(k)} = g(x_k), k = 0..N-1, for uniform arrays (Toeplitz row)."""
        if not self.geometry.is_uniform:
            raise ConfigError("baseline visibilities need a uniform array")
        # g[i, j] = g(x_i - x_j); the first column walks positive baselines
        return self.g[:, 0].copy()

    @classmethod
    def two_site(cls, g01, d=1.0) -> "VisibilityModel":
        """Two sites d apart with coherence g01, a finite complex scalar."""
        geom = ArrayGeometry(N=2, d=d)
        array(g01, "g01", complex, ())  # g keeps the caller's g01, so a
        # real g01 gives +0 imaginary parts (a complex conj gives -0)
        g = np.array([[1.0, g01], [np.conj(g01), 1.0]])
        return cls(geom, g)


def visibility_function(intensity: IntensityDistribution, x) -> np.ndarray:
    """g(x) = sum_j I_j exp(-2 pi i x y_j) evaluated at baseline(s) x.

    The (baselines x samples) phase matrix is built in row blocks of at most
    about VIS_BLOCK entries, so memory stays bounded on irregular arrays,
    where almost all N^2 baselines are distinct.
    """
    x = np.atleast_1d(array(x, "baselines x", float))
    blocks = max(1, -(-x.size * len(intensity) // VIS_BLOCK))
    return np.concatenate([
        _phases(part, intensity.y) @ intensity.weights
        for part in np.array_split(x, blocks)
    ])


def _phases(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.exp(-2j * np.pi * np.outer(x, y))``, bit for bit.

    -2j * pi is (+0, -2 pi), so that product has real part +0 and imaginary
    part +0 + outer(x, y) * (-2 pi): adding +0 turns a -0 phase into +0.
    cexp(+0 + i t) is exactly (cos t, sin t), and one cos and one sin of the
    real phases cost about half of one complex exp.
    """
    theta = np.outer(x, y)
    theta *= -2.0 * np.pi
    theta += 0.0
    phase = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    return phase


def visibility_from_intensity(
    intensity: IntensityDistribution,
    geometry: ArrayGeometry,
) -> VisibilityModel:
    """Van Cittert-Zernike step: coherence matrix from the intensity."""
    pos = geometry.positions
    # evaluate g once per distinct difference: a uniform array repeats each
    # baseline along a diagonal, so only O(N) of the N^2 are distinct (the
    # N x N differences are not kept, which lowers the peak memory)
    x, inv = np.unique(pos[:, None] - pos[None, :], return_inverse=True)
    # pos_i - pos_j is exactly -(pos_j - pos_i), so x is symmetric about its
    # middle entry 0, and g(-x) is exactly conj(g(x)): evaluate the
    # nonnegative half only, which makes g exactly Hermitian. Adding 0 turns
    # the -0 imaginary parts that conj makes into +0, so g also matches the
    # symmetrized full-plane route in its signs of zero.
    half = visibility_function(intensity, x[x.size // 2:])
    values = np.concatenate([half[:0:-1].conj() + 0.0, half])
    g = values[inv].reshape(pos.size, pos.size)
    # g(0) sums the intensities, which need not give exactly 1
    np.fill_diagonal(g, 1.0)
    return VisibilityModel(geometry, g)
