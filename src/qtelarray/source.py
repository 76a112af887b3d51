"""Stellar-light models: geometry, intensities and visibilities.

The forward transform is g(x) = sum_j I_j exp(-2 pi i x y_j), so the
imaging reconstruction (which uses exp(+2 pi i x_k y_j)) inverts it exactly
on the native grid y_j = (N-1) j / (N d).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

EPS_DEFAULT = 0.01
EPS_WARN = 0.1
# Complex entries of one block of the visibility phase matrix (16 MiB).
VIS_BLOCK = 1 << 20
# Rows of g per block of the conjugate-symmetry check.
SYMMETRY_ROWS = 256


class ArrayGeometry:
    """Telescope site positions along a line.

    Either uniform (``N`` sites from 0 to the maximal baseline ``d``) or an
    explicit strictly increasing position list.
    """

    def __init__(self, N=None, d=None, positions=None):
        if positions is not None:
            pos = np.asarray(positions, dtype=float)
        else:
            if N is None or d is None:
                raise ValueError("give positions, or both N and d")
            if N < 2:
                raise ValueError("need at least two sites")
            pos = d * np.arange(N) / (N - 1)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("need at least two sites")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
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
            raise ValueError("baselines indexed by k need a uniform array")
        return self.d * k / (self.N - 1)

    def __repr__(self):
        return f"ArrayGeometry(N={self.N}, d={self.d})"


def native_grid(N: int, d: float) -> np.ndarray:
    """Reconstruction grid y_j = (N-1) j / (N d), j = 0..N-1.

    Raises ValueError when the grid leaves the float range: an N d past it
    collapses the grid onto 0, and a tiny d sends its last point to inf.
    """
    span = N * d
    if not (0 < span < math.inf and (N - 1) / span * (N - 1) < math.inf):
        raise ValueError(
            f"native grid of N = {N} sites over d = {d} leaves the float range"
        )
    return (N - 1) * np.arange(N) / span


class IntensityDistribution:
    """Discrete source intensity: samples (y_j, I_j) with sum I_j = 1."""

    def __init__(self, samples, normalize=False):
        samples = [(float(y), float(i)) for y, i in samples]
        if not samples:
            raise ValueError("need at least one sample")
        y = np.array([s[0] for s in samples])
        w = np.array([s[1] for s in samples])
        if not np.all(np.isfinite(y)):
            raise ValueError("sample positions must be finite")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("intensities must be finite and nonnegative")
        # finite weights can still sum past the float range
        with np.errstate(over="ignore"):
            total = w.sum()
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize zero intensity")
            if total == np.inf:
                raise ValueError("intensities sum past the float range")
            w = w / total
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"intensities sum to {total}, not 1")
        self.y = y
        self.weights = w

    @classmethod
    def point(cls, y0: float) -> "IntensityDistribution":
        return cls([(y0, 1.0)])

    @classmethod
    def flat_on_grid(cls, N: int, d: float) -> "IntensityDistribution":
        grid = native_grid(N, d)
        return cls([(y, 1.0 / N) for y in grid])

    @classmethod
    def on_grid(cls, N, d, weights, normalize=False) -> "IntensityDistribution":
        grid = native_grid(N, d)
        weights = np.asarray(weights, dtype=float)
        if weights.size != N:
            raise ValueError("need one weight per grid point")
        return cls(list(zip(grid, weights)), normalize=normalize)

    def __len__(self):
        return self.y.size


class VisibilityModel:
    """Array geometry plus the complex coherence matrix g_{i,j}."""

    def __init__(self, geometry: ArrayGeometry, g, epsilon=EPS_DEFAULT):
        g = np.asarray(g, dtype=complex)
        N = geometry.N
        if g.shape != (N, N):
            raise ValueError("g must be N x N")
        # NaN passes the tolerance checks below, so reject it first
        if not np.isfinite(g).all():
            raise ValueError("g must be finite")
        if np.max(np.abs(np.diagonal(g) - 1.0)) > 1e-12:
            raise ValueError("g must have unit diagonal")
        # row blocks against the matching columns keep the temporaries at
        # SYMMETRY_ROWS x N; the maximum, and so the verdict, is the same
        for lo in range(0, N, SYMMETRY_ROWS):
            rows = slice(lo, lo + SYMMETRY_ROWS)
            if np.max(np.abs(g[rows] - g[:, rows].conj().T)) > 1e-12:
                raise ValueError("g must be conjugate-symmetric")
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if epsilon > EPS_WARN:
            warnings.warn(
                f"epsilon={epsilon} strains the weak-source approximation",
                stacklevel=2,
            )
        self.geometry = geometry
        self.g = g
        self.epsilon = float(epsilon)

    def baseline_visibilities(self) -> np.ndarray:
        """g^{(k)} = g(x_k), k = 0..N-1, for uniform arrays (Toeplitz row)."""
        if not self.geometry.is_uniform:
            raise ValueError("baseline visibilities need a uniform array")
        # g[i, j] = g(x_i - x_j); the first column walks positive baselines
        return self.g[:, 0].copy()

    @classmethod
    def two_site(cls, g01, d=1.0, epsilon=EPS_DEFAULT) -> "VisibilityModel":
        geom = ArrayGeometry(N=2, d=d)
        g = np.array([[1.0, g01], [np.conj(g01), 1.0]])
        return cls(geom, g, epsilon)


def visibility_function(intensity: IntensityDistribution, x) -> np.ndarray:
    """g(x) = sum_j I_j exp(-2 pi i x y_j) evaluated at baseline(s) x.

    The (baselines x samples) phase matrix is built in row blocks of at most
    about VIS_BLOCK entries, so memory stays bounded on irregular arrays,
    where almost all N^2 baselines are distinct.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    blocks = max(1, -(-x.size * len(intensity) // VIS_BLOCK))
    return np.concatenate([
        np.exp(-2j * np.pi * np.outer(part, intensity.y)) @ intensity.weights
        for part in np.array_split(x, blocks)
    ])


def visibility_from_intensity(
    intensity: IntensityDistribution,
    geometry: ArrayGeometry,
    epsilon=EPS_DEFAULT,
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
    return VisibilityModel(geometry, g, epsilon)
