"""Stellar-light models: geometry, intensities, visibilities, photon states.

The forward transform is g(x) = sum_j I_j exp(-2 pi i x y_j), so the
imaging reconstruction (which uses exp(+2 pi i x_k y_j)) inverts it exactly
on the native grid y_j = (N-1) j / (N d).
"""

from __future__ import annotations

import warnings

import numpy as np

from .qcore import ModeRegistry, QuantumState, StateError, fock, qubit

EPS_DEFAULT = 0.01
EPS_WARN = 0.1
# Complex entries of one block of the visibility phase matrix (16 MiB).
VIS_BLOCK = 1 << 20


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
        return bool(np.allclose(spacing, spacing[0], rtol=0, atol=1e-12))

    def baseline(self, k: int) -> float:
        """x_k = d k / (N - 1) for uniform arrays."""
        if not self.is_uniform:
            raise ValueError("baselines indexed by k need a uniform array")
        return self.d * k / (self.N - 1)

    def __repr__(self):
        return f"ArrayGeometry(N={self.N}, d={self.d})"


def native_grid(N: int, d: float) -> np.ndarray:
    """Reconstruction grid y_j = (N-1) j / (N d), j = 0..N-1."""
    return (N - 1) * np.arange(N) / (N * d)


class IntensityDistribution:
    """Discrete source intensity: samples (y_j, I_j) with sum I_j = 1."""

    def __init__(self, samples, normalize=False):
        samples = [(float(y), float(i)) for y, i in samples]
        if not samples:
            raise ValueError("need at least one sample")
        y = np.array([s[0] for s in samples])
        w = np.array([s[1] for s in samples])
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("intensities must be finite and nonnegative")
        total = w.sum()
        if normalize:
            if total <= 0:
                raise ValueError("cannot normalize zero intensity")
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
        if np.max(np.abs(g - g.conj().T)) > 1e-12:
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
    diffs = pos[:, None] - pos[None, :]
    # evaluate g once per distinct difference: a uniform array repeats each
    # baseline along a diagonal, so only O(N) of the N^2 are distinct
    x, inv = np.unique(diffs.reshape(-1), return_inverse=True)
    g = visibility_function(intensity, x)[inv].reshape(diffs.shape)
    # force exact unit diagonal and Hermitian symmetry against roundoff
    np.fill_diagonal(g, 1.0)
    g = (g + g.conj().T) / 2
    return VisibilityModel(geometry, g, epsilon)


def site_labels(N: int):
    return tuple(f"s{i}" for i in range(N))


def single_photon_rho(vis: VisibilityModel) -> QuantumState:
    """Single-photon state over N site qubits: rho^(1) = g/N on {|1_i>}.

    Built as the eigen-ensemble of g/N embedded in the single-excitation
    subspace, so it scales past the dense-density limit in N.
    """
    N = vis.geometry.N
    vals, vecs = np.linalg.eigh(vis.g / N)
    if vals.min() < -1e-10:
        raise StateError(
            f"visibility matrix is not positive semidefinite "
            f"(min eigenvalue {vals.min():.2e}); unphysical g"
        )
    reg = ModeRegistry([qubit(lab) for lab in site_labels(N)])
    comps = []
    for e in range(N):
        w = float(vals[e])
        if w <= 1e-12:
            continue
        v = np.zeros(reg.dim, dtype=complex)
        for i in range(N):
            occ = [0] * N
            occ[i] = 1
            v[reg.basis_index(occ)] = vecs[i, e]
        comps.append((w, v))
    return QuantumState(reg, comps)


def broadband_labels():
    return ("band1_a", "band1_b", "band2_a", "band2_b")


def broadband_two_site_rho(eps: float, g1, g2) -> QuantumState:
    """Two-site, two-band weak-source state over 4 single-photon Fock modes.

    rho = (1 - eps) |vac><vac| + (eps/2) rho_1 + (eps/2) rho_2 with no
    cross-band coherence; band r's single-photon block is (1/2)[[1, g_r],
    [conj(g_r), 1]] over (site a, site b).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if eps > EPS_WARN:
        warnings.warn(
            f"eps={eps} strains the weak-source approximation", stacklevel=2
        )
    for g in (g1, g2):
        if abs(g) > 1 + 1e-12:
            raise ValueError("|g| must not exceed 1")
    reg = ModeRegistry([fock(lab, 1) for lab in broadband_labels()])
    comps = [(1.0 - eps, _basis_vec(reg, (0, 0, 0, 0)))]
    for r, g in ((1, g1), (2, g2)):
        block = np.array([[1.0, g], [np.conj(g), 1.0]]) / 2
        vals, vecs = np.linalg.eigh(block)
        offset = 0 if r == 1 else 2
        for e in range(2):
            w = float(vals[e])
            if w <= 1e-12:
                continue
            v = np.zeros(reg.dim, dtype=complex)
            for i in range(2):
                occ = [0, 0, 0, 0]
                occ[offset + i] = 1
                v[reg.basis_index(occ)] = vecs[i, e]
            comps.append((eps / 2 * w, v))
    return QuantumState(reg, comps)


def _basis_vec(reg, occ):
    v = np.zeros(reg.dim, dtype=complex)
    v[reg.basis_index(occ)] = 1.0
    return v
