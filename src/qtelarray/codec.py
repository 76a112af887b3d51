"""Time/frequency codebook and the memory-encoding pipeline.

An arriving photon in time bin m (1..M) and frequency band r (1..R) flips a
site's memory qubits according to a binary codeword; the all-zeros string is
reserved for vacuum. Encoding is a one-bit teleportation per site: CNOTs from
the receiving qubit onto the codeword bits, an X-basis measurement of the
receiving qubit, and on the minus outcome a Z phase on the flipped codeword
subspace (the diagonal operator 1 - 2|codeword><codeword| on the written
register). The projector form matters: codewords share bits, so a bare
single-qubit Z would corrupt the other mixture branches.

Two memory layouts:

- sequential: one register of t_bits + f_bits qubits per site holding
  binary(m) ++ binary(r-1).
- parallel: per band, a t_bits time register plus a flag qubit; flags are
  later compressed into ceil(log2(R+1)) qubits (see
  :func:`parallel_frequency_compress`).

Site-vector form. Every site holds the same register, so a photon with site
amplitudes a_i leaves the memories in sum_i a_i |P at site i>: one register
pattern P at whichever site holds the photon, every other site blank. Each
mixture component stores exactly that, a :class:`SiteState` with the
N-vector ``amps`` and the int ``pattern`` (bit q is row q of
:attr:`MemoryLayout.names`); the vacuum is pattern 0. The CNOTs of a write
or a compression only XOR a fixed mask into P at the photon's site. The X
measurement that ends each teleportation needs no branch either: its minus
outcome puts -1 on exactly the term whose site holds the written pattern,
and the projector phase takes it off again, so both outcomes leave the same
state and the whole step is a pattern update. The gate-by-gate route lives
on as the reference in the tests, on :class:`~qtelarray.qcore.SupportState`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

LAYOUTS = ("sequential", "parallel")


class ConfigError(ValueError):
    """Bad run configuration."""


class EncodeError(RuntimeError):
    """Protocol misuse during encoding."""


# ---- codebook ----------------------------------------------------------------


def log2_ceil(n: int) -> int:
    """Smallest b with 2**b >= n, for n >= 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    return int(n - 1).bit_length()


class Codebook:
    """Injective map (time bin m, band r) -> codeword bit string."""

    def __init__(self, M: int, R: int):
        if M < 1 or R < 1:
            raise ConfigError("need M >= 1 and R >= 1")
        self.M = int(M)
        self.R = int(R)
        self.t_bits = log2_ceil(M + 1)
        self.f_bits = log2_ceil(R)

    @property
    def length(self) -> int:
        return self.t_bits + self.f_bits

    def codeword(self, m: int, r: int) -> str:
        """binary(m) over t_bits, then binary(r-1) over f_bits, MSB first."""
        if not 1 <= m <= self.M:
            raise ConfigError(f"time bin {m} outside 1..{self.M}")
        if not 1 <= r <= self.R:
            raise ConfigError(f"band {r} outside 1..{self.R}")
        word = format(m, f"0{self.t_bits}b")
        if self.f_bits:
            word += format(r - 1, f"0{self.f_bits}b")
        return word

    @property
    def vacuum(self) -> str:
        return "0" * self.length

    def decode(self, word: str):
        """Inverse map; all-zeros -> (0, None); malformed words raise."""
        if len(word) != self.length or set(word) - {"0", "1"}:
            raise ConfigError(f"malformed codeword {word!r}")
        if word == self.vacuum:
            return (0, None)
        m = int(word[: self.t_bits], 2)
        r = (int(word[self.t_bits:], 2) + 1) if self.f_bits else 1
        if not 1 <= m <= self.M or r > self.R:
            raise ConfigError(f"codeword {word!r} decodes outside the codebook")
        return (m, r)


# ---- configuration -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Encode-run parameters.

    eps = 0 is allowed here (pure vacuum runs for deterministic tests) even
    though source models require eps > 0.
    """

    M: int = 5
    R: int = 2
    N: int = 2
    eps: float = 0.01
    layout: str = "sequential"
    seed: int = 0

    def __post_init__(self):
        if self.M < 1:
            raise ConfigError("M must be >= 1")
        if self.R < 1:
            raise ConfigError("R must be >= 1")
        if self.N < 2:
            raise ConfigError("N must be >= 2")
        if not 0.0 <= self.eps < 1.0:
            raise ConfigError("eps must lie in [0, 1)")
        if self.layout not in LAYOUTS:
            raise ConfigError(f"layout must be one of {LAYOUTS}")


# ---- resource ledger -----------------------------------------------------------


LEDGER_FIELDS = (
    "memory_qubits_per_site",
    "bell_pairs",
    "ghz_states",
    "w_states",
    "ancilla_qubits",
)


@dataclass
class ResourceLedger:
    """Monotone counters of memory and entanglement consumption."""

    memory_qubits_per_site: int = 0
    bell_pairs: int = 0
    ghz_states: int = 0
    w_states: int = 0
    ancilla_qubits: int = 0

    def add(self, name: str, count: int = 1):
        if name not in LEDGER_FIELDS:
            raise KeyError(f"unknown ledger counter {name!r}")
        if count < 0:
            raise ValueError("ledger counters are monotone nondecreasing")
        setattr(self, name, getattr(self, name) + int(count))

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in LEDGER_FIELDS}

    def copy(self) -> "ResourceLedger":
        return ResourceLedger(**self.as_dict())


# ---- memory layout -------------------------------------------------------------


class MemoryLayout:
    """Register rows, labels and write patterns of the per-site memories.

    Every site holds the same register. ``names`` lists it in row order:
    row q is bit q of a stored pattern, and its qubit at site i carries the
    label ``f"s{i}_{names[q]}"``. :func:`new_run` hands every run of one
    config the same layout, so each row's labels and the compression folds
    are built at most once per config and must never be changed.
    """

    def __init__(self, config: RunConfig):
        self.config = config
        self.book = Codebook(config.M, config.R)
        self.c_bits = log2_ceil(config.R + 1)
        bands = range(1, config.R + 1)
        if config.layout == "sequential":
            names = [f"c{p}" for p in range(self.book.length)]
        else:
            names = [f"r{r}_t{p}" for r in bands for p in range(self.book.t_bits)]
            names += [f"f{r}" for r in bands]
            names += [f"k{p}" for p in range(self.c_bits)]
        self.names = tuple(names)
        # one label tuple per row read so far: a decode reads few rows
        self._row_labels: dict[int, tuple] = {}

    @property
    def qubits_per_site(self) -> int:
        return len(self.names)

    def code_rows(self) -> tuple:
        """Sequential layout: codeword bit p sits on row p."""
        return tuple(range(self.book.length))

    def time_rows(self, r: int) -> tuple:
        """Parallel layout: band r's time register, binary(m) MSB first."""
        t = self.book.t_bits
        return tuple(range((r - 1) * t, r * t))

    def flag_row(self, r: int) -> int:
        """Parallel layout: band r's flag qubit."""
        return self.config.R * self.book.t_bits + r - 1

    def comp_rows(self) -> tuple:
        """Parallel layout: the compressed band register."""
        start = self.config.R * (self.book.t_bits + 1)
        return tuple(range(start, start + self.c_bits))

    def site_labels(self, i: int) -> tuple:
        return tuple(f"s{i}_{name}" for name in self.names)

    def row_labels(self, q: int) -> tuple:
        """Labels of row q across the sites, built on first use."""
        labels = self._row_labels.get(q)
        if labels is None:
            name = self.names[q]
            labels = tuple(f"s{i}_{name}" for i in range(self.config.N))
            self._row_labels[q] = labels
        return labels

    def write_pattern(self, m: int, r: int):
        """(rows, bits) a photon at (m, r) imposes on the register it lands in.

        The rows cover the entire written register (zeros included), so
        the pattern doubles as the phase-correction projector.
        """
        if self.config.layout == "sequential":
            word = self.book.codeword(m, r)
            return self.code_rows(), tuple(int(b) for b in word)
        tword = format(m, f"0{self.book.t_bits}b")
        rows = self.time_rows(r) + (self.flag_row(r),)
        bits = tuple(int(b) for b in tword) + (1,)
        return rows, bits

    def band_code(self, r: int) -> str:
        """Compressed-register pattern for band r (vacuum stays zero)."""
        if not 1 <= r <= self.config.R:
            raise ConfigError(f"band {r} outside 1..{self.config.R}")
        return format(r, f"0{self.c_bits}b")

    @cached_property
    def compress_folds(self) -> tuple:
        """Parallel layout: (flag mask, XOR mask) per band, band 1 first.

        A pattern holding flag r gets the XOR mask, which clears the flag
        and writes binary(r) on the compressed rows.
        """
        return tuple(
            (1 << self.flag_row(r),
             1 << self.flag_row(r) | _mask(self.comp_rows(), self.band_code(r)))
            for r in range(1, self.config.R + 1)
        )


def _mask(rows, bits) -> int:
    """Pattern with the given bits on the given rows."""
    return sum(1 << q for q, b in zip(rows, bits) if int(b))


# ---- encode run -----------------------------------------------------------------


class SiteState(NamedTuple):
    """One component: sum_i amps[i] |pattern at site i>, pattern 0 = vacuum.

    The vacuum's amps are the unit vector on site 0, since every site then
    holds the same blank register.
    """

    amps: np.ndarray
    pattern: int


@dataclass
class EncodeRun:
    """Mixture of site-vector memory states plus resource accounting.

    components: list of (weight, SiteState, meta) with meta recording the
    ground-truth arrival for verification ({"m": 0} marks the vacuum branch).
    Weights sum to one.
    """

    config: RunConfig
    layout: MemoryLayout
    ledger: ResourceLedger
    components: list
    compressed: bool = False
    decoded: bool = False

    @property
    def book(self) -> Codebook:
        return self.layout.book

    def weights_total(self) -> float:
        return float(sum(w for w, _, _ in self.components))

    def replay(self) -> "EncodeRun":
        """Fresh decodable handle on the same prepared mixture.

        Components are never modified in place (every step builds new
        SiteStates), so repeated decodes of one preparation can share them;
        the ledger is copied so each handle accounts its own consumption.
        """
        return EncodeRun(
            config=self.config,
            layout=self.layout,
            ledger=self.ledger.copy(),
            components=self.components,
            compressed=self.compressed,
            decoded=False,
        )


@lru_cache(maxsize=16)
def _layout(config: RunConfig) -> MemoryLayout:
    """The shared layout of a config; a few configs stay cached."""
    return MemoryLayout(config)


def new_run(config: RunConfig) -> EncodeRun:
    """Fresh all-zeros memories with the ledger primed."""
    layout = _layout(config)
    ledger = ResourceLedger()
    ledger.add("memory_qubits_per_site", layout.qubits_per_site)
    # receiving qubits: one per band at each site, reset between bins
    ledger.add("ancilla_qubits", config.N * config.R)
    vacuum = np.zeros(config.N, dtype=complex)
    vacuum[0] = 1.0
    return EncodeRun(
        config=config,
        layout=layout,
        ledger=ledger,
        components=[(1.0, SiteState(vacuum, 0), {"m": 0})],
    )


def _photon_amps(amps, N: int) -> np.ndarray:
    """Validated, normalized per-site amplitudes of a spatial single photon."""
    amps = np.asarray(amps, dtype=complex)
    if amps.shape != (N,):
        raise EncodeError(
            f"photon amplitudes need shape ({N},) for N={N} sites, "
            f"got {amps.shape}"
        )
    if not np.isfinite(amps).all():
        raise EncodeError("photon amplitudes must be finite")
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise EncodeError("photon amplitudes are all zero")
    return amps / norm


def encode_bin(run: EncodeRun, m: int, photon=None) -> EncodeRun:
    """Advance the run through time bin m.

    ``photon`` is None for a vacuum bin or ``(r, amps)`` for a single photon
    in band r with per-site spatial amplitudes. Vacuum receiving qubits are
    an exact identity (CNOT from |0>, X measurement, correction projector
    orthogonal to every stored codeword), so they are skipped. A photon
    write is one-bit teleportation into blank memories, which in site-vector
    form sets the written pattern (see the module docstring).
    """
    if run.decoded:
        raise EncodeError("run already decoded")
    if run.compressed:
        raise EncodeError("run already compressed")
    if photon is None:
        return run
    r, amps = photon
    run.book.codeword(m, r)  # range check
    written = SiteState(
        _photon_amps(amps, run.config.N), _mask(*run.layout.write_pattern(m, r))
    )
    out = []
    for w, _, meta in run.components:
        if meta.get("m", 0) != 0:
            raise EncodeError(
                "encode_bin writes one photon per run component; "
                "this component already holds one"
            )
        out.append((w, written, {"m": m, "r": r}))
    return EncodeRun(
        config=run.config, layout=run.layout, ledger=run.ledger,
        components=out, compressed=run.compressed,
    )


def _band_matrices(config, band_g):
    """Per-band N x N coherence matrices from flexible user input."""
    N, R = config.N, config.R
    if band_g is None:
        band_g = 1.0
    if np.isscalar(band_g):
        band_g = [band_g] * R
    mats = []
    for g in band_g:
        if np.isscalar(g):
            mat = np.full((N, N), complex(g))
            mat[np.tril_indices(N, -1)] = np.conj(complex(g))
            np.fill_diagonal(mat, 1.0)
        else:
            mat = np.asarray(g, dtype=complex)
            if mat.shape != (N, N):
                raise ConfigError("band g matrix must be N x N")
        if not np.allclose(mat, mat.conj().T, atol=1e-12):
            raise ConfigError("band g matrix must be Hermitian")
        if not np.allclose(np.diag(mat).real, 1.0, atol=1e-12):
            raise ConfigError("band g matrix needs a unit diagonal")
        mats.append(mat)
    if len(mats) != R:
        raise ConfigError("need one g per band")
    return mats


def encode_run_full(config: RunConfig, band_g=None) -> EncodeRun:
    """Exact post-encoding mixture over M weak-source time bins.

    Branch weights follow the at-most-one-photon model: vacuum carries
    (1 - eps)^M, a photon in bin m carries eps (1 - eps)^(m-1), split
    uniformly over the R bands and over each band's coherence eigenstates.
    The weights sum to one identically.
    """
    run = new_run(config)
    base = run.components[0][1]
    eps, M, R = config.eps, config.M, config.R
    comps = [((1 - eps) ** M, base, {"m": 0})]
    if eps > 0:
        mats = _band_matrices(config, band_g)
        eigs = []
        for r, mat in enumerate(mats, start=1):
            vals, vecs = np.linalg.eigh(mat / config.N)
            if vals.min() < -1e-10:
                raise ConfigError("band g matrix is not positive semidefinite")
            eigs.append([
                (float(v), _photon_amps(vecs[:, e], config.N))
                for e, v in enumerate(vals) if v > 1e-12
            ])
        for m in range(1, M + 1):
            p_bin = eps * (1 - eps) ** (m - 1)
            for r in range(1, R + 1):
                pattern = _mask(*run.layout.write_pattern(m, r))
                for lam, u in eigs[r - 1]:
                    comps.append(
                        (p_bin / R * lam, SiteState(u, pattern), {"m": m, "r": r})
                    )
    total = sum(w for w, _, _ in comps)
    if abs(total - 1.0) > 1e-10:
        raise EncodeError(f"branch weights sum to {total}")
    comps = [(w / total, s, meta) for w, s, meta in comps]
    return EncodeRun(
        config=config, layout=run.layout, ledger=run.ledger, components=comps
    )


def encode_single_photon(config: RunConfig, m: int, r: int, amps=None) -> EncodeRun:
    """Deterministic single-photon injection at (m, r) for roundtrip tests.

    ``amps`` defaults to the uniform spatial superposition across sites.
    """
    run = new_run(config)
    if amps is None:
        amps = np.ones(config.N) / np.sqrt(config.N)
    return encode_bin(run, m, (r, amps))


def parallel_frequency_compress(run: EncodeRun) -> EncodeRun:
    """Fold the R per-band flags into the ceil(log2(R+1)) compressed qubits.

    Per site: CNOT from flag r onto the compressed bits set in binary(r),
    then X-measure every flag with the usual projector phase corrections
    (pattern: compressed register holding binary(r) exactly). In site-vector
    form that clears flag r and sets binary(r) on the compressed rows.
    """
    if run.config.layout != "parallel":
        raise EncodeError("frequency compression applies to the parallel layout")
    if run.compressed:
        raise EncodeError("run already compressed")
    layout = run.layout
    out = []
    for w, state, meta in run.components:
        pattern = state.pattern
        for flag, flip in layout.compress_folds:
            if pattern & flag:
                pattern ^= flip
        out.append((w, SiteState(state.amps, pattern), meta))
    return EncodeRun(
        config=run.config, layout=layout, ledger=run.ledger,
        components=out, compressed=True,
    )
