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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import SupportState, QuantumState, log2_ceil, qubit_registry
from .util import make_rng

LAYOUTS = ("sequential", "parallel")


class ConfigError(ValueError):
    """Bad run configuration."""


class EncodeError(RuntimeError):
    """Protocol misuse during encoding."""


# ---- codebook ----------------------------------------------------------------


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

    def delta(self, earlier: "ResourceLedger") -> dict:
        return {
            name: getattr(self, name) - getattr(earlier, name)
            for name in LEDGER_FIELDS
        }


# ---- memory layout -------------------------------------------------------------


class MemoryLayout:
    """Labels and write patterns of the per-site memory registers."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.book = Codebook(config.M, config.R)
        self.c_bits = log2_ceil(config.R + 1)

    @property
    def qubits_per_site(self) -> int:
        book = self.book
        if self.config.layout == "sequential":
            return book.length
        return self.config.R * book.t_bits + self.config.R + self.c_bits

    def sequential_register(self, i: int):
        return tuple(f"s{i}_c{p}" for p in range(self.book.length))

    def time_register(self, i: int, r: int):
        return tuple(f"s{i}_r{r}_t{p}" for p in range(self.book.t_bits))

    def flag_label(self, i: int, r: int) -> str:
        return f"s{i}_f{r}"

    def comp_register(self, i: int):
        return tuple(f"s{i}_k{p}" for p in range(self.c_bits))

    def site_labels(self, i: int):
        if self.config.layout == "sequential":
            return self.sequential_register(i)
        labels = []
        for r in range(1, self.config.R + 1):
            labels.extend(self.time_register(i, r))
        labels.extend(
            self.flag_label(i, r) for r in range(1, self.config.R + 1)
        )
        labels.extend(self.comp_register(i))
        return tuple(labels)

    def all_labels(self):
        out = []
        for i in range(self.config.N):
            out.extend(self.site_labels(i))
        return tuple(out)

    def write_pattern(self, i: int, m: int, r: int):
        """(labels, bits) a photon at (m, r) imposes on site i's registers.

        The labels cover the entire written register (zeros included), so
        the pattern doubles as the phase-correction projector.
        """
        if self.config.layout == "sequential":
            word = self.book.codeword(m, r)
            return self.sequential_register(i), tuple(int(b) for b in word)
        tword = format(m, f"0{self.book.t_bits}b")
        labels = self.time_register(i, r) + (self.flag_label(i, r),)
        bits = tuple(int(b) for b in tword) + (1,)
        return labels, bits

    def band_code(self, r: int) -> str:
        """Compressed-register pattern for band r (vacuum stays zero)."""
        if not 1 <= r <= self.config.R:
            raise ConfigError(f"band {r} outside 1..{self.config.R}")
        return format(r, f"0{self.c_bits}b")


# ---- encode run -----------------------------------------------------------------


@dataclass
class EncodeRun:
    """Mixture of compact pure memory states plus resource accounting.

    components: list of (weight, SupportState, meta) with meta recording the
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

        Components are immutable (every gate returns a new SupportState), so
        repeated decodes of one preparation can share them; the ledger is
        copied so each handle accounts its own consumption.
        """
        return EncodeRun(
            config=self.config,
            layout=self.layout,
            ledger=self.ledger.copy(),
            components=self.components,
            compressed=self.compressed,
            decoded=False,
        )

    def dense_state(self) -> QuantumState:
        """Materialize the memory mixture as a dense state (small runs)."""
        labels = self.components[0][1].labels
        reg = qubit_registry(labels)
        comps = [(w, sup.to_vector()) for w, sup, _ in self.components]
        return QuantumState.from_components(reg, comps)


def new_run(config: RunConfig) -> EncodeRun:
    """Fresh all-zeros memories with the ledger primed."""
    layout = MemoryLayout(config)
    ledger = ResourceLedger()
    ledger.add("memory_qubits_per_site", layout.qubits_per_site)
    # receiving qubits: one per band at each site, reset between bins
    ledger.add("ancilla_qubits", config.N * config.R)
    vacuum = SupportState.zeros(layout.all_labels())
    return EncodeRun(
        config=config,
        layout=layout,
        ledger=ledger,
        components=[(1.0, vacuum, {"m": 0})],
    )


def _measure_and_correct(work, label, labels, bits, rng, verify):
    """X-measure one qubit and undo the minus outcome's back-action.

    The -1 branch gets the projector phase on ``labels`` holding ``bits``.
    ``verify=True`` asserts that both corrected branches agree; ``rng``
    picks a branch by its probability, None takes the first.
    """
    branches = work.measure_branches(label, basis="X")
    corrected = [
        post.phase_if_match(labels, bits) if outcome == -1 else post
        for outcome, _p, post in branches
    ]
    if verify and len(corrected) == 2:
        if abs(corrected[0].inner(corrected[1]) - 1.0) >= 1e-12:
            raise EncodeError(
                f"X branches of {label} disagree after phase correction"
            )
    if rng is None:
        return corrected[0]
    pick = rng.choice(len(branches), p=[p for _, p, _ in branches])
    return corrected[int(pick)]


def _write_photon(layout, sup, m, r, amps, rng, verify):
    """One-bit-teleportation write of a spatial single photon into memory.

    ``amps`` are the per-site amplitudes of the photon. Returns the new
    SupportState; measurement outcomes leave no trace after the projector
    phase corrections, which ``verify=True`` asserts branch by branch.
    """
    N = layout.config.N
    amps = np.asarray(amps, dtype=complex)
    recv = tuple(f"recv{i}" for i in range(N))
    photon = SupportState(
        recv, {1 << i: amps[i] for i in range(N) if amps[i] != 0},
        normalize=True,
    )
    work = sup.tensor(photon)
    for i in range(N):
        labels, bits = layout.write_pattern(i, m, r)
        for lab, b in zip(labels, bits):
            if b:
                work = work.apply_cnot(recv[i], lab)
    for i in range(N):
        labels, bits = layout.write_pattern(i, m, r)
        work = _measure_and_correct(work, recv[i], labels, bits, rng, verify)
    return work


def encode_bin(run: EncodeRun, m: int, photon=None, rng=None, verify=False) -> EncodeRun:
    """Advance the run through time bin m.

    ``photon`` is None for a vacuum bin or ``(r, amps)`` for a single photon
    in band r with per-site spatial amplitudes. Vacuum receiving qubits are
    an exact identity (CNOT from |0>, X measurement, correction projector
    orthogonal to every stored codeword), so they are skipped.

    ``verify=True`` checks that both X outcomes agree after correction on
    every measured qubit; ``rng`` samples outcomes instead (same result).
    """
    if run.decoded:
        raise EncodeError("run already decoded")
    if run.compressed:
        raise EncodeError("run already compressed")
    if photon is None:
        return run
    r, amps = photon
    run.book.codeword(m, r)  # range check
    out = []
    for w, sup, meta in run.components:
        if meta.get("m", 0) != 0:
            raise EncodeError(
                "encode_bin writes one photon per run component; "
                "this component already holds one"
            )
        new_sup = _write_photon(run.layout, sup, m, r, amps, rng, verify)
        out.append((w, new_sup, {"m": m, "r": r}))
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


def encode_run_full(config: RunConfig, band_g=None, rng=None, verify=False) -> EncodeRun:
    """Exact post-encoding mixture over M weak-source time bins.

    Branch weights follow the at-most-one-photon model: vacuum carries
    (1 - eps)^M, a photon in bin m carries eps (1 - eps)^(m-1), split
    uniformly over the R bands and over each band's coherence eigenstates.
    The weights sum to one identically.
    """
    rng = make_rng(config.seed) if rng is None else rng
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
            eigs.append(
                [(float(v), vecs[:, e]) for e, v in enumerate(vals) if v > 1e-12]
            )
        for m in range(1, M + 1):
            p_bin = eps * (1 - eps) ** (m - 1)
            for r in range(1, R + 1):
                for lam, u in eigs[r - 1]:
                    sup = _write_photon(run.layout, base, m, r, u, rng, verify)
                    comps.append((p_bin / R * lam, sup, {"m": m, "r": r}))
    total = sum(w for w, _, _ in comps)
    if abs(total - 1.0) > 1e-10:
        raise EncodeError(f"branch weights sum to {total}")
    comps = [(w / total, s, meta) for w, s, meta in comps]
    return EncodeRun(
        config=config, layout=run.layout, ledger=run.ledger, components=comps
    )


def encode_single_photon(config: RunConfig, m: int, r: int, amps=None,
                         rng=None, verify=False) -> EncodeRun:
    """Deterministic single-photon injection at (m, r) for roundtrip tests.

    ``amps`` defaults to the uniform spatial superposition across sites.
    """
    run = new_run(config)
    if amps is None:
        amps = np.ones(config.N) / np.sqrt(config.N)
    rng = make_rng(config.seed) if rng is None else rng
    return encode_bin(run, m, (r, amps), rng=rng, verify=verify)


def parallel_frequency_compress(run: EncodeRun, rng=None, verify=False) -> EncodeRun:
    """Fold the R per-band flags into the ceil(log2(R+1)) compressed qubits.

    Per site: CNOT from flag r onto the compressed bits set in binary(r),
    then X-measure every flag with the usual projector phase corrections
    (pattern: compressed register holding binary(r) exactly).
    """
    if run.config.layout != "parallel":
        raise EncodeError("frequency compression applies to the parallel layout")
    if run.compressed:
        raise EncodeError("run already compressed")
    layout = run.layout
    N, R = run.config.N, run.config.R
    rng = make_rng(run.config.seed + 1) if rng is None else rng
    out = []
    for w, sup, meta in run.components:
        work = sup
        for i in range(N):
            comp = layout.comp_register(i)
            for r in range(1, R + 1):
                flag = layout.flag_label(i, r)
                for lab, b in zip(comp, layout.band_code(r)):
                    if b == "1":
                        work = work.apply_cnot(flag, lab)
            for r in range(1, R + 1):
                pattern = tuple(int(b) for b in layout.band_code(r))
                work = _measure_and_correct(
                    work, layout.flag_label(i, r), comp, pattern, rng, verify
                )
        out.append((w, work, meta))
    return EncodeRun(
        config=run.config, layout=layout, ledger=run.ledger,
        components=out, compressed=True,
    )
