"""Tests for ancilla-interference state transfer."""

import copy
import dataclasses
import hashlib
import itertools
import math
import os
import pickle
import re
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import ive
from scipy.stats import skellam

import teleport_route
from qtelarray import cli, transfer
from qtelarray.codec import RunConfig, encode_single_photon
from qtelarray.netdecode import decode_arrival
from qtelarray.qcore import (
    ModeRegistry,
    QuantumState,
    beam_splitter,
    coherent_amplitudes,
    fock,
)
from qtelarray.transfer import (
    BRANCH_PRUNE,
    GRID_POINTS_MAX,
    AmplitudeTable,
    MC_BLOCK,
    RATIO_TOL,
    Branch,
    Branches,
    coherent_amplitude_table,
    deterministic_fidelity_closed,
    deterministic_transfer,
    find_heralded_optimum,
    heralded_rate_closed,
    heralded_transfer,
    lossy_transfer,
    multiport_amplitude_table,
    network_failure_probability,
    network_fidelity,
    network_monte_carlo,
    network_pair_distribution,
    plus_ancilla_transfer,
    transfer_branches,
)
from qtelarray.util import ConfigError, real

UNIFORM = (2 ** -0.5, 2 ** -0.5)


def _branches_by_record(table, amps, prune=BRANCH_PRUNE):
    """Reference enumeration: one detection record at a time."""
    amps = np.asarray(amps, dtype=complex)
    amps = amps / np.linalg.norm(amps)
    n = len(amps)
    branches = []
    mass = 0.0
    c0, c1 = table.c0, table.c1
    for record in itertools.product(table.outcomes(), repeat=n):
        c0s = np.array([c0.get(o, 0.0) for o in record], dtype=complex)
        c1s = np.array([c1.get(o, 0.0) for o in record], dtype=complex)
        site_amp = np.zeros(n, dtype=complex)
        for s in range(n):
            site_amp[s] = amps[s] * c1s[s] * np.prod(np.delete(c0s, s))
        p = float(np.vdot(site_amp, site_amp).real)
        mass += p
        if p <= prune:
            continue
        phases = np.ones(n, dtype=complex)
        moduli = np.full(n, np.nan)
        for s in range(n):
            if c0s[s] != 0 and c1s[s] != 0:
                with np.errstate(over="ignore", invalid="ignore"):
                    ratio = c1s[s] / c0s[s]
                # a ratio past the float range keeps the phase of c1 / c0
                arg = (np.angle(ratio) if np.isfinite(ratio)
                       else np.angle(c1s[s]) - np.angle(c0s[s]))
                phases[s] = np.exp(-1j * arg)
                moduli[s] = abs(ratio)
        overlap = np.sum(np.conj(amps) * site_amp * phases)
        fid = float(abs(overlap) ** 2 / p)
        finite = np.isfinite(moduli) & (moduli > 0)
        accepted = bool(
            finite.all() and moduli.max() - moduli.min() <= RATIO_TOL * moduli.max()
        )
        branches.append(Branch(record, p, fid, accepted))
    return branches, mass


def _branches_by_index_matrix(table, amps, prune=BRANCH_PRUNE):
    """The route the broadcast enumeration replaced: an (n, K^n) index
    matrix over all records and gathers of c0 and c1 through it. Returns
    (records as outcome positions, probability, fidelity, accepted, mass)."""
    amps = np.asarray(amps, dtype=complex)
    amps = amps / np.linalg.norm(amps)
    n = len(amps)
    outs = table.outcomes()
    c0, c1 = (np.array([m.get(o, 0.0) for o in outs], dtype=complex)
              for m in (table.c0, table.c1))
    both = (c0 != 0) & (c1 != 0)
    ratio = np.divide(c1, c0, out=np.zeros_like(c1), where=both)
    phase = np.exp(-1j * np.angle(ratio))
    modulus = np.abs(ratio)
    modulus[~(np.isfinite(modulus) & (modulus > 0))] = np.nan
    rec = np.indices((len(outs),) * n).reshape(n, -1)
    r0 = c0[rec]
    site_amp = amps[:, None] * c1[rec]
    for s in range(n):
        site_amp[s] *= np.prod(np.delete(r0, s, axis=0), axis=0)
    p = (site_amp.real ** 2 + site_amp.imag ** 2).sum(axis=0)
    mass = float(p.sum())
    keep = np.flatnonzero(p > prune)
    rec, site_amp, p = rec[:, keep], site_amp[:, keep], p[keep]
    overlap = (np.conj(amps)[:, None] * site_amp * phase[rec]).sum(axis=0)
    fid = np.abs(overlap) ** 2 / p
    mod = modulus[rec]
    top = mod.max(axis=0)
    accepted = top - mod.min(axis=0) <= RATIO_TOL * top
    return rec, p, fid, accepted, mass


def assert_matches_oracle(table, amps):
    got, got_mass = transfer_branches(table, amps)
    want, want_mass = _branches_by_record(table, amps)
    assert [b.record for b in got] == [b.record for b in want]
    assert [b.accepted for b in got] == [b.accepted for b in want]
    for field in ("probability", "fidelity"):
        gap = np.abs(np.array([getattr(b, field) for b in got])
                     - np.array([getattr(b, field) for b in want]))
        assert gap.max() <= 1e-12, field
    assert abs(got_mass - want_mass) <= 1e-12


def _complex_amps(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _skellam_support(alpha):
    """Count differences d and their Skellam(x/2, x/2) pmf at x = alpha^2,
    carrying all but < 1e-13 of the mass."""
    x = alpha ** 2
    width = int(np.ceil(x + 12.0 * alpha + 30.0))
    d = np.arange(-width, width + 1)
    p = skellam.pmf(d, x / 2.0, x / 2.0)
    assert abs(p.sum() - 1.0) <= 1e-13
    return d, p


def skellam_sums(alpha, amps):
    """Two-site (deterministic fidelity, heralded rate) summed over the two
    sites' independent count-difference classes; the reference route the
    Bessel closed forms replace."""
    w = np.abs(np.asarray(amps, dtype=complex)) ** 2
    wa, wb = w / w.sum()
    if alpha == 0.0:
        return wa ** 2 + wb ** 2, 0.0
    d, p = _skellam_support(alpha)
    absd = np.abs(d)
    num = (wa * absd[:, None] + wb * absd[None, :]) ** 2
    f = (np.outer(p, p) * num).sum() / alpha ** 2
    pos = d > 0
    rate = 4.0 * (p[pos] ** 2 * d[pos] ** 2).sum() / alpha ** 2
    return float(f), float(rate)


def splitter_output_amplitudes(alpha, cutoff, photon):
    """Full Fock-space splitter amplitudes for |photon> x |alpha>."""
    reg = ModeRegistry([fock("a", cutoff), fock("b", cutoff)])
    camps, _ = coherent_amplitudes(alpha, cutoff)
    vec = np.zeros(reg.dim, dtype=complex)
    for n in range(cutoff + 1):
        vec[reg.basis_index((photon, n))] = camps[n]
    state = QuantumState.from_vector(reg, vec)
    state = beam_splitter(state, "a", "b", max_leakage=1e-2)
    out = {}
    v = state.vector
    for i in range(cutoff + 1):
        for j in range(cutoff + 1):
            amp = v[reg.basis_index((i, j))]
            if abs(amp) > 1e-14:
                out[(i, j)] = complex(amp)
    return out


def _coherent_raw(alpha, i, j):
    """e^{-a^2/2} (a/sqrt2)^i (-a/sqrt2)^j / sqrt(i! j!) for real alpha."""
    log_mag = (
        -alpha ** 2 / 2.0
        + (i + j) * (np.log(alpha) - 0.5 * np.log(2.0))
        - 0.5 * math.lgamma(i + 1)
        - 0.5 * math.lgamma(j + 1)
    )
    return (-1.0) ** j * float(np.exp(log_mag))


def _coherent_by_entry(alpha, cutoff):
    """The (c0, c1) dicts and kind of the coherent table, one entry at a
    time: the route the one-pass builder replaced, with the same errors."""
    real(alpha, "ancilla amplitude alpha", 0, transfer.ALPHA_MAX, "ALPHA_MAX")
    if cutoff < 1:
        raise ConfigError(f"cutoff = {cutoff} must be >= 1")
    if alpha == 0.0:
        return ({(0, 0): 1.0}, {(1, 0): 2 ** -0.5, (0, 1): 2 ** -0.5},
                "coherent(0)")
    c0 = {}
    for i in range(cutoff + 1):
        for j in range(cutoff + 1 - i):
            c0[(i, j)] = _coherent_raw(alpha, i, j)
    c1 = {}
    for i in range(cutoff + 1):
        for j in range(min(cutoff, cutoff + 1 - i) + 1):
            d = i - j
            if d == 0:
                continue
            c1[(i, j)] = _coherent_raw(alpha, i, j) * d / alpha
    for table in (c0, c1):
        mass2 = sum(abs(a) ** 2 for a in table.values())
        if mass2 < sys.float_info.min:
            raise ConfigError(
                f"ancilla amplitude {alpha} at cutoff {cutoff}: the table's "
                f"mass underflows; raise the cutoff toward alpha ** 2"
            )
        mass = np.sqrt(mass2)
        for key in table:
            table[key] /= mass
    return c0, c1, f"coherent({alpha})"


def mapped_table(c0, c1, kind="mapped"):
    """The table holding the mappings ``c0`` and ``c1``: their sorted key
    union as outcomes, with 0 where a mapping has no entry."""
    outs = sorted(set(c0) | set(c1))
    return AmplitudeTable(kind, outs,
                          *([m.get(o, 0.0) for o in outs] for m in (c0, c1)))


def assert_same_table(got, want):
    """Same kind and outcomes, and bit for bit the same complex columns,
    read-only in ``got``."""
    assert got.kind == want.kind
    assert got.outcomes() == want.outcomes()
    for column, expected in zip(got.columns[1:], want.columns[1:]):
        assert column.dtype == complex and column.tobytes() == expected.tobytes()
        assert not column.flags.writeable


class TestAmplitudeTable:
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
    def test_matches_full_fock_simulation(self, alpha):
        # the oracle gate: the truncated-renormalized tables must agree
        # with a cutoff-6 two-mode simulation on every shared outcome
        table = coherent_amplitude_table(alpha, 6)
        for photon, entries in ((0, table.c0), (1, table.c1)):
            sim = splitter_output_amplitudes(alpha, 6, photon)
            assert set(sim) == set(entries)
            worst = max(abs(sim[k] - entries[k]) for k in sim)
            assert worst <= 1e-9

    def test_domains(self):
        table = coherent_amplitude_table(0.8, 6)
        assert set(table.c0) == {
            (i, j) for i in range(7) for j in range(7) if i + j <= 6
        }
        assert set(table.c1) == {
            (i, j)
            for i in range(7)
            for j in range(7)
            if i + j <= 7 and i != j
        }

    @pytest.mark.parametrize("alpha", [0.4, 1.3])
    def test_unit_mass(self, alpha):
        table = coherent_amplitude_table(alpha, 8)
        for entries in (table.c0, table.c1):
            mass = sum(abs(a) ** 2 for a in entries.values())
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_ancilla(self):
        table = coherent_amplitude_table(0.0, 4)
        assert table.c0 == {(0, 0): 1.0}
        assert table.c1[(1, 0)] == pytest.approx(2 ** -0.5, abs=1e-15)
        assert table.c1[(0, 1)] == pytest.approx(2 ** -0.5, abs=1e-15)

    def test_plus_table_hand_values(self):
        table = multiport_amplitude_table(1)
        assert table.c0[(0, 0)] == pytest.approx(2 ** -0.5, abs=1e-12)
        assert table.c0[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert table.c0[(0, 1)] == pytest.approx(-0.5, abs=1e-12)
        assert (0, 0) not in table.c1
        assert table.c1[(1, 0)] == pytest.approx(0.5, abs=1e-12)
        assert table.c1[(0, 1)] == pytest.approx(0.5, abs=1e-12)
        assert table.c1[(2, 0)] == pytest.approx(0.5, abs=1e-12)
        assert table.c1[(0, 2)] == pytest.approx(-0.5, abs=1e-12)

    def test_rejects_bad_arguments(self):
        for alpha in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="ancilla amplitude"):
                coherent_amplitude_table(alpha, 6)
        with pytest.raises(ConfigError):
            coherent_amplitude_table(1.0, 0)
        with pytest.raises(ConfigError):
            multiport_amplitude_table(0)
        for call, name in (
                (lambda: coherent_amplitude_table(0.8, 2.5), "cutoff = 2.5"),
                (lambda: coherent_amplitude_table(0.8, "5"), "cutoff = '5'"),
                (lambda: multiport_amplitude_table(2.5), "ports = 2.5")):
            with pytest.raises(ConfigError, match=re.escape(name)):
                call()
        # any integer type numpy hands out still counts
        assert_same_table(coherent_amplitude_table(0.8, np.int64(5)),
                          coherent_amplitude_table(0.8, 5))
        assert_same_table(multiport_amplitude_table(np.int64(2)),
                          multiport_amplitude_table(2))

    @pytest.mark.parametrize("alpha, cutoff", [(50.0, 5), (27.2, 1)])
    def test_rejects_a_table_whose_mass_underflows(self, alpha, cutoff):
        # at alpha = 50 every entry up to cutoff 5 is about e^{-1250}; at
        # 27.2 the squared entries are subnormal, and the table's mass would
        # come out 0.995
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: coherent_amplitude_table(alpha, cutoff),
                         lambda: heralded_transfer(alpha, cutoff=cutoff)):
                with pytest.raises(ConfigError, match=re.escape(
                        f"amplitude {alpha} at cutoff {cutoff}: the table's "
                        f"mass underflows")):
                    call()


def _assert_same_table(alpha, cutoff):
    try:
        want = mapped_table(*_coherent_by_entry(alpha, cutoff))
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            coherent_amplitude_table(alpha, cutoff)
        return False
    assert_same_table(coherent_amplitude_table(alpha, cutoff), want)
    return True


class TestTableBuild:
    """The one-pass coherent builder against the per-entry route, and the
    one constructor every table goes through."""

    # 5e-324 and 1e-300 build from subnormal and near-subnormal entries;
    # the mass underflows at 27.2 up to cutoff 5, and at 50 up to 40
    @pytest.mark.parametrize("alpha, underflows", [
        (0.0, 0), (5e-324, 0), (1e-300, 0), (0.5, 0), (0.88, 0), (1.2, 0),
        (1, 0), (27.2, 5), (50.0, 40)])
    def test_coherent_matches_the_entry_by_entry_route(self, alpha,
                                                       underflows):
        built = [_assert_same_table(alpha, cutoff) for cutoff in range(1, 41)]
        assert built == [False] * underflows + [True] * (40 - underflows)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.0, 40.0), cutoff=st.integers(1, 40))
    def test_coherent_matches_at_random_amplitudes(self, alpha, cutoff):
        _assert_same_table(alpha, cutoff)

    @pytest.mark.parametrize("given", [np.float32(1.2), np.float16(0.88)])
    def test_coherent_computes_in_float64(self, given):
        # in the narrow type the heralded probability at cutoff 16 read
        # 0.135 for a float32 alpha = 1.2, against 0.199
        got = coherent_amplitude_table(given, 16)
        want = mapped_table(*_coherent_by_entry(float(given), 16))
        assert got.kind == f"coherent({given})"
        assert_same_table(got, dataclasses.replace(want, kind=got.kind))

    def test_coherent_rejects_what_the_entry_route_rejects(self):
        for alpha, cutoff in ((-0.5, 6), (float("nan"), 6), (1.0, 0)):
            with pytest.raises(ConfigError) as want:
                _coherent_by_entry(alpha, cutoff)
            with pytest.raises(ConfigError, match=re.escape(
                    str(want.value))):
                coherent_amplitude_table(alpha, cutoff)

    # sha256 of the entries' keys and hex floats as the dense Fock matrix
    # and one matrix-vector product per ancilla column make them
    @pytest.mark.parametrize("ports, digest", [(1, "e8e135fd971fe89c"),
                                               (2, "a3c4211f53937233"),
                                               (3, "6976beadf1ec27e1")])
    def test_multiport_tables_unchanged(self, ports, digest):
        table = multiport_amplitude_table(ports)
        text = repr([[(k, v.real.hex(), v.imag.hex()) for k, v in m.items()]
                     for m in (table.c0, table.c1)] + [table.kind])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
        # every outcome has an entry in one view at least
        assert_same_table(table, mapped_table(table.c0, table.c1, table.kind))

    @pytest.mark.parametrize("ports", [1, 2, 3])
    def test_multiport_tables_match_the_permanent_expansion(self, ports):
        """Every entry, present or not, within 1e-15 of the 50-digit sum
        over ancilla photon sets of perm(U[in, out]) / sqrt(prod o!), with
        U the exact (P+1)-port Fourier matrix and each set weighted
        2^(-P/2)."""
        k = ports + 1
        table = multiport_amplitude_table(ports)
        with mpmath.workdps(50):
            U = [[mpmath.expjpi(mpmath.mpf(2 * j * p) / k) / mpmath.sqrt(k)
                  for p in range(k)] for j in range(k)]
            weight = mpmath.mpf(2) ** (-mpmath.mpf(ports) / 2)
            for head, view in ((0, table.c0), (1, table.c1)):
                for out in itertools.product(range(k + 1), repeat=k):
                    cols = [p for p in range(k) for _ in range(out[p])]
                    exact = mpmath.mpc(0)
                    for photons in itertools.product((0, 1), repeat=ports):
                        rows = [m for m, n in enumerate((head, *photons)) if n]
                        if len(rows) != len(cols):
                            continue
                        exact += weight * mpmath.fsum(
                            mpmath.fprod(U[r][c] for r, c in zip(rows, perm))
                            for perm in itertools.permutations(cols))
                    exact /= mpmath.sqrt(mpmath.fprod(
                        mpmath.factorial(n) for n in out))
                    assert abs(view.get(out, 0) - complex(exact)) < 1e-15

    def test_views_are_new_dicts_of_the_nonzero_entries(self):
        # at alpha = 5e-324 and cutoff 40 the high-count entries underflow
        # to 0: the columns keep them, the views drop them
        table = coherent_amplitude_table(5e-324, 40)
        outs, c0, c1 = table.columns
        assert (c0 == 0).any() and (c1 == 0).any()
        for view, column in ((table.c0, c0), (table.c1, c1)):
            assert type(view) is dict
            assert list(view) == [o for o, a in zip(outs, column) if a != 0]
            assert list(view.values()) == column[column != 0].tolist()
        table.c0.clear()
        assert table.c0 and table.c0 is not table.c0

    @pytest.mark.parametrize("make", [
        lambda: coherent_amplitude_table(0.88, 4),
        lambda: multiport_amplitude_table(1),
        lambda: AmplitudeTable("m", [(0,), (1,)], [0.6, 0.8], [0.0, 1.0]),
    ])
    def test_columns_are_read_only(self, make):
        table = make()
        for column in table.columns[1:]:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.amp0 = None
        with pytest.raises(AttributeError):
            table.columns = None

    def test_constructor_copies_what_it_is_given(self):
        given = np.array([0.6, 0.8])
        table = AmplitudeTable("m", [(0,), (1,)], given, [0.0, 1.0])
        given[0] = 1.0
        assert table.c0 == {(0,): 0.6, (1,): 0.8}
        assert given.flags.writeable
        assert table.outcomes() == ((0,), (1,))

    @pytest.mark.parametrize("outs, amp0, amp1, named", [
        ([(0,), (1,)], [1.0], [0.0, 1.0],
         "amp0 must have shape (2,), got (1,)"),
        ([(0,), (1,)], [1.0, 0.0], [[0.0, 1.0]],
         "amp1 must have shape (2,), got (1, 2)"),
        ([(0,), (1,)], [1.0, 0.0], "ab",
         "amp1 must be an array of complex numbers, got 'ab'"),
        ([(0,)], [float("nan")], [1.0],
         "amp0 must be finite, got (nan+0j) at index (0,)"),
        ([(0,)], [1.0], [complex(0, math.inf)],
         "amp1 must be finite, got infj at index (0,)"),
        ([(0,), (1,), (0,)], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
         "outcomes [(0,), (1,), (0,)] are not distinct"),
    ], ids=["short", "2-D", "text", "nan", "inf", "duplicate"])
    def test_constructor_refuses_malformed_columns(self, outs, amp0, amp1,
                                                   named):
        with pytest.raises(ConfigError, match=re.escape(f"table 'm': {named}")):
            AmplitudeTable("m", outs, amp0, amp1)

    @pytest.mark.parametrize("make", [
        lambda: coherent_amplitude_table(0.88, 4),
        lambda: multiport_amplitude_table(2),
        lambda: mapped_table({(0,): 1.0}, {(1,): 1.0}),
    ])
    def test_copies_keep_entries_and_columns(self, make):
        table = make()
        for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert twin is not table
            assert_same_table(twin, table)


class TestVectorizedEnumeration:
    @pytest.mark.parametrize("sites", [2, 3])
    def test_plus_table(self, sites):
        assert_matches_oracle(multiport_amplitude_table(1),
                              _complex_amps(sites, 1))

    @pytest.mark.parametrize("ports, sites", [(2, 2), (2, 3), (3, 2)])
    def test_multiport_tables(self, ports, sites):
        assert_matches_oracle(multiport_amplitude_table(ports),
                              _complex_amps(sites, ports))

    @pytest.mark.parametrize("alpha", [0.5, 0.88, 1.2])
    @pytest.mark.parametrize("sites, cutoff", [(2, 8), (3, 4)])
    def test_coherent_tables(self, alpha, sites, cutoff):
        table = coherent_amplitude_table(alpha, cutoff)
        assert_matches_oracle(table, _complex_amps(sites, cutoff))
        assert_matches_oracle(table, np.ones(sites))

    @settings(max_examples=30, deadline=None)
    @given(
        ports=st.sampled_from([1, 2]),
        parts=st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
            min_size=2, max_size=3,
        ).filter(lambda xs: sum(a * a + b * b for a, b in xs) > 1e-6),
    )
    def test_random_complex_amplitudes(self, ports, parts):
        assume(ports == 1 or len(parts) == 2)  # keeps the oracle fast
        amps = [complex(a, b) for a, b in parts]
        assert_matches_oracle(multiport_amplitude_table(ports), amps)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), sites=st.integers(2, 3))
    def test_random_complex_tables(self, seed, sites):
        # the shipped tables all have real ratios c1/c0; complex ratios of
        # two moduli and a few missing entries exercise the phase
        # corrections and every branch of the acceptance rule
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        c0 = rng.normal(size=k) + 1j * rng.normal(size=k)
        c1 = c0 * rng.choice([0.5, 1.0], size=k) * np.exp(
            2j * np.pi * rng.random(k))
        tables = []
        for c in (c0, c1):
            kept = [o for o in range(k) if rng.random() > 0.2] or [0]
            norm = np.linalg.norm(c[kept])
            tables.append({o: c[o] / norm for o in kept})
        table = mapped_table(*tables, kind="random")
        assert_matches_oracle(table, _complex_amps(sites, seed))


class TestColumnarBranches:
    """``transfer_branches`` keeps its records as columns and builds a
    ``Branch`` only for the item read."""

    def _enumeration(self):
        table = coherent_amplitude_table(0.88, 4)
        amps = _complex_amps(3, 4)
        got, _ = transfer_branches(table, amps)
        want, _ = _branches_by_record(table, amps)
        return got, want

    def test_sequence_semantics(self):
        got, want = self._enumeration()
        assert isinstance(got, Branches)
        assert len(got) == len(want) > 3
        for i in (0, 1, -1, -len(got), len(got) - 1):
            assert got[i].record == want[i].record
            assert got[i].accepted is want[i].accepted
            assert got[i] == list(got)[i]
        for i in (len(got), -len(got) - 1):
            with pytest.raises(IndexError):
                got[i]
        assert got[1:7:2] == list(got)[1:7:2]
        assert got[::-1] == list(got)[::-1]
        assert got[5:2] == []
        listed = list(got)
        assert [b.record for b in listed] == [b.record for b in want]
        assert [b.accepted for b in listed] == [b.accepted for b in want]
        assert all(type(b.probability) is float and type(b.fidelity) is float
                   and type(b.accepted) is bool for b in listed)

    def test_items_match_columns(self):
        got, _ = self._enumeration()
        for i, b in enumerate(got):
            assert b.record == tuple(got.outs[k] for k in got.outcome[:, i])
            assert b.probability == got.probability[i]
            assert b.fidelity == got.fidelity[i]
            assert b.accepted == got.accepted[i]

    @pytest.mark.parametrize("make", [
        lambda: dict(alpha=1.2, cutoff=16, amps=_complex_amps(2, 0)),
        lambda: dict(alpha=0.88, cutoff=5, amps=_complex_amps(3, 1)),
        lambda: dict(table=multiport_amplitude_table(2),
                     amps=_complex_amps(3, 2)),
        lambda: dict(alpha=0.0, cutoff=3),
    ])
    def test_figures_equal_python_sums(self, make):
        det = deterministic_transfer(**make())
        branches = list(det.branches)
        assert det.fidelity == (
            sum(b.probability * b.fidelity for b in branches) / det.mass
        )
        her = heralded_transfer(**make())
        kept = [b for b in her.branches if b.accepted]
        p = sum(b.probability for b in kept)
        assert her.probability == p
        assert her.fidelity == (
            sum(b.probability * b.fidelity for b in kept) / p if p > 0 else 0.0
        )

    def test_figures_build_no_branch(self, monkeypatch):
        def no_branch(*args):
            raise AssertionError("a Branch was built")

        monkeypatch.setattr(transfer, "Branch", no_branch)
        deterministic_transfer(1.2, cutoff=10)
        her = heralded_transfer(0.88, amps=(1.0, 1j, 0.5), cutoff=4)
        assert len(her.branches) > 0
        with pytest.raises(AssertionError, match="a Branch was built"):
            her.branches[0]

    def test_transfer_functions_enumerate_through_the_module(self,
                                                              monkeypatch):
        # the perfbench tracer wraps the module attribute
        calls = []
        real = transfer.transfer_branches

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(transfer, "transfer_branches", counted)
        deterministic_transfer(0.8, cutoff=6)
        heralded_transfer(0.8, cutoff=6)
        heralded_transfer(table=multiport_amplitude_table(1), amps=UNIFORM)
        assert len(calls) == 3

    @pytest.mark.parametrize("sites, make", [
        (2, lambda: coherent_amplitude_table(1.2, 16)),
        (3, lambda: coherent_amplitude_table(0.88, 5)),
        (4, lambda: coherent_amplitude_table(1.2, 3)),
        (5, lambda: coherent_amplitude_table(0.6, 2)),
        (4, lambda: multiport_amplitude_table(1)),
        (3, lambda: multiport_amplitude_table(2)),
    ])
    def test_bit_identical_to_index_matrix_route(self, sites, make):
        # from four sites on, numpy sums each record's site terms pairwise
        # when the site axis is contiguous; the columns keep that layout
        table = make()
        for amps in (np.ones(sites), _complex_amps(sites, sites)):
            got, mass = transfer_branches(table, amps)
            want = _branches_by_index_matrix(table, amps)
            assert mass.hex() == want[4].hex()
            for name, col in zip(("outcome", "probability", "fidelity",
                                  "accepted"), want):
                assert getattr(got, name).tobytes() == col.tobytes(), name

    @settings(max_examples=10, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
            min_size=2, max_size=3,
        ).filter(lambda xs: sum(a * a + b * b for a, b in xs) > 1e-6),
        cutoff=st.integers(1, 6),
        alpha=st.floats(0.0, 2.0),
    )
    # a subnormal alpha overflows c1/c0; the phase comes from arg c1 - arg c0
    @example(parts=[(0.0, 0.0), (0.0, 1.0)], cutoff=1, alpha=2.225073858507e-311)
    def test_coherent_columns_match_oracle(self, parts, cutoff, alpha):
        amps = [complex(a, b) for a, b in parts]
        assert_matches_oracle(coherent_amplitude_table(alpha, cutoff), amps)


class TestClosedForms:
    # values frozen from the count-difference aggregation
    @pytest.mark.parametrize("alpha, want", [
        (2.0, 0.797610),
        (3.0, 0.809333),
        (3.1, 0.809912),
        (3.5, 0.811743),
        (4.0, 0.813295),
        (8.0, 0.817064),
    ])
    def test_deterministic_fidelity_values(self, alpha, want):
        assert deterministic_fidelity_closed(alpha) == pytest.approx(
            want, abs=1e-6
        )

    def test_alpha_three_mean_identity(self):
        # f = (alpha^2 + E|d|^2) / (2 alpha^2) with E|d| the mean absolute
        # difference of two Poisson(4.5) counts
        mean_abs = 2.359660576658527
        assert deterministic_fidelity_closed(3.0) == pytest.approx(
            (9.0 + mean_abs ** 2) / 18.0, abs=1e-12
        )

    def test_large_alpha_asymptote(self):
        gap = 0.5 + 1.0 / np.pi - deterministic_fidelity_closed(8.0)
        assert 1e-3 < gap < 1.5e-3

    def test_sweep_monotone(self):
        alphas = np.arange(0.5, 8.01, 0.5)
        f = np.array([deterministic_fidelity_closed(a) for a in alphas])
        assert np.all(np.diff(f) > 0)
        assert f[0] > 0.5

    def test_vacuum_ancilla_is_which_path(self):
        # without an ancilla the detectors reveal the photon's site
        assert deterministic_fidelity_closed(0.0) == pytest.approx(0.5)
        amps = (0.8, 0.6)
        want = 0.8 ** 4 + 0.6 ** 4
        assert deterministic_fidelity_closed(0.0, amps) == pytest.approx(
            want, abs=1e-12
        )
        assert heralded_rate_closed(0.0) == 0.0

    def test_heralded_optimum(self):
        alpha, rate = find_heralded_optimum(0.0, 2.0, 0.005)
        assert alpha == pytest.approx(0.88, abs=1e-9)
        assert rate == pytest.approx(0.219092, abs=1e-6)
        # arange's inclusive end would add 0.6, past hi
        assert find_heralded_optimum(0.0, 0.5, 0.3)[0] == 0.3

    @pytest.mark.parametrize("lo, hi, step", [
        (0.0, 2.0, 0.0), (0.0, 2.0, -0.005), (2.0, 0.0, 0.005),
        (0.0, 2.0, float("nan")), (float("nan"), 2.0, 0.005),
        (0.0, float("inf"), 0.005)])
    def test_heralded_optimum_rejects_bad_grids(self, lo, hi, step):
        with pytest.raises(ConfigError, match=re.escape(
                f"bad alpha grid [{lo}, {hi}] step {step}")):
            find_heralded_optimum(lo, hi, step)

    @pytest.mark.parametrize("lo, hi, step, count", [
        # numpy's bare size error, before the cap
        (0.0, 1e300, 1e-300, "inf"),
        (-1e308, 1e308, 1.0, "inf"),
        (0.0, 2.0, 2.0 / GRID_POINTS_MAX, "1.049e+06"),
    ])
    def test_heralded_optimum_caps_its_points(self, lo, hi, step, count):
        with pytest.raises(ConfigError, match=re.escape(
                f"alpha grid [{lo}, {hi}] with alpha_step = {step} has {count} "
                f"points, more than GRID_POINTS_MAX = 1048576")):
            find_heralded_optimum(lo, hi, step)

    def test_heralded_optimum_cap_is_the_cli_cap(self, monkeypatch):
        monkeypatch.setattr(transfer, "GRID_POINTS_MAX", 10)
        # nine points: (hi - lo) / step = 8 stays under the cap
        assert find_heralded_optimum(0.0, 2.0, 0.25)[0] == 1.0
        assert cli.main(["transfer", "--set", "alpha_step=0.25"]) == 0
        with pytest.raises(ConfigError, match="has 10 points"):
            find_heralded_optimum(0.0, 2.0, 0.2)
        assert cli.main(["transfer", "--set", "alpha_step=0.2"]) == 2

    @pytest.mark.parametrize("alpha, cutoff", [(0.6, 10), (1.0, 14)])
    @pytest.mark.parametrize("amps", [UNIFORM, (0.8, 0.6)])
    def test_enumeration_matches_closed_form(self, alpha, cutoff, amps):
        det = deterministic_transfer(alpha, amps=amps, cutoff=cutoff)
        her = heralded_transfer(alpha, amps=amps, cutoff=cutoff)
        assert det.fidelity == pytest.approx(
            deterministic_fidelity_closed(alpha, amps), abs=1e-8
        )
        assert her.probability == pytest.approx(
            heralded_rate_closed(alpha), abs=1e-8
        )
        assert det.mass == pytest.approx(1.0, abs=1e-9)
        accepted = [b for b in her.branches if b.accepted]
        assert accepted
        assert min(b.fidelity for b in accepted) >= 1.0 - 1e-9

    @pytest.mark.parametrize("alpha", np.linspace(0.1, 20.0, 40))
    def test_skellam_pmf_matches_scipy_stats(self, alpha):
        # the closed forms rest on the Skellam(x/2, x/2) pmf being
        # e^{-x} I_|d|(x) at x = alpha^2
        d, want = _skellam_support(alpha)
        assert np.abs(ive(np.abs(d), alpha ** 2) - want).max() <= 1e-15

    @pytest.mark.parametrize("alpha", np.linspace(0.0, 25.0, 11))
    def test_closed_forms_match_skellam_sums(self, alpha):
        for amps in (UNIFORM, *(_complex_amps(2, seed) for seed in range(3))):
            f, rate = skellam_sums(alpha, amps)
            assert abs(deterministic_fidelity_closed(alpha, amps) - f) <= 1e-12
            assert abs(heralded_rate_closed(alpha) - rate) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.88, 1.2])
    @pytest.mark.parametrize("amps", [np.ones(3), _complex_amps(3, 7)])
    def test_three_site_fidelity_matches_enumeration(self, alpha, amps):
        # the gap left is the cutoff-12 truncation
        want = deterministic_transfer(alpha, amps=amps, cutoff=12).fidelity
        assert abs(deterministic_fidelity_closed(alpha, amps) - want) <= 1e-7

    @pytest.mark.parametrize("alpha", [0.0, 0.88, 3.0])
    def test_uniform_fidelity_follows_network_scaling(self, alpha):
        f2 = deterministic_fidelity_closed(alpha)
        for N in range(2, 65):
            got = deterministic_fidelity_closed(alpha, np.ones(N))
            assert abs(network_fidelity(N, f2) - got) <= 1e-12

    def test_large_alpha_asymptotes(self):
        alpha = 1e3
        assert abs(deterministic_fidelity_closed(alpha)
                   - (0.5 + 1.0 / np.pi)) <= 1e-6
        want = 1.0 / (2.0 * alpha * np.sqrt(np.pi))
        assert abs(heralded_rate_closed(alpha) / want - 1.0) <= 1e-6

    @pytest.mark.parametrize("alpha", [-0.5, -3.0, float("nan")])
    def test_closed_forms_reject_bad_alpha(self, alpha):
        with pytest.raises(ConfigError):
            deterministic_fidelity_closed(alpha)
        with pytest.raises(ConfigError):
            heralded_rate_closed(alpha)

    def test_closed_forms_reject_alpha_past_limit(self):
        # scipy's ive returns NaN past an argument of about 1.07e9
        for alpha in (1e5, float("inf")):
            for fn in (deterministic_fidelity_closed, heralded_rate_closed):
                with pytest.raises(ConfigError, match=re.escape(str(alpha))):
                    fn(alpha)

    def test_enumeration_needs_a_cutoff(self):
        # the closed forms are called by name; the transfer functions
        # always enumerate a table and never fall back to a closed form
        for fn in (deterministic_transfer, heralded_transfer):
            with pytest.raises(ConfigError, match="cutoff"):
                fn(0.88)
            with pytest.raises(ConfigError, match="cutoff"):
                fn(0.88, amps=np.ones(3))
            with pytest.raises(ConfigError, match="cutoff"):
                fn()
        # a table given with alpha or a cutoff is refused, not read past
        table = coherent_amplitude_table(0.88, 5)
        for fn in (deterministic_transfer, heralded_transfer):
            for extra in ({"alpha": 0.88}, {"cutoff": 5},
                          {"alpha": 0.88, "cutoff": 5}):
                with pytest.raises(ConfigError, match=re.escape(
                        "give a table, or alpha with a cutoff")):
                    fn(table=table, **extra)
        # the enumeration route still answers for three coherent sites;
        # cutoff 12 gives 0.0753473858377, so cutoff 6 is 1e-7 off
        enumerated = heralded_transfer(0.88, amps=np.ones(3), cutoff=6)
        assert enumerated.probability == pytest.approx(0.0753474, abs=1e-6)


class TestPlusAncillaPair:
    def test_two_site_deterministic_and_heralded(self):
        table = multiport_amplitude_table(1)
        det = deterministic_transfer(table=table)
        her = heralded_transfer(table=table)
        # hand enumeration: each site fails with probability 3/4 given the
        # photon, every failure reveals the site, so f = 1/4 + 3/4 * 1/2
        assert det.fidelity == pytest.approx(0.625, abs=1e-12)
        assert det.mass == pytest.approx(1.0, abs=1e-12)
        assert her.probability == pytest.approx(0.25, abs=1e-12)
        assert her.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_two_site_weighted(self):
        wa, wb = 0.64, 0.36
        det = deterministic_transfer(table=multiport_amplitude_table(1),
                                     amps=(0.8, 0.6))
        want = 0.25 + 0.75 * (wa ** 2 + wb ** 2)
        assert det.fidelity == pytest.approx(want, abs=1e-12)
        her = heralded_transfer(table=multiport_amplitude_table(1),
                                amps=(0.8, 0.6))
        assert her.probability == pytest.approx(0.25, abs=1e-12)
        assert her.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_which_path_branch_fidelity(self):
        # a (0, 0) record at one site pins the photon to the other
        branches, _ = transfer_branches(multiport_amplitude_table(1),
                                        (0.8, 0.6))
        rec = {b.record: b for b in branches}
        tied = rec[((1, 0), (0, 0))]
        assert not tied.accepted
        assert tied.fidelity == pytest.approx(0.64, abs=1e-12)

    def test_three_sites(self):
        amps = np.ones(3) / np.sqrt(3.0)
        her = heralded_transfer(table=multiport_amplitude_table(1), amps=amps)
        assert her.probability == pytest.approx(0.125, abs=1e-12)
        assert her.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_rejects_degenerate_amplitudes(self):
        with pytest.raises(ConfigError):
            transfer_branches(multiport_amplitude_table(1), (1.0,))
        with pytest.raises(ConfigError):
            transfer_branches(multiport_amplitude_table(1), (0.0, 0.0))

    # unscaled, these squared sums overflow (probability, fidelity and
    # mass 0; an all-zero carrier), underflow to 0 ("all zero"), or go
    # subnormal (fidelity and carrier trace 1.0000111); the last one's
    # modulus overflows as well (mass NaN)
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-160, 5e-324,
                                       1e308 + 1e308j])
    def test_amplitudes_past_the_normal_range_scale_first(self, scale):
        cfg = RunConfig(N=3, M=2, R=1)
        # the same vector with its largest part at 1
        unit = scale / max(abs(scale.real), abs(scale.imag))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in (heralded_transfer, deterministic_transfer):
                got = route(0.8, amps=[scale, scale], cutoff=5)
                want = route(0.8, amps=[unit, unit], cutoff=5)
                assert (got.probability, got.fidelity, got.mass) == (
                    want.probability, want.fidelity, want.mass)
            assert (deterministic_fidelity_closed(0.8, [scale, scale])
                    == deterministic_fidelity_closed(0.8, [unit, unit]))
            # the codec normalizes the photon's site amplitudes the same way
            got, want = (decode_arrival(
                encode_single_photon(cfg, 1, 1, amps=[a] * 3)).state
                for a in (scale, unit))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(0, np.nan)])
    def test_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ConfigError, match="amplitudes must be finite"):
            heralded_transfer(0.8, amps=[bad, 1.0], cutoff=5)
        # the site amplitude is named, not the ancilla amplitude
        with pytest.raises(ConfigError, match="amplitudes must be finite"):
            deterministic_fidelity_closed(0.8, amps=[bad, 1.0])


class TestMultiport:
    def test_three_ancilla_ports(self):
        # observed values for P = 3 (four-port Fourier mixing), frozen
        table = multiport_amplitude_table(3)
        det = deterministic_transfer(table=table)
        her = heralded_transfer(table=table)
        assert det.fidelity == pytest.approx(0.78125, abs=1e-12)
        assert det.mass == pytest.approx(1.0, abs=1e-12)
        assert her.probability == pytest.approx(0.333984375, abs=1e-12)
        accepted = [b for b in her.branches if b.accepted]
        assert min(b.fidelity for b in accepted) >= 1.0 - 1e-9

    def test_more_ports_beat_the_splitter(self):
        base = deterministic_transfer(
            table=multiport_amplitude_table(1)
        ).fidelity
        better = deterministic_transfer(
            table=multiport_amplitude_table(3)
        ).fidelity
        assert better > base


class TestPlusAncillaTeleport:
    @pytest.mark.parametrize("theta", [0.0, np.pi / 4, np.pi / 2, np.pi])
    def test_exact_teleport(self, theta):
        out = plus_ancilla_transfer(theta)
        assert out.probability == pytest.approx(0.5, abs=1e-12)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        probs = {b.record: b.probability for b in out.branches}
        # hand enumeration of the five detection records
        assert probs[(0, 0)] == pytest.approx(0.25, abs=1e-12)
        assert probs[(1, 0)] == pytest.approx(0.25, abs=1e-12)
        assert probs[(0, 1)] == pytest.approx(0.25, abs=1e-12)
        assert probs[(2, 0)] == pytest.approx(0.125, abs=1e-12)
        assert probs[(0, 2)] == pytest.approx(0.125, abs=1e-12)
        assert out.mass == pytest.approx(1.0, abs=1e-12)

    def test_rejected_branches_lose_the_phase(self):
        out = plus_ancilla_transfer(np.pi / 3)
        by_record = {b.record: b for b in out.branches}
        for record in ((0, 0), (2, 0), (0, 2)):
            assert not by_record[record].accepted
            assert by_record[record].fidelity == pytest.approx(0.5, abs=1e-12)


class TestLossyTransfer:
    @pytest.mark.parametrize("eta", np.round(np.arange(0.1, 1.01, 0.1), 10))
    def test_matches_closed_forms(self, eta):
        # derived by hand: T = eta^2, p = T(2-T)/2, f = (3-T)/(2(2-T))
        out = lossy_transfer(float(eta))
        T = float(eta) ** 2
        assert out.probability == pytest.approx(T * (2 - T) / 2, abs=1e-10)
        assert out.fidelity == pytest.approx(
            (3 - T) / (2 * (2 - T)), abs=1e-10
        )

    def test_perfect_detector_endpoint(self):
        out = lossy_transfer(1.0)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        assert out.probability == pytest.approx(0.5, abs=1e-12)

    def test_monotone_in_transmission(self):
        etas = np.arange(0.1, 1.01, 0.1)
        outs = [lossy_transfer(float(e)) for e in etas]
        f = np.array([o.fidelity for o in outs])
        p = np.array([o.probability for o in outs])
        assert np.all(np.diff(f) >= 0)
        assert np.all(np.diff(p) >= 0)

    def test_blind_detector_never_accepts(self):
        assert lossy_transfer(0.0).probability == 0.0

    def test_rejects_bad_transmission(self):
        with pytest.raises(ConfigError):
            lossy_transfer(1.2)


ORACLE_ETAS = np.round(np.arange(0.0, 1.0001, 0.05), 10)
ORACLE_THETAS = (0.0, np.pi / 4, np.pi / 2, np.pi, 2.3)


def assert_teleport_matches(got, want):
    assert [b.record for b in got.branches] == [b.record for b in want.branches]
    assert [b.accepted for b in got.branches] == [
        b.accepted for b in want.branches
    ]
    for g, w in zip(got.branches, want.branches):
        assert abs(g.probability - w.probability) <= 1e-12, g.record
        assert abs(g.fidelity - w.fidelity) <= 1e-12, g.record
    assert (got.kind, got.extra) == (want.kind, want.extra)
    assert abs(got.probability - want.probability) <= 1e-12
    assert abs(got.fidelity - want.fidelity) <= 1e-12
    assert abs(got.mass - want.mass) <= 1e-12


class TestTeleportRoute:
    """Closed-form teleport records against the dense state-vector route."""

    @pytest.mark.parametrize("theta", ORACLE_THETAS)
    def test_lossy_matches_dense_route(self, theta):
        for eta in ORACLE_ETAS:
            assert_teleport_matches(
                lossy_transfer(float(eta), theta),
                teleport_route.lossy_transfer(float(eta), theta),
            )

    @pytest.mark.parametrize("theta", ORACLE_THETAS)
    def test_plus_matches_dense_route(self, theta):
        assert_teleport_matches(plus_ancilla_transfer(theta),
                                teleport_route.plus_ancilla_transfer(theta))

    def test_plus_teleport_is_the_lossless_case(self):
        plus, lossless = plus_ancilla_transfer(0.7), lossy_transfer(1.0, 0.7)
        assert plus.branches == lossless.branches
        assert (plus.probability, plus.fidelity) == (
            lossless.probability, lossless.fidelity)

    def test_faint_records_are_pruned(self):
        # T^2/8 falls below BRANCH_PRUNE first, then the single counts
        T = 2e-6
        out = lossy_transfer(T ** 0.5)
        assert [b.record for b in out.branches] == [(0, 0), (0, 1), (1, 0)]
        assert [b.record for b in lossy_transfer(1e-7).branches] == [(0, 0)]
        assert lossy_transfer(0.0).fidelity == 0.0

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_phase(self, theta):
        for call in (lambda: plus_ancilla_transfer(theta),
                     lambda: lossy_transfer(0.5, theta)):
            with pytest.raises(ConfigError,
                               match=re.escape(f"theta = {theta}")):
                call()


def enumerate_network(N, p1):
    """Brute-force failure rate and survivor distribution."""
    q = 1.0 - p1
    p_fail = 0.0
    dist = {}
    for pattern in itertools.product((0, 1), repeat=N):
        weight = np.prod([p1 if s else q for s in pattern])
        k = sum(pattern)
        for site in range(N):
            w = weight / N
            if not pattern[site] or k <= 1:
                p_fail += w
            else:
                dist[k] = dist.get(k, 0.0) + w
    total = sum(dist.values())
    return p_fail, {k: v / total for k, v in dist.items()}


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
                  np.random.Philox, np.random.SFC64]


def _same_state(a, b) -> bool:
    """Bit generator states are equal (MT19937 and Philox hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return type(a) is type(b) and np.array_equal(a, b)


class TestNetwork:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    @pytest.mark.parametrize("p1", [0.2, 0.469, 0.7])
    def test_formulas_match_enumeration(self, N, p1):
        p_fail, dist = enumerate_network(N, p1)
        assert network_failure_probability(N, p1) == pytest.approx(
            p_fail, abs=1e-12
        )
        got = network_pair_distribution(N, p1)
        assert set(got) == set(range(2, N + 1))
        for k in got:
            assert got[k] == pytest.approx(dist.get(k, 0.0), abs=1e-12)

    # N = 1029 is the largest N whose binomial coefficients fit a float
    @pytest.mark.parametrize("N", [2, 4, 8, 1029])
    def test_distribution_normalized(self, N):
        for p1 in (0.1, np.sqrt(0.22), 0.9):
            total = sum(network_pair_distribution(N, p1).values())
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("N", [3, 6])
    def test_monte_carlo_agrees(self, N):
        p1 = float(np.sqrt(0.22))
        mc = network_monte_carlo(N, p1, 30000, rng=97 + N)
        p_fail = network_failure_probability(N, p1)
        se = np.sqrt(p_fail * (1 - p_fail) / mc["trials"])
        assert abs(mc["p_fail"] - p_fail) <= 3 * se
        dist = network_pair_distribution(N, p1)
        for k, pk in dist.items():
            got = mc["k_counts"][k] / mc["successes"]
            se_k = np.sqrt(pk * (1 - pk) / mc["successes"])
            assert abs(got - pk) <= 4 * se_k + 1e-12

    @staticmethod
    def _assert_monte_carlo_matches_one_draw(monkeypatch, N, p1, trials,
                                             bit_generator, workers,
                                             buffered=False):
        monkeypatch.setattr(transfer, "_mc_workers", lambda draws: workers)
        rng = np.random.Generator(bit_generator(41))
        got_rng = np.random.Generator(bit_generator(41))
        if buffered:
            # leaves half of a 64-bit draw buffered for the next bounded
            # integer draw
            rng.integers(0, 5, size=1)
            got_rng.integers(0, 5, size=1)
        succ = rng.random((trials, N)) < p1
        photon = rng.integers(0, N, size=trials)
        k = succ.sum(axis=1)
        fail = ~succ[np.arange(trials), photon] | (k <= 1)
        counts = np.bincount(k[~fail], minlength=N + 1)
        want = {
            "trials": trials,
            "p_fail": float(fail.mean()),
            "k_counts": {kk: int(counts[kk]) for kk in range(2, N + 1)},
            "successes": int((~fail).sum()),
        }
        assert network_monte_carlo(N, p1, trials, rng=got_rng) == want
        assert _same_state(got_rng.bit_generator.state,
                           rng.bit_generator.state)

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_monte_carlo_blocks_match_one_draw(self, monkeypatch,
                                               bit_generator, workers):
        # three blocks, the last one ragged; each worker's blocks are
        # MC_BLOCK // workers uniforms
        self._assert_monte_carlo_matches_one_draw(
            monkeypatch, 8, 0.469, 2 * (MC_BLOCK // 8) + 7, bit_generator,
            workers)

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("N, p1, trials, buffered", [
        # N not a multiple of 8, cuts between workers ragged
        (9, 0.8, 70001, False),
        (300, 0.1, 5000, False),
        (2, 0.3, 1000, False),
        (5, 0.0, 300, False),
        (5, 1.0, 300, False),
        # fewer trials than workers
        (3, 0.5, 2, False),
        (4, 0.6, 1, False),
        # a 32-bit half left over from an earlier draw
        (6, 0.469, 1001, True),
        # uint32 photon sites, a few trials of 70000 uniforms each
        (70000, 0.5, 3, False),
        (70000, 0.3, 5, True),
    ])
    def test_monte_carlo_odd_sizes_match_one_draw(self, monkeypatch, N, p1,
                                                  trials, buffered,
                                                  bit_generator, workers):
        self._assert_monte_carlo_matches_one_draw(
            monkeypatch, N, p1, trials, bit_generator, workers, buffered)

    @pytest.mark.parametrize("N", [2, 3, 256, 257, 65537, 2 ** 32,
                                   2 ** 32 + 3])
    @pytest.mark.parametrize("size", [
        1, MC_BLOCK // 8 - 1, MC_BLOCK // 8, MC_BLOCK // 8 + 1,
        2 * (MC_BLOCK // 8) + 5])
    @pytest.mark.parametrize("buffered", [False, True])
    def test_photon_sites_match_one_draw(self, N, size, buffered):
        rng = np.random.default_rng(23)
        got_rng = np.random.default_rng(23)
        if buffered:  # half of a 64-bit draw left for the next bounded draw
            rng.integers(0, 5, size=1)
            got_rng.integers(0, 5, size=1)
        want = rng.integers(0, N, size=size)
        got = transfer._photon_sites(got_rng, N, size)
        assert np.array_equal(got, want)
        assert got.dtype == np.min_scalar_type(N - 1)
        assert got.itemsize == (1 if N <= 256 else 2 if N <= 65536
                                else 4 if N <= 2 ** 32 else 8)
        assert got_rng.bit_generator.state == rng.bit_generator.state

    def test_tally_takes_every_site_dtype(self):
        photon = np.random.default_rng(2).integers(0, 5, size=1000)
        want = transfer._tally(np.random.PCG64(4), 5, 0.5, photon, 64)
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
            got = transfer._tally(np.random.PCG64(4), 5, 0.5,
                                  photon.astype(dtype), 64)
            assert got[0] == want[0]
            assert np.array_equal(got[1], want[1])

    def test_monte_carlo_worker_error_reaches_caller(self, monkeypatch):
        tally = transfer._tally

        def failing(bit_generator, N, p1, photon, block):
            if len(photon) == 4:  # the second of two workers, trials 3..6
                raise ValueError("worker failed")
            return tally(bit_generator, N, p1, photon, block)

        monkeypatch.setattr(transfer, "_mc_workers", lambda draws: 2)
        monkeypatch.setattr(transfer, "_tally", failing)
        rng = np.random.default_rng(8)
        before = rng.bit_generator.state
        threads = threading.active_count()
        with pytest.raises(ValueError, match="worker failed"):
            network_monte_carlo(5, 0.5, 7, rng=rng)
        assert threading.active_count() == threads
        assert rng.bit_generator.state == before

    def test_monte_carlo_worker_count(self):
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        assert transfer._mc_workers(1) == 1
        assert transfer._mc_workers(2 * MC_BLOCK - 1) == 1
        assert transfer._mc_workers(2 * MC_BLOCK) == min(2, cpus)
        assert transfer._mc_workers(10 ** 6 * MC_BLOCK) == cpus

    def test_fidelity_scaling(self):
        assert network_fidelity(2, 0.93) == pytest.approx(0.93, abs=1e-15)
        assert network_fidelity(5, 1.0) == pytest.approx(1.0, abs=1e-15)
        # hand value: (1 + 3 * 0.5) / 4
        assert network_fidelity(4, 0.75) == pytest.approx(0.625, abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError, match="N = 1"):
            network_fidelity(1, 0.9)
        for f2 in (float("nan"), -0.1, 1.5):
            with pytest.raises(ConfigError):
                network_fidelity(4, f2)
        with pytest.raises(ConfigError):
            network_failure_probability(4, 1.5)
        with pytest.raises(ConfigError):
            network_pair_distribution(4, 0.0)
        with pytest.raises(ConfigError,
                           match=r"N = 1030 outside 2\.\.MAX_PAIR_SITES = 1029"):
            network_pair_distribution(1030, 0.5)

    @pytest.mark.parametrize("N, p1, trials, name", [
        (1, 0.5, 100, "N = 1"),
        (4, 1.5, 100, "p1 = 1.5"),
        (4, -0.1, 100, "p1 = -0.1"),
        (4, float("nan"), 100, "p1 = nan"),
        (4, 0.5, 0, "trials = 0"),
        (4, 0.5, -3, "trials = -3"),
    ])
    def test_monte_carlo_rejects_bad_input_before_drawing(self, N, p1,
                                                          trials, name):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match=re.escape(name)):
            network_monte_carlo(N, p1, trials, rng=rng)
        assert rng.bit_generator.state == before
