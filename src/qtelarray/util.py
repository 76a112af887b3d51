"""Shared helpers: the input error and its three rules (``count`` for
integers, ``real`` for float scalars, ``array`` for numeric arrays), seeded
RNG plumbing, config parsing, the site-amplitude normalizer, the DFT
unitary."""

from __future__ import annotations

import math
import numbers
import operator
import reprlib
import sys

import numpy as np


class ConfigError(ValueError):
    """Malformed input: a bad configuration, size or argument. Every layer
    raises it (or a subclass) naming the input; the CLI exits 2 on it."""


def count(value, name: str, low: int = 0, high: int | None = None,
          high_name: str | None = None) -> int:
    """``value`` as an int in ``low..high`` (no upper end when ``high`` is
    None), or ConfigError naming ``name``, the value and the bound it broke.

    Anything ``operator.index`` takes counts, numpy integers included; a
    float (even 4.0), a string or None does not. ``high_name`` names the
    constant ``high`` comes from.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} = {value!r} must be an integer") from None
    if high is None:
        if value < low:
            raise ConfigError(f"{name} = {value} must be >= {low}")
    elif not low <= value <= high:
        bound = f"{high_name} = {high}" if high_name else high
        raise ConfigError(f"{name} = {value} outside {low}..{bound}")
    return value


def real(value, name: str, low: float = -math.inf, high: float = math.inf,
         high_name: str | None = None) -> float:
    """``value`` as a finite float in [low, high], or ConfigError naming
    ``name``, the value and the bound it broke.

    Anything ``numbers.Real`` takes counts, numpy's real scalars included;
    a string, None, a complex number or an array does not. ``high_name``
    names the constant ``high`` comes from.
    """
    if not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} = {value!r} must be a real number")
    try:
        value = float(value)
    except OverflowError:  # an int past the float range
        value = math.inf if value > 0 else -math.inf
    if math.isfinite(value) and low <= value <= high:
        return value
    if low == -math.inf and high == math.inf:
        raise ConfigError(f"{name} = {value} must be finite")
    bound = f"{high_name} = {high:.6g}" if high_name else high
    raise ConfigError(f"{name} = {value} must lie in [{low}, {bound}]")


def array(value, name: str, dtype, shape=None) -> np.ndarray:
    """``value`` as a finite ndarray of ``dtype`` (float or complex) in
    ``shape``, or ConfigError naming ``name``, what it got and the rule.

    Converts with ``np.asarray``, so an ndarray of ``dtype`` is not copied.
    Strings, None, other objects, ragged nesting and, for a float ``dtype``,
    complex numbers are refused. ``shape`` None takes any shape, a None
    axis in it any length, and ``()`` a scalar.
    """
    kind = "complex" if dtype is complex else "real"
    try:
        out = np.asarray(value)
    except ValueError:  # ragged nesting
        out = np.asarray(None)  # an object, refused below
    if out.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise ConfigError(f"{name} must be an array of {kind} numbers, "
                          f"got {reprlib.repr(value)}")
    if shape is not None and out.shape != shape and (len(shape) != out.ndim
            or any(n not in (None, k) for n, k in zip(shape, out.shape))):
        need = str(tuple(shape)).replace("None", "any")
        raise ConfigError(f"{name} must have shape {need}, got {out.shape}")
    out = np.asarray(out, dtype=dtype)
    if np.count_nonzero(np.isfinite(out)) != out.size:  # faster than all()
        at = np.unravel_index(np.argmin(np.isfinite(out)), out.shape)
        where = f" at index {tuple(map(int, at))}" if at else ""
        raise ConfigError(f"{name} must be finite, got {out[at]}{where}")
    return out


def make_rng(seed_or_rng) -> np.random.Generator:
    """Coerce a seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def parse_key_value(text: str) -> dict:
    """Parse ``key = value`` lines into a string dict.

    Blank lines and lines starting with ``#`` are skipped; a repeated key or
    a line without ``=`` raises ConfigError. Values keep their raw string
    form; callers coerce and validate.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def unit_amplitudes(amps) -> np.ndarray:
    """Site amplitudes over their norm, in the bits ``np.linalg.norm`` gives;
    a squared norm past the normal float range (inf, subnormal or 0) is taken
    again after dividing by the largest part, with no numpy warning. Raises
    ConfigError for input ``array`` refuses as a complex vector, or one that
    is all zero."""
    return _unit(array(amps, "site amplitudes", complex, (None,)),
                 "site amplitudes")


def _unit(amps: np.ndarray, name: str) -> np.ndarray:
    """:func:`unit_amplitudes` of a complex vector ``array`` has checked as
    ``name``, the name its all-zero error gives."""
    re, im = amps.real, amps.imag
    with np.errstate(over="ignore", under="ignore"):
        sq = float(re.dot(re) + im.dot(im))  # np.linalg.norm's sum
    if sys.float_info.min <= sq < math.inf:
        return amps / math.sqrt(sq)
    if not amps.any():
        raise ConfigError(f"{name} are all zero")
    top = max(np.abs(re).max(), np.abs(im).max())
    # part by part, since a complex division by a subnormal overflows
    return _unit(re / top + 1j * (im / top), name)


def qft_matrix(n: int) -> np.ndarray:
    """Discrete Fourier unitary with entries omega^{jk}/sqrt(n)."""
    n = count(n, "n", 1)
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / np.sqrt(n)
