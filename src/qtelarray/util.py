"""Shared helpers: seeded RNG plumbing, config parsing, the DFT unitary."""

from __future__ import annotations

import numpy as np


def make_rng(seed_or_rng) -> np.random.Generator:
    """Coerce a seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def parse_key_value(text: str) -> dict:
    """Parse ``key = value`` lines into a string dict.

    Blank lines and lines starting with ``#`` are skipped; a repeated key or
    a line without ``=`` raises ValueError. Values keep their raw string
    form; callers coerce and validate.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def qft_matrix(n: int) -> np.ndarray:
    """Discrete Fourier unitary with entries omega^{jk}/sqrt(n)."""
    if n < 1:
        raise ValueError("qft size must be >= 1")
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return np.exp(2j * np.pi * j * k / n) / np.sqrt(n)
