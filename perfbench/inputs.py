"""Seeded workload inputs, made with numpy alone; the program only ever
receives the generated matrices."""

from __future__ import annotations

import json

import numpy as np


def ginibre(d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random mixed state G G^dagger / tr."""
    g = ginibre(d, rng)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def pure(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def product(p: int, rng: np.random.Generator) -> np.ndarray:
    """tau (x) mu of two random mixed p x p states."""
    return np.kron(density(p, rng), density(p, rng))


def fourier(d: int, rng: np.random.Generator) -> np.ndarray:
    """|f_k><f_k| for a seeded column k of the d-point DFT."""
    k = int(rng.integers(d))
    f = np.exp(2j * np.pi * k * np.arange(d) / d) / np.sqrt(d)
    return np.outer(f, f.conj())


def bell(p: int) -> np.ndarray:
    """Maximally entangled (|00> + ... + |p-1 p-1>) / sqrt(p)."""
    psi = np.zeros(p * p, dtype=complex)
    psi[:: p + 1] = 1 / np.sqrt(p)
    return np.outer(psi, psi.conj())


def hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian H with spectral radius of order one."""
    g = ginibre(d, rng)
    return (g + g.conj().T) / (2 * np.sqrt(d))


def write_matrix(path, M: np.ndarray) -> None:
    """The repository's state-file format: rows of [re, im] pairs."""
    with open(path, "w") as fh:
        json.dump([[[float(z.real), float(z.imag)] for z in row] for row in M], fh)
