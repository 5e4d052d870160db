"""Shared fixtures and independent closed-form oracles.

The oracles here are deliberately computed from scratch (closed-form
algebra or elementary probability), never through the library code paths
they are used to check.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import settings

import qtur.counting
from qtur import build_da_model, build_ep_model, build_poisson_model
from qtur.operators import LindbladModel

# Examples that run matrix exponentials take a variable time on a loaded
# machine, so no property test has a per-example deadline.
settings.register_profile("qtur", deadline=None)
settings.load_profile("qtur")


def da_steady_state_closed_form(g1, g2, g3, g4) -> np.ndarray:
    """Stationary state of the collective-decay three-level model.

    Direct substitution of the rates into the closed-form solution of the
    stationarity conditions (independent of the numerical solver).
    """
    rho_gg = (g1 * g3 + g1 * g4 + g3 * g4) / (
        g1 * g3 + g1 * g4 + g3 * g2 + g2 * g4 + g3 * g4
    )
    denom = (g1 * g3 + g1 * g4 + g3 * g4) * (2 * g1 + g3 + g4)
    rho_e1 = (g3 + g4) * g2 * (g1 + g4) / denom * rho_gg
    rho_e2 = g2 * (g3 + g4) * (g1 + g3) / denom * rho_gg
    rho_12 = ((g3 + g4) * g1 + 2 * g3 * g4) * g2 / (
        ((g3 + g4) * g1 + g3 * g4) * (2 * g1 + g3 + g4)
    ) * rho_gg
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = rho_gg
    out[1, 1] = rho_e1
    out[2, 2] = rho_e2
    out[1, 2] = out[2, 1] = rho_12
    return out


def da_activity_split_closed_form(g1, g2, g3, g4) -> tuple[float, float]:
    """Diagonal / off-diagonal stationary jump rates, in closed form."""
    rho = da_steady_state_closed_form(g1, g2, g3, g4)
    diag = (
        g1 * (rho[1, 1].real + rho[2, 2].real)
        + g3 * rho[1, 1].real
        + g4 * rho[2, 2].real
        + 2 * g2 * rho[0, 0].real
    )
    offdiag = 2 * g1 * rho[1, 2].real
    return diag, offdiag


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate_model(model: LindbladModel, rng: np.random.Generator) -> LindbladModel:
    """Conjugate a model by a random unitary; the structural conditions
    survive, but the Hamiltonian stops being diagonal in the working basis."""
    q = random_unitary(model.dim, rng)
    return LindbladModel.build(
        q @ model.H @ q.conj().T,
        [q @ c.L @ q.conj().T for c in model.channels],
        ds=[c.ds for c in model.channels],
        partners=[c.partner for c in model.channels],
    )


def random_pure_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_da_model(rng: np.random.Generator, omega_e: float = 1.0) -> LindbladModel:
    return build_da_model(omega_e, *open_uniform(rng, 4))


def random_ep_model(rng: np.random.Generator, omega_e: float = 1.0) -> LindbladModel:
    return build_ep_model(omega_e, *open_uniform(rng, 6))


def ladder_model(dim: int, rng: np.random.Generator, entropy: bool = True) -> LindbladModel:
    """H = diag of seeded levels with a lowering and a raising channel on
    every rung; with ``entropy`` each pair carries ds = ln(down / up)."""
    energies = np.concatenate([[0.0], np.cumsum(rng.uniform(0.8, 1.2, dim - 1))])
    ops, ds, partners = [], [], []
    for k in range(dim - 1):
        down, up = rng.uniform(0.5, 1.5), rng.uniform(0.1, 0.5)
        lower = np.zeros((dim, dim), dtype=complex)
        lower[k, k + 1] = np.sqrt(down)
        ops += [lower, np.sqrt(up / down) * lower.T]
        ds += [float(np.log(down / up)), -float(np.log(down / up))]
        partners += [2 * k + 1, 2 * k]
    if not entropy:
        return LindbladModel.build(np.diag(energies), ops)
    return LindbladModel.build(np.diag(energies), ops, ds=ds, partners=partners)


def random_eigenoperator_model(dim: int, rng: np.random.Generator) -> LindbladModel:
    """A generic diagonal H with jumps L_m = sqrt(gamma_m) |i><j| between
    seeded pairs of distinct levels (each an eigenoperator of H), the
    whole model then rotated by a random unitary. Below d = 3 there are
    fewer level pairs than the d to 2d channels drawn; every pair is then
    taken (none at d = 1)."""
    energies = np.sort(rng.uniform(-2.0, 2.0, dim))
    pairs = [(i, j) for i in range(dim) for j in range(dim) if i != j]
    size = min(int(rng.integers(dim, 2 * dim + 1)), len(pairs))
    chosen = rng.choice(len(pairs), size=size, replace=False)
    ops = []
    for k in sorted(chosen):
        op = np.zeros((dim, dim), dtype=complex)
        op[pairs[k]] = np.sqrt(rng.uniform(0.1, 1.0))
        ops.append(op)
    return rotate_model(LindbladModel.build(np.diag(energies), ops), rng)


def open_uniform(rng: np.random.Generator, n: int):
    out = rng.uniform(0.0, 1.0, n)
    while np.any(out <= 0.0):
        out = np.where(out <= 0.0, rng.uniform(0.0, 1.0, n), out)
    return tuple(float(x) for x in out)


def ground_state(dim: int = 3) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def patch_nth_call(monkeypatch, module, name: str, n: int, replace) -> None:
    """Route call ``n`` (from 0) of ``module.name`` through
    ``replace(original, *args, **kwargs)``; every other call is unchanged."""
    original = getattr(module, name)
    calls = itertools.count()

    def patched(*args, **kwargs):
        if next(calls) == n:
            return replace(original, *args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


def record_exponentials(monkeypatch) -> list:
    """Patch ``qtur.counting.expm`` to append the shape of every matrix it
    exponentiates to the returned list."""
    shapes = []
    original = qtur.counting.expm

    def recorded(a):
        shapes.append(a.shape)
        return original(a)

    monkeypatch.setattr(qtur.counting, "expm", recorded)
    return shapes


def raising(error: Exception):
    """A ``replace`` for :func:`patch_nth_call` that raises ``error``."""

    def replace(original, *args, **kwargs):
        raise error

    return replace


def zero_mean(original, *args, **kwargs):
    """A ``replace`` for :func:`patch_nth_call`: the moments with mean 0."""
    return dataclasses.replace(original(*args, **kwargs), mean=0.0)


@pytest.fixture
def da_equal():
    return build_da_model(1.0, 0.5, 0.5, 0.5, 0.5)


@pytest.fixture
def da_generic():
    return build_da_model(1.0, 0.8, 0.35, 0.6, 0.15)


@pytest.fixture
def ep_generic():
    return build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2)


@pytest.fixture
def ep_equilibrium():
    # paired rates equal: every entropy weight vanishes
    return build_ep_model(1.0, 0.4, 0.4, 0.7, 0.7, 0.25, 0.25)


@pytest.fixture
def poisson():
    return build_poisson_model(0.7)


@pytest.fixture
def scalar_one():
    return np.eye(1, dtype=complex)
