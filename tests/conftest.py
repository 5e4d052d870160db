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
from scipy.linalg import expm

import qtur.counting
from qtur import build_da_model, build_ep_model, build_poisson_model
from qtur.engine import build_generator, propagated_state, vec
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
        [q @ L @ q.conj().T for L in model.jump_ops],
        ds=model.ds,
        partners=model.partners,
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


def random_detailed_balance_model(dim: int, rng: np.random.Generator) -> LindbladModel:
    """The paired variant of :func:`random_eigenoperator_model`: each seeded
    pair of levels i < j gets sqrt(gamma) |i><j| and sqrt(gamma') |j><i|
    with ds = +-ln(gamma / gamma'), so local detailed balance holds; d to 2d
    channels, the whole model then rotated by a random unitary."""
    energies = np.sort(rng.uniform(-2.0, 2.0, dim))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    size = min(int(rng.integers(-(-dim // 2), dim + 1)), len(pairs))
    ops, ds, partners = [], [], []
    for k in sorted(rng.choice(len(pairs), size=size, replace=False)):
        down, up = rng.uniform(0.1, 1.0, 2)
        lower = np.zeros((dim, dim), dtype=complex)
        lower[pairs[k]] = np.sqrt(down)
        ops += [lower, np.sqrt(up / down) * lower.T]
        ds += [float(np.log(down / up)), -float(np.log(down / up))]
        partners += [len(ops) - 1, len(ops) - 2]
    return rotate_model(LindbladModel.build(np.diag(energies), ops, ds=ds, partners=partners), rng)


def assert_local_detailed_balance(model: LindbladModel) -> None:
    """Every channel is exp(ds/2) times its partner's adjoint, and the
    partner's ds is the negative, each to rounding."""
    for L, ds, p in zip(model.jump_ops, model.ds, model.partners):
        assert model.ds[p] == pytest.approx(-ds, rel=0, abs=1e-12)
        assert np.allclose(L, np.exp(ds / 2) * model.jump_ops[p].conj().T, rtol=0, atol=1e-12)


def open_uniform(rng: np.random.Generator, n: int):
    out = rng.uniform(0.0, 1.0, n)
    while np.any(out <= 0.0):
        out = np.where(out <= 0.0, rng.uniform(0.0, 1.0, n), out)
    return tuple(float(x) for x in out)


def ground_state(dim: int = 3) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def patch_nth_draw(monkeypatch, module, name: str, n: int, result) -> None:
    """Make entry ``n`` (from 0, counted over every call) of the per-draw
    results of the stacked ``module.name`` come out as ``result``, or as
    ``result(entry)`` for a callable such as :func:`zero_mean`; every other
    entry is unchanged."""
    original = getattr(module, name)
    seen = itertools.count()
    swap = result if callable(result) else lambda item: result

    def patched(*args, **kwargs):
        out = original(*args, **kwargs)
        return [swap(item) if next(seen) == n else item for item in out]

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


_ROUTE = qtur.counting._route


def liouville_route(model, reduced, rho):
    """A stand-in for ``qtur.counting._route`` that always takes the
    Liouville route, which battery takes where the reduction does not hold."""
    return _ROUTE(model, False, rho)


def liouville_state(model, rho0, t, coherent=True):
    """rho(t) on the Liouville route, exp(L t) vec rho0 from the d^2-square
    generator: the reference for ``qtur.counting.evolve``."""
    return propagated_state(expm(build_generator(model, coherent) * t) @ vec(rho0))


def assert_close(got, want, scale=0.0, rel=1e-12):
    """|got - want| <= rel max(|got|, |want|, scale) elementwise, or both NaN."""
    got, want = np.asarray(got), np.asarray(want)
    size = np.maximum(np.maximum(np.abs(got), np.abs(want)), scale)
    ok = (np.abs(got - want) <= rel * size) | (np.isnan(got) & np.isnan(want))
    assert ok.all(), np.max(np.abs(got - want) / size)


def zero_mean(moments):
    """A ``result`` for :func:`patch_nth_draw`: the moments with mean 0."""
    return dataclasses.replace(moments, mean=0.0)


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
