"""Built-in model constructors and the model JSON schema.

The two three-level systems share a ground state |g> and degenerate
excited states |e1>, |e2> at energy gap omega_E. One variant carries
coherent collective decay/excitation channels plus two plain decays and
is used for activity statistics; the other adds the reverse of every
transition so local detailed balance holds, and is used for entropy
production. A one-dimensional Poisson emitter rounds out the fixtures:
its count statistics are known in closed form, which makes it the
saturation witness for the rate-form uncertainty bound.

Basis ordering is [|g>, |e1>, |e2>]; entropy changes on paired channels
come from solving the detailed-balance relation, ds = ln(rate / reverse
rate).
"""

from __future__ import annotations

import json

import numpy as np

from .counting import CountingObservable
from .operators import LindbladModel


def _ket(i: int, dim: int = 3) -> np.ndarray:
    v = np.zeros((dim, 1), dtype=complex)
    v[i, 0] = 1.0
    return v


def _excited_hamiltonian(omega_e: float) -> np.ndarray:
    return omega_e * np.diag([0.0, 1.0, 1.0]).astype(complex)


def _check_rates(rates) -> None:
    if any(g <= 0 for g in rates):
        raise ValueError(f"all rates must be positive, got {tuple(rates)}")


def build_da_model(omega_e: float, g1: float, g2: float, g3: float, g4: float) -> LindbladModel:
    """Three-level system with collective decay/excitation and two plain decays.

    Channels: sqrt(g1)|g>(<e1|+<e2|), sqrt(g2)(|e1>+|e2>)<g|,
    sqrt(g3)|g><e1|, sqrt(g4)|g><e2|. Transition frequencies come out as
    (omega_e, -omega_e, omega_e, omega_e).
    """
    _check_rates((g1, g2, g3, g4))
    g, e1, e2 = _ket(0), _ket(1), _ket(2)
    ops = [
        np.sqrt(g1) * g @ (e1 + e2).conj().T,
        np.sqrt(g2) * (e1 + e2) @ g.conj().T,
        np.sqrt(g3) * g @ e1.conj().T,
        np.sqrt(g4) * g @ e2.conj().T,
    ]
    return LindbladModel.build(_excited_hamiltonian(omega_e), ops)


def build_ep_model(
    omega_e: float,
    g1: float,
    g2: float,
    g3: float,
    g4: float,
    g5: float,
    g6: float,
) -> LindbladModel:
    """Three-level system where every transition has its reverse.

    Pairs (1,2), (3,4), (5,6) with ds = ln(forward rate / reverse rate),
    so local detailed balance holds by construction.
    """
    _check_rates((g1, g2, g3, g4, g5, g6))
    g, e1, e2 = _ket(0), _ket(1), _ket(2)
    ops = [
        np.sqrt(g1) * g @ (e1 + e2).conj().T,
        np.sqrt(g2) * (e1 + e2) @ g.conj().T,
        np.sqrt(g3) * g @ e1.conj().T,
        np.sqrt(g4) * e1 @ g.conj().T,
        np.sqrt(g5) * g @ e2.conj().T,
        np.sqrt(g6) * e2 @ g.conj().T,
    ]
    ds13 = float(np.log(g1 / g2))
    ds34 = float(np.log(g3 / g4))
    ds56 = float(np.log(g5 / g6))
    return LindbladModel.build(
        _excited_hamiltonian(omega_e),
        ops,
        ds=[ds13, -ds13, ds34, -ds34, ds56, -ds56],
        partners=[1, 0, 3, 2, 5, 4],
    )


def build_poisson_model(rate: float) -> LindbladModel:
    """One-dimensional emitter: jumps arrive as a Poisson process."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return LindbladModel.build(
        np.zeros((1, 1), dtype=complex), [np.sqrt(rate) * np.eye(1, dtype=complex)]
    )


def antisymmetric_current_weights(model: LindbladModel, free_weights) -> tuple:
    """Expand weights given once per pair into a full antisymmetric vector.

    ``free_weights`` supplies one value per channel pair, attached to the
    lower channel index of each pair and negated on the partner.
    """
    weights = [None] * model.n_channels
    free = list(free_weights)
    for m, c in enumerate(model.channels):
        if c.partner is None:
            raise ValueError(f"channel {m} is unpaired; cannot form a current")
        if weights[m] is None:
            if not free:
                raise ValueError("not enough free weights for the channel pairs")
            w = float(free.pop(0))
            weights[m] = w
            weights[c.partner] = -w
    if free:
        raise ValueError("too many free weights for the channel pairs")
    return tuple(weights)


def default_observable(model: LindbladModel) -> CountingObservable:
    """The observable counted when no weights are given.

    With every channel paired it is a current: +1 on the lower channel of
    each pair and -1 on its partner (for the built-in ep model, the net
    flux into |g>). Otherwise it is the total jump count.
    """
    if model.n_channels and all(c.partner is not None for c in model.channels):
        pairs = sum(1 for m, c in enumerate(model.channels) if c.partner > m)
        weights = antisymmetric_current_weights(model, [1.0] * pairs)
        return CountingObservable(weights, antisymmetric=True)
    return CountingObservable.total_count(model.n_channels)


# --- JSON schema -----------------------------------------------------------
#
# { "dim": int,
#   "H": {"re": [[...]], "im": [[...]]},
#   "channels": [ {"L": {"re": [[...]], "im": [[...]]},
#                  "partner": int|null, "ds": number|null} ] }
#
# Transition frequencies are derived on load, never stored.


def _matrix_to_json(a: np.ndarray) -> dict:
    return {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}


def _key(obj, key: str, where: str):
    """``obj[key]``, or a ValueError naming the missing key and where."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"model JSON: {where} has no key {key!r}")
    return obj[key]


def _matrix_from_json(obj: dict, where: str) -> np.ndarray:
    out = np.asarray(_key(obj, "re", where), dtype=float).astype(complex)
    out.imag = np.asarray(_key(obj, "im", where), dtype=float)  # 1j * inf has a NaN real part
    return out


def model_to_json(model: LindbladModel) -> dict:
    return {
        "dim": model.dim,
        "H": _matrix_to_json(model.H),
        "channels": [
            {"L": _matrix_to_json(c.L), "partner": c.partner, "ds": c.ds}
            for c in model.channels
        ],
    }


def model_from_json(obj: dict) -> LindbladModel:
    dim = int(_key(obj, "dim", "the model"))
    h = _matrix_from_json(_key(obj, "H", "the model"), "H")
    if h.shape != (dim, dim):
        raise ValueError(f"H shape {h.shape} does not match dim {dim}")
    ops, ds, partners = [], [], []
    for m, ch in enumerate(obj.get("channels", [])):
        ops.append(_matrix_from_json(_key(ch, "L", f"channel {m}"), f"channel {m} L"))
        ds.append(ch.get("ds"))
        partners.append(ch.get("partner"))
    return LindbladModel.build(h, ops, ds=ds, partners=partners)


def save_model(model: LindbladModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2)


def load_model(path) -> LindbladModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))
