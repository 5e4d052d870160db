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


def _excited_hamiltonian(omega_e: float) -> np.ndarray:
    return omega_e * np.diag([0.0, 1.0, 1.0]).astype(complex)


# Channel m of a built-in model is sqrt(rate m) times template m, a 0/1
# matrix in the basis [|g>, |e1>, |e2>].
_G, _E1, _E2 = np.eye(3, dtype=complex)
_DOWN, _UP = np.outer(_G, _E1 + _E2), np.outer(_E1 + _E2, _G)
_DA_TEMPLATES = np.array([_DOWN, _UP, np.outer(_G, _E1), np.outer(_G, _E2)])
_EP_TEMPLATES = np.array(
    [_DOWN, _UP, np.outer(_G, _E1), np.outer(_E1, _G), np.outer(_G, _E2), np.outer(_E2, _G)]
)


def _rate_rows(rates, n_rates: int) -> np.ndarray:
    """``rates`` as an (N, n_rates) float array; a row with a rate <= 0 is refused."""
    rates = np.asarray(rates, dtype=float).reshape(-1, n_rates)
    bad = (rates <= 0).any(axis=1)
    if bad.any():
        row = tuple(rates[np.argmax(bad)].tolist())
        raise ValueError(f"all rates must be positive, got {row}")
    return rates


def build_da_models(omega_e: float, rates, first: int | None = None) -> list[LindbladModel]:
    """:func:`build_da_model` of each row (g1, g2, g3, g4) of ``rates``,
    built and validated as one stack; errors number row k ``first + k``."""
    rates = _rate_rows(rates, 4)
    ops = np.sqrt(rates)[..., None, None] * _DA_TEMPLATES
    return LindbladModel.build_stack(_excited_hamiltonian(omega_e), ops, first=first)


def build_da_model(omega_e: float, g1: float, g2: float, g3: float, g4: float) -> LindbladModel:
    """Three-level system with collective decay/excitation and two plain decays.

    Channels: sqrt(g1)|g>(<e1|+<e2|), sqrt(g2)(|e1>+|e2>)<g|,
    sqrt(g3)|g><e1|, sqrt(g4)|g><e2|. Transition frequencies come out as
    (omega_e, -omega_e, omega_e, omega_e).
    """
    return build_da_models(omega_e, [g1, g2, g3, g4])[0]


def build_ep_models(omega_e: float, rates, first: int | None = None) -> list[LindbladModel]:
    """:func:`build_ep_model` of each row (g1, ..., g6) of ``rates``,
    built and validated as one stack; errors number row k ``first + k``."""
    rates = _rate_rows(rates, 6)
    forward = np.log(rates[:, 0::2] / rates[:, 1::2])
    ds = np.stack([forward, -forward], axis=-1).reshape(-1, 6)
    ops = np.sqrt(rates)[..., None, None] * _EP_TEMPLATES
    return LindbladModel.build_stack(
        _excited_hamiltonian(omega_e), ops, ds=ds.tolist(), partners=[1, 0, 3, 2, 5, 4],
        first=first,
    )


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
    return build_ep_models(omega_e, [g1, g2, g3, g4, g5, g6])[0]


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
    lower channel index of each pair and negated on the partner. A channel
    paired with itself is its own reverse: it gets weight 0 and takes no
    free weight.
    """
    weights = [None] * model.n_channels
    free = list(free_weights)
    for m, p in enumerate(model.partners):
        if p is None:
            raise ValueError(f"channel {m} is unpaired; cannot form a current")
        if p == m:
            weights[m] = 0.0
        elif weights[m] is None:
            if not free:
                raise ValueError("not enough free weights for the channel pairs")
            w = weights[m] = float(free.pop(0))
            weights[p] = -w
    if free:
        raise ValueError("too many free weights for the channel pairs")
    return tuple(weights)


def default_observable(model: LindbladModel) -> CountingObservable:
    """The observable counted when no weights are given.

    With every channel paired it is a current: +1 on the lower channel of
    each pair of two channels and -1 on its partner (for the built-in ep
    model, the net flux into |g>), 0 on a self-paired channel. Otherwise
    it is the total jump count.
    """
    if model.n_channels and None not in model.partners:
        pairs = sum(1 for m, p in enumerate(model.partners) if p > m)
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


def _typed(value, kinds: tuple, key: str, where: str, what: str):
    """``value``, or a ValueError naming the key when it is not one of
    ``kinds``; a bool is neither an index nor a number."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"model JSON: {key!r} of {where} must be {what}, got {json.dumps(value)}")
    return value


def _matrix_from_json(obj: dict, where: str) -> np.ndarray:
    out = np.asarray(_key(obj, "re", where), dtype=float).astype(complex)
    out.imag = np.asarray(_key(obj, "im", where), dtype=float)  # 1j * inf has a NaN real part
    return out


def model_to_json(model: LindbladModel) -> dict:
    return {
        "dim": model.dim,
        "H": _matrix_to_json(model.H),
        "channels": [
            {"L": _matrix_to_json(L), "partner": p, "ds": ds}
            for L, p, ds in zip(model.jump_ops, model.partners, model.ds)
        ],
    }


def model_from_json(obj: dict) -> LindbladModel:
    dim = _typed(_key(obj, "dim", "the model"), (int,), "dim", "the model", "an integer")
    h = _matrix_from_json(_key(obj, "H", "the model"), "H")
    if h.shape != (dim, dim):
        raise ValueError(f"H shape {h.shape} does not match dim {dim}")
    ops, ds, partners = [], [], []
    channels = _typed(obj.get("channels", []), (list,), "channels", "the model", "a list")
    for m, ch in enumerate(channels):
        where = f"channel {m}"
        ops.append(_matrix_from_json(_key(ch, "L", where), f"{where} L"))
        ds.append(_typed(ch.get("ds"), (int, float, type(None)), "ds", where, "a number or null"))
        index = _typed(ch.get("partner"), (int, type(None)), "partner", where, "an integer or null")
        partners.append(index)
    return LindbladModel.build(h, ops, ds=ds, partners=partners)


def save_model(model: LindbladModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_json(model), fh, indent=2)


def load_model(path) -> LindbladModel:
    with open(path) as fh:
        return model_from_json(json.load(fh))
