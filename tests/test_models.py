import numpy as np
import pytest

from qtur.models import (
    antisymmetric_current_weights,
    build_da_model,
    build_da_models,
    build_ep_model,
    build_ep_models,
    build_poisson_model,
    default_observable,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from qtur.counting import CountingObservable
from qtur.engine import build_generator, steady_state
from qtur.operators import LindbladModel
from conftest import assert_local_detailed_balance, da_steady_state_closed_form


class TestDaModel:
    def test_transition_frequencies(self):
        model = build_da_model(1.4, 0.3, 0.6, 0.2, 0.9)
        assert list(model.omegas) == pytest.approx(
            [1.4, -1.4, 1.4, 1.4], abs=1e-12
        )

    def test_stationary_state_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            g = rng.uniform(0.05, 1.0, 4)
            model = build_da_model(1.0, *g)
            rho = steady_state(build_generator(model, coherent=True))
            assert np.abs(rho - da_steady_state_closed_form(*g)).max() < 1e-10

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            build_da_model(1.0, 0.5, 0.0, 0.5, 0.5)


class TestEpModel:
    def test_entropy_weights_from_rate_ratios(self):
        g = (0.7, 0.3, 0.5, 0.4, 0.6, 0.2)
        model = build_ep_model(1.0, *g)
        ds = model.ds
        assert ds[0] == pytest.approx(np.log(0.7 / 0.3), abs=1e-14)
        assert ds[2] == pytest.approx(np.log(0.5 / 0.4), abs=1e-14)
        assert ds[4] == pytest.approx(np.log(0.6 / 0.2), abs=1e-14)
        assert ds[1] == -ds[0] and ds[3] == -ds[2] and ds[5] == -ds[4]

    def test_detailed_balance_holds_for_all_pairs(self, ep_generic):
        assert_local_detailed_balance(ep_generic)

    def test_partner_involution(self, ep_generic):
        for m, p in enumerate(ep_generic.partners):
            assert ep_generic.partners[p] == m

    def test_equilibrium_rates_give_zero_entropy_rate(self, ep_equilibrium):
        from qtur.counting import entropy_production_rate

        rho = steady_state(build_generator(ep_equilibrium, coherent=True))
        assert entropy_production_rate(ep_equilibrium, rho) == pytest.approx(0.0, abs=1e-12)

    def test_transition_frequencies(self, ep_generic):
        assert list(ep_generic.omegas) == pytest.approx(
            [1.0, -1.0, 1.0, -1.0, 1.0, -1.0], abs=1e-12
        )


@pytest.mark.parametrize("build, n_rates", [(build_da_models, 4), (build_ep_models, 6)])
def test_a_stack_of_models_shares_one_frozen_array(build, n_rates):
    models = build(1.0, np.random.default_rng(5).uniform(0.1, 1.0, (4, n_rates)))
    shared = models[0].jump_ops.base
    assert shared is not None and not shared.flags.writeable
    for k, model in enumerate(models):
        assert model.jump_ops.base is shared and not model.jump_ops.flags.writeable
        assert np.shares_memory(model.jump_ops, shared[k])


def test_a_model_equals_only_itself():
    # the generators and blocks memoized on a model are its own, so equal
    # content is not equality; comparing arrays must not raise either
    a, b = (build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2) for _ in range(2))
    assert a == a and a != b and not a == b
    assert len({a, b, a}) == 2


class TestPoissonModel:
    def test_scalar_generator_vanishes(self, poisson):
        gen = build_generator(poisson, coherent=True)
        assert np.abs(gen).max() < 1e-14

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            build_poisson_model(-1.0)


class TestCurrentWeights:
    def test_expansion(self, ep_generic):
        w = antisymmetric_current_weights(ep_generic, [0.5, -0.3, 1.0])
        assert w == (0.5, -0.5, -0.3, 0.3, 1.0, -1.0)

    def test_unpaired_model_rejected(self, da_generic):
        with pytest.raises(ValueError, match="unpaired"):
            antisymmetric_current_weights(da_generic, [1.0, 1.0])

    def test_self_paired_channel_gets_weight_zero(self):
        a = np.diag([1.0, np.sqrt(2.0)], 1).astype(complex)
        n = np.diag([0.0, 1.0, 2.0]).astype(complex)
        model = LindbladModel.build(n, [a, a.conj().T, n], ds=[0.0] * 3, partners=[1, 0, 2])
        assert antisymmetric_current_weights(model, [0.7]) == (0.7, -0.7, 0.0)
        with pytest.raises(ValueError, match="too many"):
            antisymmetric_current_weights(model, [0.7, 1.0])
        obs = default_observable(model)
        assert obs.weights == (1.0, -1.0, 0.0)
        obs.check_antisymmetry(model)

    def test_wrong_count_rejected(self, ep_generic):
        with pytest.raises(ValueError):
            antisymmetric_current_weights(ep_generic, [1.0])
        with pytest.raises(ValueError):
            antisymmetric_current_weights(ep_generic, [1.0] * 4)


class TestDefaultObservable:
    def test_paired_model_counts_a_current(self, ep_generic):
        obs = default_observable(ep_generic)
        assert obs.weights == (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)
        assert obs.antisymmetric and obs.is_current(ep_generic)

    def test_unpaired_model_counts_every_jump(self, da_generic):
        assert default_observable(da_generic) == CountingObservable.total_count(4)

    def test_pairing_decides_not_ds(self, ep_generic):
        h, ops = ep_generic.H, ep_generic.jump_ops
        paired = LindbladModel.build(h, ops, partners=[1, 0, 3, 2, 5, 4])
        assert default_observable(paired) == default_observable(ep_generic)
        unpaired = LindbladModel.build(h, ops, ds=ep_generic.entropy_weights())
        assert default_observable(unpaired) == CountingObservable.total_count(6)
        assert not default_observable(unpaired).is_current(unpaired)


class TestJsonSchema:
    def test_round_trip(self, ep_generic, tmp_path):
        path = tmp_path / "model.json"
        save_model(ep_generic, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.H, ep_generic.H)
        assert np.array_equal(loaded.jump_ops, ep_generic.jump_ops)
        assert loaded.ds == ep_generic.ds and loaded.partners == ep_generic.partners
        # frequencies re-derived, not stored
        assert list(loaded.omegas) == pytest.approx(ep_generic.omegas, abs=1e-12)

    def test_schema_shape(self, da_generic):
        obj = model_to_json(da_generic)
        assert set(obj) == {"dim", "H", "channels"}
        assert obj["dim"] == 3
        assert set(obj["H"]) == {"re", "im"}
        for ch in obj["channels"]:
            assert set(ch) == {"L", "partner", "ds"}
        rebuilt = model_from_json(obj)
        assert np.array_equal(rebuilt.H, da_generic.H)

    def test_dimension_mismatch_rejected(self, da_generic):
        obj = model_to_json(da_generic)
        obj["dim"] = 2
        with pytest.raises(ValueError, match="dim"):
            model_from_json(obj)
