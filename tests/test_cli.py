import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtur.bounds as bounds
import qtur.cli as cli
import qtur.engine as engine
from qtur.cli import main
from qtur.counting import ACTION_MIN_DIM
from qtur.engine import build_generator, steady_state
from qtur.models import build_da_model, build_ep_model, default_observable, load_model, save_model
from qtur.operators import LindbladModel
from conftest import ladder_model, record_exponentials, rotate_model

README_EP = ("--builtin", "ep", "--rates", "0.7,0.3,0.5,0.4,0.6,0.2")


def run_cli(*argv) -> int:
    return main(list(argv))


def bounds_reports(*argv) -> tuple[int, list]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_cli("bounds", *argv)
    return code, [json.loads(line) for line in buf.getvalue().splitlines()]


class TestSteadyState:
    def test_builtin_da(self, capsys):
        assert run_cli("steady-state", "--builtin", "da", "--rates", "0.5,0.5,0.5,0.5") == 0
        out = capsys.readouterr().out
        assert "steady state" in out and "+0.600000000000" in out
        assert "activity rate: 1.2" in out

    def test_ep_reports_entropy_rate(self, capsys):
        assert (
            run_cli("steady-state", "--builtin", "ep", "--rates", "0.7,0.3,0.5,0.4,0.6,0.2")
            == 0
        )
        assert "entropy production rate" in capsys.readouterr().out


class TestMoments:
    def test_poisson_fixture(self, capsys):
        code = run_cli(
            "moments", "--builtin", "poisson", "--rates", "0.7",
            "--rho0", "mixed", "--tau", "2", "--weights", "1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert float(out.split("mean: ")[1].split("\n")[0]) == pytest.approx(1.4, rel=1e-12)

    def test_windowed(self, capsys):
        code = run_cli(
            "moments", "--builtin", "da", "--tau", "2",
            "--weights", "1,1,1,1", "--window", "1,2",
        )
        assert code == 0


class TestEvolve:
    def test_ground_state_evolution(self, capsys):
        assert run_cli("evolve", "--builtin", "da", "--rho0", "ground", "--t", "0.5") == 0
        assert "state at t=0.5" in capsys.readouterr().out


class TestTrajectories:
    def test_dump_format(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = run_cli(
            "trajectories", "--builtin", "ep", "--rates", "0.7,0.3,0.5,0.4,0.6,0.2",
            "--tau", "0.6", "--trajectories", "120", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["run_index", "K"]
        assert header[-4:] == ["i", "i_prime", "N_value", "entropy_value"]
        assert len(lines) == 121
        # the default current weighs decays (even channels) +1, excitations -1
        kmax = (len(header) - 6) // 2
        for line in lines[1:]:
            cells = line.split(",")
            channels = [int(m) for m in cells[2 + kmax : 2 + 2 * kmax] if m]
            assert float(cells[-2]) == sum(1 if m % 2 == 0 else -1 for m in channels)

    def test_reports_exact_comparison(self, capsys):
        code = run_cli(
            "trajectories", "--builtin", "da", "--tau", "0.5",
            "--trajectories", "60", "--seed", "2",
        )
        assert code == 0
        assert "exact mean" in capsys.readouterr().out


class TestBounds:
    def test_battery_passes(self, capsys):
        code = run_cli(
            "bounds", "--builtin", "ep", "--rates", "0.7,0.3,0.5,0.4,0.6,0.2",
            "--tau", "1",
        )
        assert code == 0
        out = capsys.readouterr().out
        names = [json.loads(line)["name"] for line in out.strip().split("\n")]
        assert "survival_bound" in names
        assert "entropy_production_bound" in names

    @pytest.mark.parametrize("case", ["readme", "ladder"])
    def test_prints_the_library_battery(self, case, tmp_path):
        # the CLI only resolves inputs and prints what qtur.bounds.battery returns
        if case == "readme":
            argv = (*README_EP, "--tau", "1")
            model = build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2)
            rho0 = steady_state(build_generator(model, coherent=True))
            tau = 1.0
        else:
            path = tmp_path / "ladder.json"
            save_model(ladder_model(ACTION_MIN_DIM, np.random.default_rng(3)), path)
            argv = ("--model", str(path), "--rho0", "ground", "--tau", "2")
            model = load_model(path)
            rho0 = np.zeros((model.dim, model.dim), dtype=complex)
            rho0[0, 0] = 1.0
            tau = 2.0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run_cli("bounds", *argv) == 0
        reports = bounds.battery(model, rho0, default_observable(model), tau)
        assert isinstance(reports, list)
        assert buf.getvalue().splitlines() == [json.dumps(r.to_json()) for r in reports]

    def test_readme_command_certifies_no_rounding_noise(self):
        code, reports = bounds_reports(*README_EP, "--tau", "1")
        assert code == 0
        assert not [r for r in reports if r["satisfied"] and abs(r["lhs"]) > 1e12]
        # the default current is the net flux into |g>, zero at stationarity
        skipped = {r["name"] for r in reports if not r["precondition_ok"]}
        assert skipped == {
            "activity_rate_bound", "activity_window_bound", "entropy_production_bound"
        }

    @settings(max_examples=25)
    @given(
        decay=st.lists(st.floats(0.3, 1.0), min_size=3, max_size=3),
        excite=st.lists(st.floats(0.05, 0.25), min_size=3, max_size=3),
        tau=st.floats(0.2, 3.0),
        c=st.floats(1e-2, 1e2),
        rho0=st.sampled_from(("ground", "ss")),
    )
    def test_time_rescaling_changes_nothing(self, decay, excite, tau, c, rho0):
        # every rate and omega times c, tau over c: the same process in other time units
        rates = [g for pair in zip(decay, excite) for g in pair]
        base = bounds_reports(*README_EP[:3], ",".join(map(repr, rates)),
                              "--tau", repr(tau), "--rho0", rho0)
        scaled = bounds_reports("--builtin", "ep", "--omega-e", repr(c),
                                "--rates", ",".join(repr(c * g) for g in rates),
                                "--tau", repr(tau / c), "--rho0", rho0)
        assert base[0] == scaled[0] == 0
        assert len(base[1]) == len(scaled[1])
        for a, b in zip(base[1], scaled[1]):
            assert (a["name"], a["satisfied"], a["precondition_ok"]) == (
                b["name"], b["satisfied"], b["precondition_ok"]
            )
            for key in ("lhs", "rhs"):
                if not math.isnan(a[key]):
                    assert b[key] == pytest.approx(a[key], rel=1e-9)
            for key, stat in a["inputs"].items():
                per_time = key in ("mean_growth_rate", "initial_rate")
                value = b["inputs"][key]["value"] / (c if per_time else 1.0)
                # moments, A(tau), Sigma and the half angle carry no time unit
                assert value == pytest.approx(stat["value"], rel=1e-9, abs=1e-12), key

    @settings(max_examples=30)
    @given(
        kind=st.sampled_from(("da", "ep")),
        rates=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
        tau=st.floats(0.2, 3.0),
        rho0=st.sampled_from(("ss", "mixed")),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_verdicts_survive_a_change_of_basis(self, kind, rates, tau, rho0, seed,
                                                 tmp_path_factory):
        build = build_ep_model if kind == "ep" else build_da_model
        model = build(1.0, *rates[: 6 if kind == "ep" else 4])
        runs = []
        for m in (model, rotate_model(model, np.random.default_rng(seed))):
            path = tmp_path_factory.mktemp("basis") / "model.json"
            save_model(m, path)
            runs.append(bounds_reports("--model", str(path), "--tau", repr(tau), "--rho0", rho0))
        (code_a, base), (code_b, rotated) = runs
        assert code_a == code_b and len(base) == len(rotated)
        for a, b in zip(base, rotated):
            assert (a["name"], a["precondition_ok"]) == (b["name"], b["precondition_ok"])
            assert (a["satisfied"] is None) == (b["satisfied"] is None), a["name"]
            sides = [abs(a[k]) for k in ("lhs", "rhs") if math.isfinite(a[k])]
            if a["satisfied"] is not None and abs(a["slack"]) > 1e-9 * max(sides, default=0.0):
                assert a["satisfied"] == b["satisfied"], a["name"]
            for key in ("lhs", "rhs"):
                if math.isfinite(a[key]):
                    assert b[key] == pytest.approx(a[key], rel=1e-9), (a["name"], key)

    @pytest.mark.parametrize("tau", ["1", "50"])
    def test_ep_bound_skips_a_non_current(self, tau):
        # equilibrium rates started stationary: Sigma(tau) is 0.0 at tau = 1 and
        # -2.2e-16 at tau = 50, and the total count is not a current
        code, reports = bounds_reports(
            "--builtin", "ep", "--rates", "0.4,0.4,0.7,0.7,0.25,0.25",
            "--weights", "1,1,1,1,1,1", "--tau", tau,
        )
        assert code == 0
        ep = reports[-1]
        assert ep["name"] == "entropy_production_bound"
        assert ep["satisfied"] is None and not ep["precondition_ok"]
        assert math.isnan(ep["lhs"]) and math.isnan(ep["rhs"])
        assert ep["extra"] == {"reason": "the observable is not a current"}

    def test_unpaired_channel_with_ds_counts_every_jump(self, tmp_path):
        # ds set but no partner: the default observable is the total count
        decay = np.zeros((2, 2), dtype=complex)
        decay[0, 1] = 1.0
        model = LindbladModel.build(np.diag([0.0, 1.0]), [decay], ds=[0.5], partners=[None])
        path = tmp_path / "model.json"
        save_model(model, path)
        code, reports = bounds_reports("--model", str(path), "--rho0", "mixed", "--tau", "1")
        assert code == 0
        # unit weight on the decay: the rate is the excited population at tau
        rate = reports[0]["inputs"]["mean_growth_rate"]["value"]
        assert rate == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)
        assert reports[-1]["extra"] == {"reason": "the observable is not a current"}

    @pytest.mark.parametrize("flags, built", [((), [True]), (("--incoherent",), [False, True])])
    def test_assembles_each_generator_once(self, monkeypatch, flags, built):
        assemble, calls = engine._assemble, []

        def counted(model, coherent):
            calls.append(coherent)
            return assemble(model, coherent)

        monkeypatch.setattr(engine, "_assemble", counted)
        code, _ = bounds_reports(*README_EP, "--tau", "1", "--rho0", "ss", *flags)
        assert code == 0
        assert sorted(calls) == built

    @pytest.mark.parametrize(
        "case, dim, tau, blocks",
        [
            pytest.param("readme", 3, 1, 1, id="readme"),
            pytest.param("unit_ladder", 4, 2, 1, id="unit_ladder"),
            pytest.param("stationary_ladder", 4, 2, 1, id="stationary_ladder"),
            # from ACTION_MIN_DIM up the block acts on vectors while that
            # pays, and is exponentiated once over a long horizon
            pytest.param("unit_ladder", 8, 2, 0, id="unit_ladder_action"),
            pytest.param("stationary_ladder", 8, 2, 0, id="stationary_ladder_action"),
            pytest.param("stationary_ladder", 8, 100, 1, id="stationary_ladder_long"),
        ],
    )
    def test_takes_one_block_exponential(self, case, dim, tau, blocks, monkeypatch, tmp_path):
        # at most one 3d^2-square exponential; besides it only the activity
        # curve's, with a row per curve (no (d^2 + 1)-square one for Sigma)
        unit = case == "unit_ladder"
        if case == "readme":
            argv = (*README_EP, "--tau", str(tau))
        else:
            path = tmp_path / "ladder.json"
            save_model(ladder_model(dim, np.random.default_rng(3), entropy=not unit), path)
            argv = ("--model", str(path), "--tau", str(tau))
            ones = ",".join(["1"] * (2 * dim - 2))
            argv += ("--rho0", "ground", "--weights", ones) if unit else ("--rho0", "ss")
        shapes = record_exponentials(monkeypatch)
        horizons, moments = [], bounds.counting_moments

        def counted(model, rho0, obs, tau, **kwargs):
            horizons.append(tau)
            return moments(model, rho0, obs, tau, **kwargs)

        monkeypatch.setattr(bounds, "counting_moments", counted)
        code, reports = bounds_reports(*argv)
        assert code == 0 and len(reports) >= 3
        block, curve = 3 * dim * dim, dim * dim + (1 if unit else 2)
        assert shapes.count((block, block)) == blocks
        assert [s for s in shapes if s != (block, block)] == [(curve, curve)]
        assert horizons == [tau / 2]

    def test_csv_output(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = run_cli(
            "bounds", "--builtin", "da", "--tau", "1", "--weights", "1,1,1,1",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("name,")
        assert len(lines) >= 3


# flags a subcommand once accepted and ignored, with the arguments it requires
REMOVED_FLAGS = {
    "steady-state": ((), ("--seed", "--out", "--workers", "--rho0", "--coherent")),
    "evolve": (("--t", "1"), ("--seed", "--out", "--workers", "--coherent")),
    "moments": (("--tau", "1"), ("--seed", "--out", "--workers", "--coherent")),
    "trajectories": (("--tau", "1"), ("--incoherent",)),
    "bounds": (("--tau", "1"), ("--seed", "--workers", "--coherent")),
    "verify-cic": (("--tau", "1"), ("--out", "--incoherent", "--coherent")),
}
FLAG_VALUES = {"--seed": ("1",), "--out": ("x.csv",), "--workers": ("1",), "--rho0": ("ss",)}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, (_, flags) in REMOVED_FLAGS.items() for f in flags],
)
def test_subcommand_rejects_a_flag_it_does_not_read(command, flag, capsys):
    required = REMOVED_FLAGS[command][0]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--builtin", "da", *required, flag, *FLAG_VALUES.get(flag, ()))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# malformed input: the command, a model JSON to write to {model} (or None)
# and the message it must exit 2 with
MALFORMED = {
    "da-rate-count": (
        ("steady-state", "--builtin", "da", "--rates", "0.5,0.5"), None,
        "--rates: 2 given, --builtin da takes 4",
    ),
    "ep-rate-count": (
        ("steady-state", "--builtin", "ep", "--rates", "0.5,0.5,0.5"), None,
        "--rates: 3 given, --builtin ep takes 6",
    ),
    "no-poisson-rate": (
        ("steady-state", "--builtin", "poisson", "--rates", ","), None,
        "--rates: 0 given, --builtin poisson takes 1",
    ),
    "model-without-dim": (
        ("steady-state", "--model", "{model}"),
        {"H": {"re": [[0.0]], "im": [[0.0]]}, "channels": []},
        "model JSON: the model has no key 'dim'",
    ),
    "channel-without-L": (
        ("steady-state", "--model", "{model}"),
        {"dim": 1, "H": {"re": [[0.0]], "im": [[0.0]]}, "channels": [{"partner": None}]},
        "model JSON: channel 0 has no key 'L'",
    ),
    "bounds-weight-count": (
        ("bounds", "--builtin", "ep", "--tau", "1", "--weights", "1,1"), None,
        "--weights: 2 weights for 6 channels",
    ),
    "nan-in-hamiltonian": (
        ("bounds", "--model", "{model}", "--tau", "1"),
        {"dim": 2, "H": {"re": [[0.0, 0.0], [0.0, float("nan")]], "im": [[0.0] * 2] * 2},
         "channels": [{"L": {"re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2}}]},
        "Hamiltonian has NaN or Inf entries",
    ),
    "inf-in-channel": (
        ("bounds", "--model", "{model}", "--tau", "1"),
        {"dim": 2, "H": {"re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2},
         "channels": [{"L": {"re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2}},
                      {"L": {"re": [[0.0, 0.0], [0.5, 0.0]], "im": [[0.0, 0.0], [float("inf"), 0.0]]}}]},
        "channel 1 has NaN or Inf entries",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2_with_a_message(case, tmp_path, capsys):
    argv, model, message = MALFORMED[case]
    path = tmp_path / "model.json"
    if model is not None:
        path.write_text(json.dumps(model))
    assert run_cli(*(a.format(model=path) for a in argv)) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "Traceback" not in err


class TestSweeps:
    def test_kur_sweep_writes_deterministic_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep-kur", "--draws", "30", "--seed", "3", "--out", str(a)) == 0
        assert run_cli(
            "sweep-kur", "--draws", "30", "--seed", "3", "--out", str(b), "--workers", "2"
        ) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "full cost" in capsys.readouterr().out

    def test_ep_sweep_exit_zero(self, tmp_path):
        out = tmp_path / "ep.csv"
        assert run_cli("sweep-ep", "--draws", "25", "--seed", "4", "--out", str(out)) == 0
        assert out.exists()

    def test_ranges_bound_every_row(self, tmp_path):
        out = tmp_path / "kur.csv"
        argv = ["sweep-kur", "--draws", "8", "--gamma-range", "0.2,0.4", "--tau-range", "1,2"]
        assert run_cli(*argv, "--out", str(out)) == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 8
        for row in rows:
            cells = dict(zip(header, map(float, row[: header.index("tau") + 1])))
            assert all(0.2 < cells[f"gamma_{i}"] < 0.4 for i in range(1, 5))
            assert 1.0 < cells["tau"] < 2.0

    @pytest.mark.parametrize("flag, text", [("--tau-range", "2,1"), ("--gamma-range", "0.5")])
    def test_malformed_range_exits_2(self, flag, text, capsys):
        assert run_cli("sweep-kur", "--draws", "2", flag, text) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyCic:
    def test_passes_on_ep_model(self, capsys):
        code = run_cli(
            "verify-cic", "--builtin", "ep", "--rates", "0.7,0.3,0.5,0.4,0.6,0.2",
            "--tau", "0.8", "--trajectories", "1200", "--seed", "1",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_equilibrium_kl_check_ignores_rounding_noise(self, capsys):
        # both sides of the KL check are rounding noise here: -7.4e-18 ± 1.1e-17
        # against an exact Sigma of -2.2e-16
        code = run_cli(
            "verify-cic", "--builtin", "ep", "--rates", "0.4,0.4,0.7,0.7,0.25,0.25",
            "--tau", "1", "--trajectories", "2000", "--seed", "3",
        )
        out = capsys.readouterr().out
        assert "[PASS] kl_matches_entropy_production" in out
        assert code == 0 and "[FAIL]" not in out


class TestConfigAndModels:
    def test_model_file_round_trip(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        save_model(build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2), path)
        assert run_cli("steady-state", "--model", str(path)) == 0
        assert "entropy production rate" in capsys.readouterr().out

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "draws": 12, "out": str(tmp_path / "r.csv")}))
        assert run_cli("sweep-kur", "--config", str(cfg)) == 0
        assert (tmp_path / "r.csv").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"draws": 500}))
        out = tmp_path / "r.csv"
        assert run_cli(
            "sweep-kur", "--config", str(cfg), "--draws", "8", "--seed", "1",
            "--out", str(out),
        ) == 0
        assert len(out.read_text().strip().split("\n")) == 9

    @staticmethod
    def _parsed(monkeypatch, tmp_path, cfg, *argv) -> dict:
        """The arguments a subcommand receives with ``cfg`` as its --config."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        seen = {}

        def record(args):
            seen.update(vars(args))
            return 0

        monkeypatch.setattr(cli, f"_cmd_{argv[0]}", record)
        assert run_cli(*argv, "--config", str(path)) == 0
        return seen

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sed": 5, "rho0": "ground"}))
        with pytest.raises(SystemExit) as exit_info:
            run_cli("evolve", "--builtin", "da", "--t", "1", "--config", str(cfg))
        assert exit_info.value.code == 2
        assert "unknown config key 'sed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, cfg",
        [
            (("steady-state",), {"builtin": "xyz"}),
            (("evolve", "--builtin", "da", "--t", "1"), {"rho0": "bogus"}),
        ],
    )
    def test_config_value_outside_choices_exits_2(self, tmp_path, capsys, argv, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--config", str(path))
        assert exit_info.value.code == 2
        key, value = next(iter(cfg.items()))
        assert f"config key {key!r}: invalid choice {value!r}" in capsys.readouterr().err

    def test_config_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([["rho0", "ground"]]))
        with pytest.raises(SystemExit) as exit_info:
            run_cli("evolve", "--builtin", "da", "--t", "1", "--config", str(cfg))
        assert exit_info.value.code == 2
        assert "does not hold a JSON object" in capsys.readouterr().err

    def test_config_sets_store_true_flag(self, monkeypatch, tmp_path):
        cfg = {"rho0": "ground", "incoherent": True}
        args = self._parsed(monkeypatch, tmp_path, cfg, "evolve", "--builtin", "da", "--t", "1")
        assert args["incoherent"] is True and args["rho0"] == "ground"

    def test_config_sets_flags_with_defaults(self, monkeypatch, tmp_path):
        cfg = {"omega-e": 2.5, "trajectories": 40}
        args = self._parsed(monkeypatch, tmp_path, cfg, "trajectories", "--tau", "1")
        assert args["omega_e"] == 2.5 and args["trajectories"] == 40

    def test_config_supplies_a_required_flag(self, monkeypatch, tmp_path):
        args = self._parsed(monkeypatch, tmp_path, {"tau": 0.5}, "moments", "--builtin", "da")
        assert args["tau"] == 0.5

    def test_explicit_flags_beat_every_config_key(self, monkeypatch, tmp_path):
        cfg = {"rho0": "ground", "omega_e": 2.0, "trajectories": 40, "tau": 0.5}
        args = self._parsed(
            monkeypatch, tmp_path, cfg, "trajectories", "--rho0", "mixed",
            "--omega-e", "3", "--trajectories", "7", "--tau", "1",
        )
        assert (args["rho0"], args["omega_e"], args["trajectories"], args["tau"]) == (
            "mixed", 3.0, 7, 1.0,
        )

    def test_bad_model_path_exits_2(self):
        assert run_cli("steady-state", "--model", "/nonexistent/model.json") == 2

    def test_worker_env_cap(self, monkeypatch):
        from qtur.trajectories import resolve_workers

        monkeypatch.setenv("QTUR_THREADS", "1")
        assert resolve_workers(8) == 1
        assert resolve_workers(None) == 1
        monkeypatch.delenv("QTUR_THREADS")
        assert resolve_workers(3) == 3
