import contextlib
import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qtur.bounds as bounds
import qtur.cli as cli
import qtur.counting as counting
import qtur.engine as engine
import qtur.trajectories as trajectories
from qtur.cli import main
from qtur.counting import ACTION_MIN_DIM, stationary
from qtur.models import (
    build_da_model, build_ep_model, default_observable, load_model, model_to_json, save_model,
)
from qtur.operators import LindbladModel
from conftest import ladder_model, liouville_route, record_exponentials, rotate_model

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


# SHA-256 of `qtur bounds` stdout and of its --out CSV (numpy 2.4, scipy
# 1.17), re-captured when battery moved to the zero-frequency sector (every
# verdict unchanged; sides moved by at most 4.7e-15 relative), and the ep
# cases again when the built-ins' sector became real (every verdict
# unchanged; sides moved by at most 1.5e-15 relative, inputs by at most
# 1.1e-16), and again when --rho0 ss became the sector's steady state (every
# verdict unchanged; the sides of a judged report moved by at most 7.6e-15
# relative, the survival rhs by 1 ulp, the entropy production by 7.1e-15,
# and the readme's rounding-noise means, about 1e-16, by up to all of
# themselves): the README command, on which only the survival bound applies;
# the same model weighted by its ds, the entropy current, on which all four
# reports are satisfied; and a d = 8 ladder from |0> at tau = 2.
PINNED_BOUNDS = {
    "readme": (
        "a672d9e44330f36d1aa0846d0ab2b682f3cedd362e6e840aec9825a788632890",
        "59c65768199dc0d35d46ca4ab5a6d57c6a97147257aa66a3ff9f5018d3016015",
    ),
    "entropy current": (
        "4ca7a0061f5936c504c436b600af358ad5010f6bf07024619bf8a21037482df5",
        "3e2c41433cc5b1bbd1046b58985164c4ab2176031cbcdd303f1622921f2d318c",
    ),
    "ladder": (
        "c77277848683ad1928b87bd0c99fdbb60225c5a55e52f1fc55c986ff2da64f02",
        "c224bfa9611a18e436b9a4798ce06253cd50a6bc4d20266f35eb79e51804f788",
    ),
}


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
            rho0 = stationary(model)
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

    def test_squared_growth_rate_underflow_is_not_applicable(self):
        # at tau = 1e-170 tau d_tau E is about 1e-170, and its square is 0
        code, reports = bounds_reports("--builtin", "da", "--tau", "1e-170",
                                       "--weights", "1,1,1,1")
        assert code == 0
        rate, window, survival = reports
        assert rate["name"] == "activity_rate_bound" and rate["satisfied"] is None
        assert rate["extra"]["reason"] == "the square of 1.2e-170 is not a normal float"
        # the window bound divides by the mean's change, not by its square
        assert window["satisfied"] is True and survival["satisfied"] is True

    @pytest.mark.parametrize("tau, big", [("1e-310", "3.12e+155"), ("1e-320", "3.13e+160")])
    def test_window_square_overflow_is_not_applicable(self, tau, big):
        # sqrt Var / dE and the half angle's cot grow as tau^-1/2: past
        # 1 / SQUARE_MIN the squares may overflow, which once ended in a traceback
        code, reports = bounds_reports("--builtin", "da", "--tau", tau, "--weights", "1,1,1,1")
        assert code == 0
        window = reports[1]
        assert window["name"] == "activity_window_bound" and window["satisfied"] is None
        assert window["extra"]["reason"] == f"{big} squared may overflow"
        assert [r["satisfied"] for r in reports] == [None, None, True]

    @settings(max_examples=25)
    @given(
        decay=st.lists(st.floats(0.3, 1.0), min_size=3, max_size=3),
        excite=st.lists(st.floats(0.05, 0.25), min_size=3, max_size=3),
        tau=st.floats(0.2, 3.0),
        c=st.floats(1e-9, 1e9),
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

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(("da", "ep")), exponent=st.floats(-15.0, -3.0))
    @example(kind="da", exponent=-15.0)
    @example(kind="ep", exponent=-15.0)
    def test_a_short_horizon_is_no_violation(self, kind, exponent):
        # both sides grow like 1/(a tau): at tau = 1e-15 the da window bound
        # reads 9714045207910318 against 9714045207910322, rounding apart
        weights = ",".join(["1"] * (4 if kind == "da" else 6))
        code, reports = bounds_reports("--builtin", kind, "--weights", weights,
                                       "--tau", repr(10.0**exponent))
        assert code == 0
        assert [r["name"] for r in reports if r["satisfied"] is False] == []

    def test_a_slow_process_is_no_violation(self):
        # the same short horizon in other time units: every rate and omega 1e-15
        code, reports = bounds_reports("--builtin", "da", "--rates", "5e-16,5e-16,5e-16,5e-16",
                                       "--omega-e", "1e-15", "--tau", "1")
        assert code == 0
        assert [r["name"] for r in reports if r["satisfied"] is False] == []

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

    def test_self_paired_channel_takes_no_weight(self, tmp_path):
        # a and a^dag paired, the Hermitian sqrt(0.3) n paired with itself
        a = np.diag(np.sqrt(np.arange(1.0, 5.0)), 1).astype(complex)
        n = np.diag(np.arange(5.0)).astype(complex)
        model = LindbladModel.build(
            n, [a, a.conj().T, np.sqrt(0.3) * n], ds=[0.0, 0.0, 0.0], partners=[1, 0, 2]
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        code, reports = bounds_reports("--model", str(path), "--tau", "1")
        assert code == 0
        assert [r["name"] for r in reports][-1] == "entropy_production_bound"
        assert reports[2]["satisfied"] is True  # the survival bound
        argv = ("--model", str(path), "--tau", "1", "--trajectories", "500", "--workers", "1")
        assert run_cli("verify-cic", *argv) == 0

    # --rho0 ss and battery both read the zero-frequency sector: no Liouville
    # generator is assembled, with or without H
    @pytest.mark.parametrize("flags, built", [((), []), (("--incoherent",), [])])
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
            # from ACTION_MIN_DIM up the blocks act on vectors while that
            # pays; over a long horizon the moment block is exponentiated
            # once, and so is the rows block, over the gap from 0 to the
            # half angle's first node
            pytest.param("unit_ladder", 8, 2, 0, id="unit_ladder_action"),
            pytest.param("stationary_ladder", 8, 2, 0, id="stationary_ladder_action"),
            pytest.param("stationary_ladder", 8, 100, 1, id="stationary_ladder_long"),
        ],
    )
    def test_takes_one_block_exponential(self, case, dim, tau, blocks, monkeypatch, tmp_path):
        # on the Liouville route, which battery takes where the zero-frequency
        # reduction does not hold: at most one (2 d^2 + 1)-square
        # exponential in each of the two moment calls (the tau/2 moments and
        # the half windows, which share theirs between its two steps);
        # besides them, below ACTION_MIN_DIM, only the rows block's dense
        # steps to the half angle's nodes and tau, with the activity and
        # entropy rows in one block (no (d^2 + 1)-square one for Sigma);
        # from it up, one rows step where the moment block takes one
        unit = case == "unit_ladder"
        if case == "readme":
            argv = (*README_EP, "--tau", str(tau))
        else:
            path = tmp_path / "ladder.json"
            save_model(ladder_model(dim, np.random.default_rng(3), entropy=not unit), path)
            argv = ("--model", str(path), "--tau", str(tau))
            ones = ",".join(["1"] * (2 * dim - 2))
            argv += ("--rho0", "ground", "--weights", ones) if unit else ("--rho0", "ss")
        monkeypatch.setattr(counting, "_route", liouville_route)
        shapes = record_exponentials(monkeypatch)
        horizons, moments = [], bounds.counting_moments

        def counted(model, rho0, obs, tau, **kwargs):
            horizons.append(tau)
            return moments(model, rho0, obs, tau, **kwargs)

        monkeypatch.setattr(bounds, "counting_moments", counted)
        code, reports = bounds_reports(*argv)
        assert code == 0 and len(reports) >= 3
        block, rows = 2 * dim * dim + 1, dim * dim + (1 if unit else 2)
        assert shapes.count((block, block)) == 2 * blocks
        steps = [s for s in shapes if s != (block, block)]
        assert set(steps) <= {(rows, rows)}
        assert len(steps) == (blocks if dim >= ACTION_MIN_DIM else 3 * bounds.HALF_ANGLE_NODES + 1)
        assert horizons == [tau / 2]

    @pytest.mark.parametrize(
        "case, dim, tau, n0",
        [
            pytest.param("readme", 3, 1, 5, id="readme"),  # |e1>, |e2> degenerate
            pytest.param("unit_ladder", 8, 2, 8, id="unit_ladder"),
            pytest.param("ladder", 24, 2, 24, id="ladder"),
            pytest.param("ladder", 8, 100, 8, id="ladder_long"),
        ],
    )
    def test_reduced_route_takes_one_sector_block(self, case, dim, tau, n0, monkeypatch,
                                                  tmp_path):
        # on the zero-frequency sector: one (2 n0 + 1)-square moment block
        # exponential in each of the two moment calls, the rows block's dense
        # steps to the half angle's nodes and tau, no Taylor action, and no
        # d^2-square generator assembled
        unit = case == "unit_ladder"
        if case == "readme":
            argv = (*README_EP, "--tau", str(tau))
        else:
            path = tmp_path / "ladder.json"
            model = ladder_model(dim, np.random.default_rng(3), entropy=not unit)
            save_model(model, path)
            argv = ("--model", str(path), "--tau", str(tau))
            ones = ",".join(["1"] * (2 * dim - 2))
            argv += ("--rho0", "ground", *(("--weights", ones) if unit else ()))
        monkeypatch.setattr(counting, "_taylor_action", lambda *a: pytest.fail("action taken"))
        assemble, assembled = engine._assemble, []

        def counted(model, coherent):
            assembled.append(coherent)
            return assemble(model, coherent)

        monkeypatch.setattr(engine, "_assemble", counted)
        shapes = record_exponentials(monkeypatch)
        code, reports = bounds_reports(*argv)
        # the readme case's --rho0 ss steady state is the sector's too
        assert not assembled
        assert code == 0 and len(reports) >= 3
        block, rows = 2 * n0 + 1, n0 + (1 if unit else 2)
        assert shapes.count((block, block)) == 2
        assert set(shapes) - {(block, block)} == {(rows, rows)}
        assert len(shapes) == 2 + 3 * bounds.HALF_ANGLE_NODES + 1

    @pytest.mark.parametrize("case", sorted(PINNED_BOUNDS))
    def test_pinned_bytes(self, case, tmp_path):
        if case == "ladder":
            path = tmp_path / "ladder.json"
            save_model(ladder_model(8, np.random.default_rng(3)), path)
            argv = ["--model", str(path), "--rho0", "ground", "--tau", "2"]
        else:
            argv = [*README_EP, "--tau", "1"]
        if case == "entropy current":
            ds = build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2).entropy_weights()
            argv += ["--weights", ",".join(map(repr, ds.tolist()))]
        out, buf = tmp_path / "bounds.csv", io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run_cli("bounds", *argv, "--out", str(out)) == 0
        printed = (buf.getvalue().encode(), out.read_bytes())
        assert tuple(hashlib.sha256(data).hexdigest() for data in printed) == PINNED_BOUNDS[case]

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


# SHA-256 of `qtur --help` and of each subcommand's --help at 80 columns,
# as printed while every call built the flags of every subcommand
HELP_TEXTS = {
    "": "75c7d05fe3a0446e9f5f1f08f70ac260507a0672c77c47cf0240b41c0618bb40",
    "steady-state": "1edefb466ab8aa3f89c82ba3bc13bd2c167e2be9bb8669e55cee365f8a4b72bd",
    "evolve": "ba3085aed94f8c7d2f9c8eb7a5616963d42806c95053289536a38a5e05f02946",
    "moments": "5853b0b6be7dbd5d11af8de9ed9ac98ae4a0e5b9eca0d4699b67d2513513ac5d",
    "trajectories": "4a08fe253dd0cfd042f76cafa2c2b7fa33945bba78686b247db2f99b0d88a03b",
    "bounds": "9ffe92047bf581b06c9e9dbfa70736a5eaf4b92467045c8b9f413ac435ad0b60",
    "sweep-kur": "bd41886cafe4344330c8dfa14edab83344bbbc78d623f24a15648335d5480f44",
    "sweep-ep": "3d3e6ba9441f5974dc52e4cfa185a222cd37bb3c2989069e80c03520ddbdd1fe",
    "verify-cic": "84424a4522fba404b194b9d8ab26330f284d5baee57f6fc8cebd794ae19a705e",
}


@pytest.mark.parametrize("command", sorted(HELP_TEXTS))
def test_help_is_unchanged(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    texts = []
    for parse in (main, cli.build_parser().parse_args):  # one subcommand's flags, every one's
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert hashlib.sha256(texts[0].encode()).hexdigest() == HELP_TEXTS[command]


def test_a_parse_builds_the_flags_of_its_subcommand_only():
    subcommands = next(a for a in cli.build_parser("bounds")._actions if a.dest == "command")
    declared = {name: len(p._actions) > 1 for name, p in subcommands.choices.items()}
    assert declared == {name: name == "bounds" for name in HELP_TEXTS if name}


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
    "nan-tau": (
        ("moments", "--builtin", "ep", "--tau", "nan"), None,
        "tau must be finite and nonnegative, got nan",
    ),
    "nan-window": (
        ("moments", "--builtin", "ep", "--tau", "1", "--window", "nan,1"), None,
        "window [nan, 1.0] is not finite",
    ),
    "nan-weights-moments": (
        ("moments", "--builtin", "da", "--tau", "2", "--weights", "nan,1,1,1"), None,
        "weights (nan, 1.0, 1.0, 1.0) are not finite",
    ),
    "nan-weights-trajectories": (
        ("trajectories", "--builtin", "ep", "--tau", "1", "--weights", "nan,1,1,1,1,1"), None,
        "weights (nan, 1.0, 1.0, 1.0, 1.0, 1.0) are not finite",
    ),
    "nan-weights-bounds": (
        ("bounds", "--builtin", "ep", "--tau", "1", "--weights", "nan,1,1,1,1,1"), None,
        "weights (nan, 1.0, 1.0, 1.0, 1.0, 1.0) are not finite",
    ),
    "window-arity": (
        ("moments", "--builtin", "da", "--tau", "2", "--window", "1,2,3"), None,
        "--window takes lo,hi, got '1,2,3'",
    ),
    "inf-tau": (
        ("moments", "--builtin", "ep", "--tau", "inf"), None,
        "tau must be finite and nonnegative, got inf",
    ),
    "nan-trajectory-tau": (
        ("trajectories", "--builtin", "ep", "--tau", "nan"), None,
        "tau must be finite and nonnegative, got nan",
    ),
    "nan-tau-range": (
        ("sweep-kur", "--tau-range", "nan,1"), None, "tau range [nan, 1.0] is not finite",
    ),
    "inf-gamma-range": (
        ("sweep-ep", "--gamma-range", "0,inf"), None, "gamma range [0.0, inf] is not finite",
    ),
    "negative-gamma-range": (
        ("sweep-ep", "--gamma-range=-1,1"), None, "gamma range [-1.0, 1.0] reaches below 0",
    ),
    "negative-tau-range": (
        ("sweep-ep", "--tau-range=-1,1"), None, "tau range [-1.0, 1.0] reaches below 0",
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


# case -> (file, the keys it gets, the key the message names); a model key
# of a channel goes on its one channel
WRONG_JSON_TYPE = {
    "dim-null": ("model", {"dim": None}, "dim"),
    "dim-float": ("model", {"dim": 2.0}, "dim"),
    "channels-null": ("model", {"channels": None}, "channels"),
    "partner-string": ("model", {"partner": "0"}, "partner"),
    "partner-float": ("model", {"partner": 0.0}, "partner"),
    "partner-bool": ("model", {"partner": False}, "partner"),
    "ds-string": ("model", {"ds": "1"}, "ds"),
    "tau-null": ("config", {"tau": None}, "tau"),
    "tau-list": ("config", {"tau": [1]}, "tau"),
    "tau-bool": ("config", {"tau": True}, "tau"),
    "switch-number": ("config", {"incoherent": 1}, "incoherent"),
    "switch-string": ("config", {"incoherent": "true"}, "incoherent"),
}


@pytest.mark.parametrize("command", ["steady-state", "moments", "bounds", "verify-cic"])
def test_a_model_without_a_unique_steady_state_exits_2(command, tmp_path, capsys):
    # no channel: every diagonal state is stationary
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "dim": 2, "H": {"re": [[0, 0], [0, 1]], "im": [[0, 0], [0, 0]]}, "channels": [],
    }))
    argv = [command, "--model", str(path)] + ([] if command == "steady-state" else ["--tau", "1"])
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate steady state: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["steady-state", "bounds"])
def test_a_non_finite_ds_exits_2_naming_its_channel(command, tmp_path, capsys):
    obj = model_to_json(build_ep_model(1.0, 0.7, 0.3, 0.5, 0.4, 0.6, 0.2))
    for channel in obj["channels"]:
        channel["partner"] = None
    obj["channels"][0]["ds"] = math.nan
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    argv = [command, "--model", str(path)] + ([] if command == "steady-state" else ["--tau", "1"])
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "error: channel 0 has a NaN or Inf entropy change ds" in err and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(WRONG_JSON_TYPE))
def test_a_json_value_of_the_wrong_type_exits_2_naming_its_key(case, tmp_path, capsys):
    kind, keys, named = WRONG_JSON_TYPE[case]
    channel = {"L": {"re": [[0.0, 1.0], [0.0, 0.0]], "im": [[0.0] * 2] * 2}}
    model = {"dim": 2, "H": {"re": [[0.0, 0.0], [0.0, 1.0]], "im": [[0.0] * 2] * 2},
             "channels": [channel]}
    config = {"tau": 1}
    target = config if kind == "config" else channel if named in ("partner", "ds") else model
    target.update(keys)
    paths = tmp_path / "model.json", tmp_path / "cfg.json"
    for path, obj in zip(paths, (model, config)):
        path.write_text(json.dumps(obj))
    argv = ("moments", "--model", str(paths[0]), "--weights", "1", "--config", str(paths[1]))
    try:
        code = run_cli(*argv)
    except SystemExit as exc:  # argparse's own error exit
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and repr(named) in err and "Traceback" not in err


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

    def test_rotated_equilibrium_exact_means_agree(self, tmp_path, capsys):
        # the README equilibrium rates in a rotated basis: both exact means
        # are about 1e-16 and differ by 38 % of their size
        path = tmp_path / "m.json"
        model = build_ep_model(1, 0.4, 0.4, 0.7, 0.7, 0.25, 0.25)
        save_model(rotate_model(model, np.random.default_rng(5)), path)
        code = run_cli("verify-cic", "--model", str(path), "--tau", "1",
                       "--trajectories", "2000", "--seed", "3", "--workers", "1")
        out = capsys.readouterr().out
        assert "[PASS] exact_moments_match: relative differences mean 3.78e-01" in out
        assert code == 0 and "[FAIL]" not in out

    def test_equilibrium_backward_mean_is_not_judged(self, capsys):
        # the exact backward mean, 8.3e-17, is rounding noise at the window's
        # scale; the sampled 0.004 ± 0.014 was once judged against it
        code = run_cli(
            "verify-cic", "--builtin", "ep", "--rates", "0.4,0.4,0.7,0.7,0.25,0.25",
            "--tau", "1", "--trajectories", "2000", "--seed", "3",
        )
        lines = capsys.readouterr().out.splitlines()
        (line,) = [text for text in lines if "backward_statistics_match" in text]
        assert code == 0 and line.startswith("[PASS]")
        assert "vs 8.32667e-17 (rounding noise at scale 1.17, not judged); variance" in line


# SHA-256 of the README ep `trajectories --out` CSV (10000 trajectories,
# seed 7) and of the README `verify-cic` stdout (numpy 2.4, scipy 1.17),
# re-captured when the waiting times moved from bisection to bracketed
# Newton steps: every jump count, channel and label stayed, the times moved
# by at most 7.4e-10 relative, and the verify-cic path-norm figure went
# 2.23e-15 -> 1.89e-15. Its backward line also gained the note that its
# exact mean, -1.5e-16, is rounding noise and is not judged. Re-captured
# when the steady state became one bordered LU: the stationary start moved
# in its last bits, so the times moved by at most 6.8e-10 relative (every
# count, channel and label stayed), entropies by at most 1.3e-15, the
# path-norm figure went 1.89e-15 -> 2.41e-15 and the backward exact mean
# -1.52656e-16 -> -4.16334e-17. Re-captured when the steady state and the
# samplers' Hamiltonian-free rho(tau) moved to the zero-frequency sector:
# every count, channel and label stayed, the times moved by at most 6.8e-10
# relative, entropies by at most 6.7e-16, the path-norm figure went
# 2.41e-15 -> 2.17e-15 and the backward exact mean -4.16334e-17 ->
# -8.32667e-17. The tests lower trajectories.POOL_MIN to
# 0, so that two workers split the ensembles whatever the measured
# threshold is.
PINNED_ENSEMBLES = {
    "trajectories": "b1188a5331e88b05b29412a30d954b79eaaa571f572a61f98c0f4f15b2b81856",
    "verify-cic": "92d600fc2201d554312e7f16b08390c14d88852eef0fa2d28bf9c2ed84e356d2",
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", sorted(PINNED_ENSEMBLES))
def test_pinned_ensemble_bytes(command, workers, tmp_path, monkeypatch):
    monkeypatch.setattr(trajectories, "POOL_MIN", 0)
    argv = [command, *README_EP, "--tau", "1", "--trajectories", "10000", "--workers", str(workers)]
    out = tmp_path / "records.csv"
    if command == "trajectories":
        argv += ["--seed", "7", "--out", str(out)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run_cli(*argv) == 0
    data = out.read_bytes() if command == "trajectories" else buf.getvalue().encode()
    assert hashlib.sha256(data).hexdigest() == PINNED_ENSEMBLES[command]


@pytest.mark.parametrize(
    "argv, built",
    [
        pytest.param(("trajectories", "--seed", "7"), ["TrajectorySampler"], id="trajectories"),
        # the forward sampler prices its own records; the backward one samples
        pytest.param(("verify-cic",), ["TrajectorySampler"] * 2, id="verify-cic"),
    ],
)
def test_each_ensemble_builds_one_unravelling_context(argv, built, monkeypatch, capsys):
    init, calls = trajectories.PathWeights.__init__, []

    def counted(self, *args):
        calls.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(trajectories.PathWeights, "__init__", counted)
    assert run_cli(argv[0], *README_EP, "--tau", "1", "--trajectories", "10000", *argv[1:]) == 0
    assert calls == built


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

    def test_config_strings_and_numbers_go_through_the_flag_type(self, monkeypatch, tmp_path):
        cfg = {"tau": "0.5", "trajectories": "40", "omega-e": 2}
        args = self._parsed(monkeypatch, tmp_path, cfg, "trajectories")
        assert (args["tau"], args["trajectories"], args["omega_e"]) == (0.5, 40, 2.0)
        assert isinstance(args["omega_e"], float)

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
