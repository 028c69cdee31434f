import importlib
import io
import json
import logging
import math
import pkgutil

import numpy as np
import pytest

import platoon_lab
from platoon_lab import analysis, blockpeak, cli, platoon, sim
from platoon_lab.analysis import _prepared, direct_response

from conftest import make_cfg


def base_doc(**overrides):
    doc = {
        "n": 3,
        "gains": 1.0,
        "asymmetries": 0.5,
        "vehicle": {"num": [1.0], "den": [0.0, 0.0, 1.0]},
        "controller": {"num": [3.0, 43.0, 110.0], "den": [1.0, 2.9, 1.0]},
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def doc_text(*missing, **overrides):
    """JSON text of ``base_doc(**overrides)`` with the fields ``missing`` removed."""
    doc = base_doc(**overrides)
    for field in missing:
        del doc[field]
    return json.dumps(doc)


class TestConfigParsing:
    def test_scalar_broadcast(self):
        cfg, band, _ = cli.parse_config(base_doc(n=4))
        assert cfg.gains == (1.0, 1.0, 1.0)
        assert cfg.asymmetries == (0.5, 0.5, 0.0)
        assert band == (1e-3, 1e3)

    def test_missing_controller_den(self):
        doc = base_doc()
        del doc["controller"]["den"]
        with pytest.raises(cli.ConfigError, match="controller.den required"):
            cli.parse_config(doc)

    def test_missing_n(self):
        doc = base_doc()
        del doc["n"]
        with pytest.raises(cli.ConfigError, match="n required"):
            cli.parse_config(doc)

    def test_wrong_array_length(self):
        with pytest.raises(cli.ConfigError, match="gains"):
            cli.parse_config(base_doc(gains=[1.0, 1.0, 1.0]))

    def test_last_asymmetry_notice(self, caplog):
        with caplog.at_level(logging.INFO, logger="platoon_lab.cli"):
            cfg, _, _ = cli.parse_config(base_doc(asymmetries=[0.5, 0.7]))
        assert cfg.asymmetries == (0.5, 0.0)
        assert any("overwritten" in r.message for r in caplog.records)

    def test_omega_band_validation(self):
        for band in ([1.0, 0.1], [1e-3, float("inf")], [float("nan"), 1.0]):
            with pytest.raises(cli.ConfigError, match="omega_band"):
                cli.parse_config(base_doc(omega_band=band))

    def test_library_faults_are_config_errors(self):
        assert cli.ConfigError is platoon.ConfigError
        with pytest.raises(cli.ConfigError, match="asymmetries must have n-1 = 2 entries, got 3"):
            cli.parse_config(base_doc(asymmetries=[0.5, 0.5, 0.5]))

    @pytest.mark.parametrize("overrides, message", [
        ({"gains": 10 ** 400}, "gains entries must be within the range of a double"),
        ({"asymmetries": [0.5, 10 ** 400]}, "asymmetries entries must be within the range of a double"),
        ({"vehicle": {"num": [10 ** 400], "den": [0, 0, 1]}},
         "vehicle: int too large to convert to float"),
        ({"omega_band": [1e-3, 10 ** 400]}, "omega_band must be [lo, hi] with finite 0 < lo < hi"),
    ])
    def test_integer_beyond_double_range_exits_2(self, tmp_path, capsys, overrides, message):
        path = write_doc(tmp_path, base_doc(**overrides))
        assert cli.main(["spectrum", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1 and message in err

    @pytest.mark.parametrize("command, text, flags, message", [
        ("spectrum", "[1, 2]", [], "config must be a JSON object"),
        ("spectrum", None, [], "cannot read config"),
        ("spectrum", "{", [], "config is not valid JSON"),
        ("spectrum", doc_text(n=1), [], "n must be an integer >= 2"),
        ("spectrum", doc_text(n=2.5), [], "n must be an integer >= 2"),
        ("spectrum", doc_text("gains"), [], "gains required"),
        ("spectrum", doc_text(gains="1"), [], "gains must be a number or an array of numbers"),
        ("spectrum", doc_text(gains=[1.0, None]), [], "gains entries must be numbers"),
        ("spectrum", doc_text("vehicle"), [], "vehicle required"),
        ("spectrum", doc_text(vehicle={"num": [], "den": [0, 0, 1]}), [],
         "vehicle.num must be a nonempty array of coefficients"),
        ("freqresp", doc_text(), ["--points", "1"], "points must be >= 2"),
        ("gamma", doc_text(), ["--n-min", "10", "--n-max", "5"], "need 2 <= n-min <= n-max and n-step >= 1"),
    ])
    def test_config_fault_exits_2(self, tmp_path, capsys, command, text, flags, message):
        path = tmp_path / "cfg.json"  # not written when text is None: an unreadable path
        if text is not None:
            path.write_text(text)
        assert cli.main([command, "--config", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1 and message in err

    @pytest.mark.parametrize("size", [
        10 ** 12,  # 7.3 TiB of gains
        10 ** 20,  # beyond numpy's size limit
    ])
    @pytest.mark.parametrize("command, field", [("spectrum", "n"), ("gamma", "n-max"), ("step", "n")])
    def test_oversized_platoon_exits_2(self, tmp_path, capsys, size, command, field):
        if field == "n":
            args = ["--config", write_doc(tmp_path, base_doc(n=size))]
        else:
            args = ["--config", write_doc(tmp_path, base_doc()), "--n-max", str(size)]
        assert cli.main([command, *args]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1
        assert f"platoon of {size} vehicles does not fit in memory; lower {field}" in err

    def test_quadratic_array_beyond_memory_exits_2(self, tmp_path, capsys):
        # the 320 GB Laplacian is refused before any eigensolve
        path = write_doc(tmp_path, base_doc(n=200_000))
        assert cli.main(["identities", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 1
        assert "platoon of 200000 vehicles: its 200000 x 200000 Laplacian" in err

    def test_ref_distance_is_ignored(self):
        # configs written for earlier versions may still carry the spacing
        assert cli.parse_config(base_doc(ref_distance=10.0))[0] == cli.parse_config(base_doc())[0]


class TestCmdSpectrum:
    def test_three_vehicle_report(self, tmp_path):
        path = write_doc(tmp_path, base_doc())
        out = tmp_path / "report.json"
        assert cli.cmd_spectrum(path, str(out)) == 0
        doc = json.loads(out.read_text())
        assert np.allclose(doc["eigenvalues"], [0.5, 2.0])
        assert doc["fiedler"] == pytest.approx(0.5)
        assert doc["theorem1_lower"] == pytest.approx(0.25 / 3.0)
        cert = doc["dominance_certificate"]
        assert cert["p"] == pytest.approx(1.5)
        assert len(cert["row_margins"]) == 2
        assert cert["lower_bound"] <= doc["fiedler"]

    @pytest.mark.parametrize("eps", [5e-324, 1e-309, 1e-12, 1e-6, 2e-5])
    def test_small_asymmetry_certificate_holds(self, tmp_path, eps):
        # RuntimeWarnings are errors in this suite
        path = write_doc(tmp_path, base_doc(n=5, asymmetries=eps))
        out = tmp_path / "report.json"
        assert cli.main(["spectrum", "--config", path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        cert = doc["dominance_certificate"]
        assert len(cert["row_margins"]) == 4 and all(math.isfinite(x) for x in cert["row_margins"])
        assert doc["theorem1_lower"] - 1e-12 <= cert["lower_bound"] <= doc["fiedler"]

    def test_unit_asymmetry_omits_bound(self, tmp_path, caplog):
        path = write_doc(tmp_path, base_doc(asymmetries=1.0))
        out = tmp_path / "report.json"
        with caplog.at_level(logging.INFO):
            assert cli.cmd_spectrum(path, str(out)) == 0
        doc = json.loads(out.read_text())
        assert "theorem1_lower" not in doc
        assert "dominance_certificate" not in doc
        assert any("no uniform lower bound" in r.message for r in caplog.records)

    def test_report_without_out_goes_to_stdout(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc())
        out = tmp_path / "report.json"
        assert cli.main(["spectrum", "--config", path, "--out", str(out)]) == 0
        assert cli.main(["spectrum", "--config", path]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_missing_field_exits_2(self, tmp_path, capsys):
        doc = base_doc()
        del doc["controller"]["den"]
        path = write_doc(tmp_path, doc)
        code = cli.main(["spectrum", "--config", path])
        assert code == 2
        assert "controller.den required" in capsys.readouterr().err


class TestCmdHarmonic:
    def test_asymmetric_unstable(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=20))
        out = tmp_path / "harm.json"
        assert cli.cmd_harmonic(path, str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "harmonically-unstable"
        assert doc["hinf_gamma_min"] > 1.0
        assert doc["alpha"] < -0.5

    def test_symmetric_inconclusive(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=20, asymmetries=1.0))
        out = tmp_path / "harm.json"
        assert cli.cmd_harmonic(path, str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "test-inconclusive"
        assert doc["theorem1_lower"] is None

    def test_dc_peak_at_integrator_reports_null_alpha_beta(self, tmp_path):
        integrator = {"vehicle": {"num": [1], "den": [0, 1]}, "controller": {"num": [1], "den": [1]}}
        out = tmp_path / "harm.json"
        # eps = 0.5: the block at the bound peaks at DC with unit gain;
        # eps = 1.0: no uniform bound, only the Fiedler block is searched
        for eps, gamma_min, omega0 in ((0.5, 1.0, 0.0), (1.0, None, None)):
            path = write_doc(tmp_path, base_doc(n=10, gains=1, asymmetries=eps, **integrator))
            assert cli.cmd_harmonic(path, str(out)) == 0
            doc = json.loads(out.read_text())
            assert set(doc) == {"verdict", "fiedler", "theorem1_lower", "lambda_min_used",
                                "hinf_gamma_min", "hinf_gamma_fiedler", "omega0", "alpha",
                                "beta", "zeta_min", "omega_band"}
            assert doc["verdict"] == "test-inconclusive"
            assert doc["hinf_gamma_min"] == gamma_min and doc["omega0"] == omega0
            assert doc["hinf_gamma_fiedler"] == 1.0
            assert doc["alpha"] is None and doc["beta"] is None and doc["zeta_min"] is None

    def test_dc_peak_without_integrator_keeps_alpha_beta(self, tmp_path):
        doc = base_doc(n=6, vehicle={"num": [1], "den": [1, 1]},
                       controller={"num": [2], "den": [1, 0.5]})
        out = tmp_path / "harm.json"
        assert cli.cmd_harmonic(write_doc(tmp_path, doc), str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["omega0"] == 0.0
        assert doc["alpha"] == pytest.approx(2.0 * doc["lambda_min_used"], rel=1e-15)
        assert doc["beta"] == 0.0

    def test_destabilized_controller_exits_3(self, tmp_path):
        doc = base_doc(controller={"num": [-3.0, -43.0, -110.0], "den": [1.0, 2.9, 1.0]})
        path = write_doc(tmp_path, doc)
        out = tmp_path / "harm.json"
        assert cli.cmd_harmonic(path, str(out)) == 3
        assert json.loads(out.read_text())["verdict"] == "unstable-blocks"


class TestCmdFreqresp:
    def test_rows_and_dc_magnitude(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=6))
        out = tmp_path / "freq.csv"
        assert cli.cmd_freqresp(path, str(out), n_points=120) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "omega_rad_s,re,im,mag_db"
        assert len(lines) == 121
        first = lines[1].split(",")
        assert abs(float(first[3])) < 1e-3  # 0 dB at the low edge

    @pytest.mark.parametrize("points", [
        10 ** 12,  # beyond the address space
        10 ** 20,  # beyond numpy's size limit
    ])
    def test_oversized_frequency_grid_exits_2(self, tmp_path, capsys, points):
        path = write_doc(tmp_path, base_doc(n=6))
        assert cli.main(["freqresp", "--config", path, "--points", str(points)]) == 2
        assert f"frequency grid of {points} points" in capsys.readouterr().err

    def test_matches_direct_oracle(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=6))
        out = tmp_path / "freq.csv"
        cli.cmd_freqresp(path, str(out), n_points=40)
        cfg = make_cfg(6, eps=0.5)
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        for row in rows[::13]:
            w = float(row[0])
            got = complex(float(row[1]), float(row[2]))
            expect = cfg.gains[0] * direct_response(cfg, w)
            assert abs(got - expect) <= 1e-6 * max(abs(expect), 1.0)


class TestCmdGamma:
    def test_sweep_columns_and_growth(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=5))
        out = tmp_path / "gamma.csv"
        assert cli.cmd_gamma(path, str(out), n_min=5, n_max=20, n_step=5) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,gamma,gamma_root_n,zeta_min_lower"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [5, 10, 15, 20]
        gammas = [float(r[1]) for r in rows]
        assert gammas == sorted(gammas)
        for r in rows:
            n, gamma, zeta = int(r[0]), float(r[1]), float(r[3])
            assert gamma >= zeta ** (n - 1)

    def test_array_template_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc(gains=[1.0, 1.0]))
        code = cli.main(["gamma", "--config", path, "--n-min", "5", "--n-max", "10"])
        assert code == 2
        assert "sweep requires scalar template" in capsys.readouterr().err


class TestCmdStep:
    def test_step_csv_settles(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=4))
        out = tmp_path / "step.csv"
        assert cli.cmd_step(path, str(out), t_end=150.0, dt=0.01) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,pos_2,pos_3,pos_4"
        final = [float(x) for x in lines[-1].split(",")[1:]]
        assert np.allclose(final, 1.0, atol=1e-3)

    def test_oversized_dt_exits_2_with_required_value(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc(n=4))
        code = cli.main(["step", "--config", path, "--dt", "1.0", "--t-end", "10"])
        assert code == 2
        assert "required dt" in capsys.readouterr().err

    def test_invalid_horizon_or_step_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc(n=4))
        for flags in (["--dt", "0"], ["--dt", "-1"], ["--dt", "nan"], ["--t-end", "0"],
                      ["--t-end", "inf"], ["--t-end", "nan"], ["--t-end", "1e300", "--dt", "1e-300"],
                      ["--t-end", "1e12", "--dt", "1e-3"]):  # 1e15 rows: beyond the address space
            assert cli.main(["step", "--config", path, *flags]) == 2, flags
            assert "config error" in capsys.readouterr().err

    def test_divergence_exits_2(self, tmp_path, capsys):
        # the real pole near -lam*1e4 is far too fast for dt = 0.01; dt_limit
        # names the dt that RK4's real-axis stability bound requires, and that
        # dt integrates
        doc = base_doc(n=6, vehicle={"num": [1e4], "den": [1, 1]}, controller=UNIT)
        path, out = write_doc(tmp_path, doc), tmp_path / "step.csv"
        assert cli.main(["step", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "required dt" in err and not out.exists()
        required = err.rsplit("<= ", 1)[1].strip()
        assert cli.main(["step", "--config", path, "--out", str(out), "--t-end", "0.1", "--dt", required]) == 0
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)))

    def test_streamed_csv_equals_simulate_and_write_csv(self, tmp_path, monkeypatch):
        # n = 30 and 2500 steps: several blocks of steps, and blocks that are
        # not a multiple of the rows per format operation
        doc = base_doc(n=30)
        path, out = write_doc(tmp_path, doc), tmp_path / "step.csv"
        writes = []
        write_csv = sim.write_csv

        def spy(fh, blocks):
            writes.append(None)
            return write_csv(fh, blocks)

        monkeypatch.setattr(sim, "write_csv", spy)
        assert cli.cmd_step(path, str(out), t_end=25.0, dt=0.01) == 0
        ts = sim.simulate(sim.SimScenario(cfg=cli.parse_config(doc)[0], leader_signal=sim.StepSignal(1.0),
                                          t_end=25.0, dt=0.01))
        fh = io.StringIO()
        ts.write_csv(fh)
        assert len(writes) == 2  # the stream and the whole series share one row formatter
        assert out.read_text() == fh.getvalue() and len(ts.times) == 2501

    def test_divergence_mid_stream_leaves_no_file(self, tmp_path, capsys):
        # the 1e301 numerator passes every check made before the first row is
        # written, and the first block of steps overflows
        doc = base_doc(n=6, vehicle={"num": [1e301], "den": [1, 1]}, controller=UNIT)
        path, out = write_doc(tmp_path, doc), tmp_path / "step.csv"
        out.write_text("an earlier result\n")
        assert cli.main(["step", "--config", path, "--out", str(out)]) == 2
        assert "integration diverged" in capsys.readouterr().err and not out.exists()
        assert cli.main(["step", "--config", path]) == 2
        captured = capsys.readouterr()  # rows already printed to stdout stay there
        assert captured.out == "t,pos_2,pos_3,pos_4,pos_5,pos_6\n0,0,0,0,0,0\n"
        assert "integration diverged" in captured.err

    def test_output_file_is_deleted_when_the_command_raises(self, tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(KeyError):
            with cli._output(str(out)) as fh:
                fh.write("partial row")
                raise KeyError("failed mid-write")
        assert not out.exists()
        missing = tmp_path / "no-such-dir" / "out.csv"  # open fails: nothing to delete
        with pytest.raises(FileNotFoundError):
            with cli._output(str(missing)):
                pass


UNIT = {"num": [1], "den": [1]}
LOOP_COMMANDS = ("harmonic", "freqresp", "gamma", "step")


class TestEdgeLoops:
    """Open loops whose closed-loop blocks are zero-order or have poles at or near s = 0."""

    @pytest.mark.parametrize("vehicle, asymmetries, step_error", [
        (UNIT, 0.5, "open loop must be proper"),  # denominator 1 + lam
        ({"num": [1, -1], "den": [1, 1]}, 0.0, "open loop must be proper"),  # lam = 1: 2 + 0*s
        ({"num": [1e301], "den": [1, 1]}, 0.5, "integration diverged"),  # s is round-off
        ({"num": [0], "den": [1]}, 0.5, "open loop must be proper"),  # M = 0 has no state
    ])
    def test_zero_order_blocks(self, tmp_path, capsys, vehicle, asymmetries, step_error):
        doc = base_doc(n=6, asymmetries=asymmetries, vehicle=vehicle, controller=UNIT)
        path = write_doc(tmp_path, doc)
        out = str(tmp_path / "out")
        for argv in (["harmonic"], ["freqresp"], ["gamma", "--n-max", "10"]):
            assert cli.main([*argv, "--config", path, "--out", out]) == 0, argv
        assert cli.main(["step", "--config", path, "--t-end", "10", "--out", out]) == 2
        assert step_error in capsys.readouterr().err

    @pytest.mark.parametrize("gains, vehicle", [
        (1.0, {"num": [-1], "den": [1]}),  # 1 + lam*M is identically zero at lam = 1
        (1e10, {"num": [1e301], "den": [1, 1]}),  # lam*1e301 overflows at lam = 1e10
    ])
    def test_unformable_blocks_exit_2_from_every_command(self, tmp_path, capsys, gains, vehicle):
        doc = base_doc(n=2, gains=gains, asymmetries=0, vehicle=vehicle, controller=UNIT)
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        for command in LOOP_COMMANDS:
            assert cli.main([command, "--config", path, "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert err.count("config error") == 1 and f"lam={gains:.17g}:" in err, command
            assert not out.exists(), command

    @pytest.mark.parametrize("overrides, message, commands", [
        # mu_3 * mu_2*eps_2 = 1e200 * 0.5e200 overflows
        ({"gains": 1e200}, "sub*sup must be finite", ("spectrum",) + LOOP_COMMANDS),
        # and 1e-200 * 0.5e-200 underflows to 0
        ({"gains": 1e-200}, "sub*sup must be finite", ("spectrum",) + LOOP_COMMANDS),
        ({"vehicle": {"num": [1e200], "den": [1]}, "controller": {"num": [1e200], "den": [1]}},
         "no open loop M = C*G", LOOP_COMMANDS),  # the numerator 1e400 overflows
        ({"vehicle": {"num": [1], "den": [1e-200]}, "controller": {"num": [1], "den": [1e-200]}},
         "no open loop M = C*G", LOOP_COMMANDS),  # the denominator 1e-400 underflows to 0
    ])
    def test_out_of_range_products_exit_2(self, tmp_path, capsys, overrides, message, commands):
        path = write_doc(tmp_path, base_doc(n=3, asymmetries=0.5, **overrides))
        out = tmp_path / "out"
        for command in commands:
            assert cli.main([command, "--config", path, "--out", str(out)]) == 2, command
            err = capsys.readouterr().err
            assert err.count("config error") == 1 and message in err, command
            assert not out.exists(), command

    def test_missing_block_at_the_bound_is_inconclusive(self, tmp_path, caplog):
        # M = -2: eigenvalues 1 give the zero-order block 2, but at the uniform
        # bound 0.5 the denominator 1 - 2*0.5 is identically zero
        doc = base_doc(n=3, asymmetries=0, vehicle={"num": [-2], "den": [1]}, controller=UNIT)
        out = tmp_path / "harm.json"
        with caplog.at_level(logging.WARNING):
            assert cli.main(["harmonic", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        assert got["verdict"] == "test-inconclusive" and got["lambda_min_used"] == 0.5
        assert got["hinf_gamma_min"] is None and got["hinf_gamma_fiedler"] == 2.0
        assert any("cannot run at the uniform bound" in r.message and "lam=0.5:" in r.message
                   for r in caplog.records)

    @pytest.mark.parametrize("vehicle", [
        {"num": [0, 1], "den": [0, 0, 1]},  # s/s^2: a closed-loop pole at exactly 0
        {"num": [1e-10, 1], "den": [0, 1e-10, 1]},  # a pole in (-1e-9, 0)
    ])
    def test_marginal_poles_step_full_horizon(self, tmp_path, caplog, vehicle):
        path = write_doc(tmp_path, base_doc(n=6, vehicle=vehicle, controller=UNIT))
        out = tmp_path / "step.csv"
        with caplog.at_level(logging.WARNING):
            assert cli.main(["step", "--config", path, "--t-end", "10", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 1001
        assert not any("capping" in r.message for r in caplog.records)
        assert cli.main(["harmonic", "--config", path, "--out", str(tmp_path / "h.json")]) == 3

    def test_pole_at_zero_exits_2_from_gamma(self, tmp_path, capsys):
        # s/s^2 closes to s*(s + lam): the DC value of every peak search is undefined
        doc = base_doc(n=6, vehicle={"num": [0, 1], "den": [0, 0, 1]}, controller=UNIT)
        path, out = write_doc(tmp_path, doc), tmp_path / "out"
        assert cli.main(["gamma", "--config", path, "--n-max", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: response undefined at omega=0.0: closed-loop pole on the imaginary axis" in err
        assert not out.exists()
        assert cli.main(["harmonic", "--config", path, "--out", str(out)]) == 3

    def test_zero_of_m_at_dc_exits_0(self, tmp_path):
        # M = s/(s+1)^3: T(0) = 0, which the peak search of gamma evaluates
        doc = base_doc(n=6, vehicle={"num": [1], "den": [1, 2, 1]}, controller={"num": [0, 1], "den": [1, 1]})
        path = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        assert cli.main(["freqresp", "--config", path, "--out", str(out)]) == 0
        assert cli.main(["gamma", "--config", path, "--n-max", "10", "--out", str(out)]) == 0
        assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, usecols=1)))


class TestNonFiniteResponse:
    """A response that leaves double range is a config error (exit 2), not a traceback."""

    WIDE = {"n": 20, "omega_band": [1e-3, 1e200]}  # Horner evaluation of M overflows

    def test_wide_band_gamma_exits_2(self, tmp_path, capsys):
        path, out = write_doc(tmp_path, base_doc(**self.WIDE)), tmp_path / "out"
        # the Horner overflow is reported once, as a config error; a RuntimeWarning would fail the test
        assert cli.main(["gamma", "--config", path, "--n-min", "20", "--n-max", "20", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: non-finite response at omega=9.94257" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    def test_wide_band_harmonic_equals_the_default_band(self, tmp_path):
        # the block peaks are closed-form and evaluated in 1/(j*omega) above
        # omega = 1, so nothing overflows (a RuntimeWarning would fail the test)
        out = tmp_path / "out"
        docs = []
        for band in ([1e-3, 1e3], self.WIDE["omega_band"]):
            path = write_doc(tmp_path, base_doc(**{**self.WIDE, "omega_band": band}))
            assert cli.main(["harmonic", "--config", path, "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[1].pop("omega_band") == [1e-3, 1e200]
        del docs[0]["omega_band"]
        assert docs[0] == docs[1] and docs[0]["verdict"] == "harmonically-unstable"

    def test_wide_band_improper_block_exits_2(self, tmp_path, capsys):
        # (1 - s^2)/(1 + s)^2 closes at lam = 1 to (1 - s^2)/(2 + 2s), whose gain grows
        # without bound: its peak is at 1e200, where 1 + lam*M rounds to exactly 0
        doc = base_doc(n=4, asymmetries=0.0, vehicle={"num": [1, 0, -1], "den": [1, 2, 1]},
                       controller=UNIT, omega_band=[1e-3, 1e200])
        path, out = write_doc(tmp_path, doc), tmp_path / "out"
        assert cli.main(["harmonic", "--config", path, "--out", str(out)]) == 2
        assert "config error: closed-loop pole at the peak frequency" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_product_freqresp_warns_once(self, tmp_path, caplog):
        # the rows stay as computed (a known defect); numpy's warnings do not reach stderr
        path, out = write_doc(tmp_path, base_doc(n=4000)), tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="platoon_lab.analysis"):
            assert cli.main(["freqresp", "--config", path, "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.count_nonzero(np.isnan(rows).any(axis=1)) == 12
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["12 of 400 frequency response values are not finite; they are kept as computed"]

    def test_overflowing_product_gamma_exits_2(self, tmp_path, capsys):
        # log|T| is finite at n = 4000, but T itself exceeds double range
        path, out = write_doc(tmp_path, base_doc(n=4000)), tmp_path / "out"
        assert cli.main(["gamma", "--config", path, "--n-min", "4000", "--n-max", "4000",
                         "--out", str(out)]) == 2
        assert "config error: non-finite response at omega=5.6088" in capsys.readouterr().err
        assert not out.exists()


class TestCmdIdentities:
    def test_small_platoon_passes(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc(n=8, asymmetries=0.4))
        assert cli.cmd_identities(path) == 0
        out = capsys.readouterr().out
        assert "inverse_sum_residual" in out

    def test_defective_config_exits_4(self, tmp_path, capsys):
        path = write_doc(tmp_path, base_doc(n=5, asymmetries=0.0))
        assert cli.cmd_identities(path) == 4
        assert "simple eigenvalues" in capsys.readouterr().out

    def test_working_set_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        # the n x n probe fits, but the identities' own arrays do not
        def out_of_memory(cfg):
            raise MemoryError

        monkeypatch.setattr(analysis, "verify_eigen_identities", out_of_memory)
        path = write_doc(tmp_path, base_doc(n=8))
        assert cli.main(["identities", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("config error") == 1
        assert "platoon of 8 vehicles: its eigenvector identities do not fit in memory; lower n" in captured.err


FOUR_COMMANDS = (
    ("spectrum", []),
    ("harmonic", []),
    ("freqresp", ["--points", "60"]),
    ("gamma", ["--n-min", "12", "--n-max", "12"]),
)


def clear_caches():
    """Cold start: a second run of a command replays the per-config and per-open-loop caches."""
    _prepared.cache_clear()
    platoon.spectrum_report.cache_clear()
    sim._pole_pass.cache_clear()
    analysis._open_loop.cache_clear()
    analysis._oracle_realization.cache_clear()
    blockpeak._stable_gains.cache_clear()


def module_caches():
    """Every cached function defined at module level in platoon_lab, by qualified name."""
    caches = {}
    for info in pkgutil.iter_modules(platoon_lab.__path__):
        module = importlib.import_module(f"platoon_lab.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                caches[f"{module.__name__}.{name}"] = obj
    return caches


class TestClearCaches:
    def test_every_module_cache_is_emptied(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=6))
        for command, flags in (*FOUR_COMMANDS, ("step", ["--t-end", "0.1"])):
            assert cli.main([command, "--config", path, "--out", str(tmp_path / command), *flags]) == 0
        direct_response(make_cfg(6), 1.0)
        caches = module_caches()
        assert {name for name, f in caches.items() if f.cache_info().currsize == 0} == set()
        clear_caches()
        assert {name: f.cache_info().currsize for name, f in caches.items()
                if f.cache_info().currsize} == {}


class TestDeterminism:
    def test_spectrum_byte_identical(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=12, asymmetries=0.37))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli.cmd_spectrum(path, str(a))
        cli.cmd_spectrum(path, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_freqresp_byte_identical(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=7))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.cmd_freqresp(path, str(a), n_points=60)
        cli.cmd_freqresp(path, str(b), n_points=60)
        assert a.read_bytes() == b.read_bytes()

    def test_cold_and_warm_runs_are_byte_identical(self, tmp_path):
        path = write_doc(tmp_path, base_doc(n=12, asymmetries=0.37))
        for command, flags in FOUR_COMMANDS:
            clear_caches()
            cold, warm = tmp_path / f"{command}-cold", tmp_path / f"{command}-warm"
            assert cli.main([command, "--config", path, "--out", str(cold), *flags]) == 0
            assert cli.main([command, "--config", path, "--out", str(warm), *flags]) == 0
            assert cold.read_bytes() == warm.read_bytes(), command


class TestOneSpectrumPerConfig:
    def test_pole_solves_do_not_grow_with_n(self, tmp_path, monkeypatch):
        stacks = []  # rows of each companion_roots call
        real = blockpeak.companion_roots

        def counting(coeffs):
            stacks.append(int(np.prod(np.shape(coeffs)[:-1])))
            return real(coeffs)

        monkeypatch.setattr(blockpeak, "companion_roots", counting)
        path = write_doc(tmp_path, base_doc(n=4000))
        # gamma at n = 4000 exits 2: the product overflows (a known defect), after its stability test
        for command, flags, code in (("harmonic", [], 0), ("freqresp", [], 0),
                                     ("gamma", ["--n-min", "4000", "--n-max", "4000"], 2)):
            clear_caches()
            stacks.clear()
            with np.errstate(over="ignore", invalid="ignore"):
                assert cli.main([command, "--config", path, "--out", str(tmp_path / command), *flags]) == code
            assert stacks and max(stacks) == 1, (command, stacks)
        # step solves every block's poles, once per config, in one stacked call per degree
        path = write_doc(tmp_path, base_doc(n=50))
        clear_caches()
        stacks.clear()
        for _ in range(2):
            assert cli.main(["step", "--config", path, "--t-end", "0.1", "--out", str(tmp_path / "step")]) == 0
        assert [k for k in stacks if k > 1] == [49]

    def test_four_commands_solve_the_spectrum_once(self, tmp_path, monkeypatch):
        calls = []
        real = platoon.spectrum

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(platoon, "spectrum", counting)
        # uniform bands take the phase-equation route, array gains the tridiagonal eigensolver;
        # gamma sweeps scalar templates only
        for gains, commands in ((1.0, FOUR_COMMANDS), ([1.0 + 0.1 * i for i in range(11)], FOUR_COMMANDS[:3])):
            path = write_doc(tmp_path, base_doc(n=12, gains=gains, asymmetries=0.37))
            clear_caches()
            calls.clear()
            for command, flags in commands:
                assert cli.main([command, "--config", path, "--out", str(tmp_path / command), *flags]) == 0
            assert len(calls) == 1, gains
