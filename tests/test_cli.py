import json
import logging

import numpy as np
import pytest

from platoon_lab import cli, platoon
from platoon_lab.analysis import direct_response

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

    def test_round_trip_identity(self):
        cfg, band, _ = cli.parse_config(base_doc(n=5, gains=[1, 2, 3, 4], asymmetries=0.25))
        again, band2, _ = cli.parse_config(cli.config_to_dict(cfg, band))
        assert again == cfg
        assert band2 == band


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

    def test_unit_asymmetry_omits_bound(self, tmp_path, caplog):
        path = write_doc(tmp_path, base_doc(asymmetries=1.0))
        out = tmp_path / "report.json"
        with caplog.at_level(logging.INFO):
            assert cli.cmd_spectrum(path, str(out)) == 0
        doc = json.loads(out.read_text())
        assert "theorem1_lower" not in doc
        assert "dominance_certificate" not in doc
        assert any("no uniform lower bound" in r.message for r in caplog.records)

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
                      ["--t-end", "inf"], ["--t-end", "nan"]):
            assert cli.main(["step", "--config", path, *flags]) == 2, flags
            assert "config error" in capsys.readouterr().err

    def test_divergence_exits_2(self, tmp_path, capsys):
        # the real pole near -lam*1e4 is far too fast for dt = 0.01, and
        # dt_limit, which reads only oscillation frequencies, does not see it
        doc = base_doc(n=6, vehicle={"num": [1e4], "den": [1, 1]}, controller=UNIT)
        out = tmp_path / "step.csv"
        assert cli.main(["step", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 2
        assert "integration diverged" in capsys.readouterr().err
        assert not out.exists()


UNIT = {"num": [1], "den": [1]}
LOOP_COMMANDS = ("harmonic", "freqresp", "gamma", "step")


class TestEdgeLoops:
    """Open loops whose closed-loop blocks are zero-order or have poles at or near s = 0."""

    @pytest.mark.parametrize("vehicle, asymmetries, step_error", [
        (UNIT, 0.5, "open loop must be proper"),  # denominator 1 + lam
        ({"num": [1, -1], "den": [1, 1]}, 0.0, "open loop must be proper"),  # lam = 1: 2 + 0*s
        ({"num": [1e301], "den": [1, 1]}, 0.5, "integration diverged"),  # s is round-off
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
