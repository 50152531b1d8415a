import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ruinwalk.verification as verification
from ruinwalk.cli import main
from ruinwalk.config import ModelConfig, config_from_dict, load_config
from ruinwalk.distributions import FinitePmf, Geometric
from ruinwalk.errors import ConfigError
from ruinwalk.pipeline import run_model
from ruinwalk.reporting import render_report

P = 101.0 / 300.0
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    """`python -m ruinwalk` in a child process that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ruinwalk", *args], capture_output=True, text=True, env=env
    )


def write_config(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestConfig:
    def test_full_round_trip(self):
        cfg = config_from_dict(
            {
                "kappa": 2,
                "dist": {"kind": "geometric", "p": 0.336},
                "u_max": 17,
                "t_max": 40,
                "tolerances": {"tol_root": 1e-11},
                "mc": {"paths": 777, "horizon": 99, "seed": 4},
            }
        )
        assert cfg.kappa == 2 and cfg.u_max == 17 and cfg.t_max == 40
        assert cfg.tol_root == 1e-11 and cfg.mc_paths == 777 and cfg.seed == 4

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kappa": 2, "dist": {"kind": "geometric", "p": 0.5}, "bogus": 1})

    def test_rejects_missing_dist(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kappa": 2})

    def test_rejects_non_integer_kappa(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kappa": 2.5, "dist": {"kind": "geometric", "p": 0.5}})

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


class TestPipeline:
    def test_example_model_report_values(self):
        cfg = ModelConfig(kappa=3, dist=Geometric(P), u_max=8, t_max=20)
        report = run_model(cfg)
        np.testing.assert_allclose(
            report.sup_mass, [0.582072, 0.0818989, 0.0658497], atol=1e-5
        )
        assert report.survival.phi[0] == pytest.approx(0.480212, abs=1e-5)
        assert report.all_passed

    def test_trivial_model(self):
        cfg = ModelConfig(kappa=2, dist=FinitePmf((0.0, 0.0, 1.0)), u_max=5, t_max=10)
        report = run_model(cfg)
        assert report.status == "trivial_survival"
        assert report.survival.phi[0] == 0.0
        assert np.all(report.survival.phi[1:] == 1.0)
        assert report.sup_mass[0] == 1.0

    def test_trivial_model_grid_has_configured_size(self):
        cfg = ModelConfig(kappa=2, dist=FinitePmf((0.0, 0.0, 1.0)), u_max=30, t_max=200)
        grid = run_model(cfg).finite_time.phi
        assert grid.shape == (200, 31)
        assert np.all(grid[:, 0] == 0.0) and np.all(grid[:, 1:] == 1.0)

    def test_shifted_model_reduces(self, shifted_dist):
        cfg = ModelConfig(kappa=2, dist=shifted_dist, u_max=6, t_max=10)
        report = run_model(cfg)
        assert report.kappa_eff == 1 and report.reduction_shift == 1
        assert report.survival.phi[0] == pytest.approx(0.6, abs=1e-12)
        assert report.all_passed

    def test_double_root_with_verify(self, double_root_dist):
        cfg = ModelConfig(
            kappa=3, dist=double_root_dist, u_max=6, t_max=10, mc_paths=20_000, mc_horizon=200
        )
        report = run_model(cfg, verify=True)
        assert any(r["multiplicity"] == 2 for r in report.roots)
        names = {c.name for c in report.checks}
        assert "gf_identity_residual" in names and "mc_concordance_excess" in names
        assert report.all_passed
        # the root product takes the repeated root with its multiplicity
        assert "closed_form_agreement" in names

    def test_verify_on_kappa2_includes_sequence_check(self):
        cfg = ModelConfig(
            kappa=2, dist=Geometric(P), u_max=5, t_max=10, mc_paths=20_000, mc_horizon=400
        )
        report = run_model(cfg, verify=True)
        names = {c.name for c in report.checks}
        assert "sequence_limits_agreement" in names
        assert report.all_passed

    def test_u_max_below_kappa(self):
        # no u has the recurrence's whole stencil in the table, so its check is vacuous
        cfg = ModelConfig(kappa=3, dist=Geometric(P), u_max=1, t_max=5)
        report = run_model(cfg)
        assert report.survival.phi.size == 2
        assert report.all_passed

    @pytest.mark.parametrize(
        "dist, kappa", [(Geometric(P), 2), (FinitePmf((0.3, 0.1, 0.2, 0.15, 0.25)), 3)]
    )
    def test_recurrence_check_matches_loop(self, dist, kappa):
        # the convolution in the pipeline against the plain double loop
        report = run_model(ModelConfig(kappa=kappa, dist=dist, u_max=80, t_max=5))
        phi = report.survival.phi
        loop = max(
            abs(phi[u] - sum(dist.pmf(u + kappa - i) * phi[i] for i in range(1, u + kappa + 1)))
            for u in range(0, 80 - kappa + 1)
        )
        value = next(c.value for c in report.checks if c.name == "recurrence_fixed_point")
        assert value == pytest.approx(loop, abs=1e-15)

    def test_verify_simulates_suprema_once(self, monkeypatch):
        # concordance and stationarity read the same sample of walk suprema
        calls = []
        simulate = verification._all_suprema

        def counted(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(verification, "_all_suprema", counted)
        cfg = ModelConfig(
            kappa=2, dist=Geometric(P), u_max=5, t_max=10, mc_paths=2000, mc_horizon=100
        )
        report = run_model(cfg, verify=True)
        assert len(calls) == 1
        assert report.stationarity.paths == report.mc.paths == 2000
        assert report.all_passed


class TestCliProcess:
    def test_example_run_writes_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"kappa": 3, "dist": {"kind": "geometric", "p": P}, "u_max": 6, "t_max": 12},
        )
        res = run_cli("--config", str(cfg), "--out", str(tmp_path), "--no-timings")
        assert res.returncode == 0, res.stderr
        report = (tmp_path / "report.txt").read_text()
        assert "0.582072" in report and "0.480212" in report
        for name in ("survival.csv", "finite_time.csv", "roots.csv", "verification.csv"):
            assert (tmp_path / name).exists()

    def test_net_profit_rejection_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"kappa": 2, "dist": {"kind": "geometric", "p": 0.25}})
        res = run_cli("--config", str(cfg))
        assert res.returncode == 2
        assert "net profit" in res.stderr

    def test_malformed_config_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        res = run_cli("--config", str(path))
        assert res.returncode == 2
        assert "config error" in res.stderr

    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    def test_unreadable_config_exit_2(self, tmp_path, kind):
        path = tmp_path / "model.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"kappa": 2, "dist": "\xff"}')
        res = run_cli("--config", str(path))
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr

    @pytest.mark.parametrize(
        "payload",
        [
            {"u_max": "ten"},
            {"u_max": 2.9},
            {"kappa": True},
            {"mc": {"paths": None}},
            {"dist": {"kind": "geometric", "p": "x"}},
            {"dist": {"kind": "finite", "pmf": [0.5, "a"]}},
            {"tolerances": {"tol_real": "x"}},
        ],
        ids=["u_max_str", "u_max_frac", "kappa_bool", "mc_null", "p_str", "pmf_str", "tol_str"],
    )
    def test_malformed_value_exit_2(self, tmp_path, payload):
        cfg = write_config(
            tmp_path, {"kappa": 2, "dist": {"kind": "geometric", "p": P}, **payload}
        )
        res = run_cli("--config", str(cfg))
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr

    def test_unknown_flag_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"kappa": 1, "dist": {"kind": "finite", "pmf": [0.7, 0.3]}})
        res = run_cli("--config", str(cfg), "--frobnicate")
        assert res.returncode == 2

    def test_u_max_override_monotone_column(self, tmp_path):
        cfg = write_config(
            tmp_path, {"kappa": 2, "dist": {"kind": "geometric", "p": P}, "u_max": 3}
        )
        res = run_cli(
            "--config", str(cfg), "--u-max", "100", "--out", str(tmp_path), "--format", "csv"
        )
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "survival.csv").read_text().strip().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        assert len(values) == 101
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_report_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "kappa": 2,
                "dist": {"kind": "geometric", "p": P},
                "u_max": 5,
                "t_max": 10,
                "mc": {"paths": 5000, "horizon": 100, "seed": 42},
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        r1 = run_cli("--config", str(cfg), "--verify", "--out", str(out1), "--no-timings")
        r2 = run_cli("--config", str(cfg), "--verify", "--out", str(out2), "--no-timings")
        assert r1.returncode == 0 and r2.returncode == 0
        assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
        assert (out1 / "verification.csv").read_bytes() == (out2 / "verification.csv").read_bytes()

    def test_format_report_only(self, tmp_path):
        cfg = write_config(tmp_path, {"kappa": 1, "dist": {"kind": "finite", "pmf": [0.7, 0.3]}})
        out = tmp_path / "r"
        res = run_cli("--config", str(cfg), "--out", str(out), "--format", "report")
        assert res.returncode == 0
        assert (out / "report.txt").exists()
        assert not (out / "survival.csv").exists()

    def test_stdout_report_without_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kappa": 1, "dist": {"kind": "finite", "pmf": [0.7, 0.3]}})
        code = main(["--config", str(cfg), "--no-timings"])
        captured = capsys.readouterr()
        assert code == 0
        assert "checks" in captured.out


class TestWarningPaths:
    """Each warning or diagnostic failure path has a reachable fixture config."""

    def test_boundary_root_warning(self):
        cfg = ModelConfig(kappa=2, dist=FinitePmf((0.5, 0.0, 0.5)), u_max=5, t_max=5)
        report = run_model(cfg)
        assert any("unit circle" in w for w in report.warnings)
        assert any(r["on_boundary"] for r in report.roots)

    def test_cluster_ambiguity_reachable(self, tmp_path):
        # a near-double root whose splitting lands inside the factor-10
        # sensitivity window around tol_cluster
        delta = 1e-12
        probs = np.array([0.128 - delta, 0.576, 0.264, 0.032 + delta])
        probs /= probs.sum()
        cfg = write_config(
            tmp_path, {"kappa": 3, "dist": {"kind": "finite", "pmf": list(probs)}}
        )
        res = run_cli("--config", str(cfg))
        assert res.returncode == 1
        assert "AmbiguousCluster" in res.stderr


class TestRendering:
    def test_machine_precision_in_csv(self, tmp_path):
        cfg = ModelConfig(kappa=2, dist=Geometric(P), u_max=4, t_max=6)
        report = run_model(cfg)
        from ruinwalk.reporting import write_outputs

        write_outputs(report, tmp_path, fmt="csv")
        first = (tmp_path / "survival.csv").read_text().splitlines()[1]
        value = first.split(",")[1]
        assert len(value.replace("0.", "").rstrip("0")) >= 10  # 12 significant digits

    def test_warnings_in_report(self, shifted_dist):
        cfg = ModelConfig(kappa=2, dist=shifted_dist, u_max=4, t_max=6)
        text = render_report(run_model(cfg))
        assert "support floor 1 shifted away" in text
