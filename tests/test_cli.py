import dataclasses
import hashlib
from collections import Counter
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ruinwalk.charpoly as charpoly
import ruinwalk.pipeline as pipeline
import ruinwalk.supremum as supremum
import ruinwalk.survival as survival
import ruinwalk.verification as verification
from ruinwalk.cli import main
from ruinwalk.config import ModelConfig, config_from_dict, load_config
from ruinwalk.distributions import FinitePmf, Geometric
from ruinwalk.errors import ConfigError
from ruinwalk.pipeline import run_model
from ruinwalk.reporting import render_report, write_outputs

P = 101.0 / 300.0
# mean 0.99999 at premium rate 1: x_1 = 1 - 1e-5 cancels the s^1 term of Q
NEAR_CRITICAL = FinitePmf((1e-5, 1 - 1e-5))
SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    """`python -m ruinwalk` in a child process that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ruinwalk", *args], capture_output=True, text=True, env=env
    )


def _mismatching_digests(paths, digests) -> list[str]:
    """Names of the written files whose sha256 differs from the pinned one."""
    return [p.name for p in paths if hashlib.sha256(p.read_bytes()).hexdigest() != digests[p.name]]


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
                "mc": {"paths": 777, "horizon": 99, "seed": 4},
            }
        )
        assert cfg.kappa == 2 and cfg.u_max == 17 and cfg.t_max == 40
        assert cfg.mc_paths == 777 and cfg.mc_horizon == 99 and cfg.seed == 4

    def test_settable_fields(self):
        names = [f.name for f in dataclasses.fields(ModelConfig)]
        assert names == ["kappa", "dist", "u_max", "t_max", "mc_paths", "mc_horizon", "seed"]
        # a class constant, not a setting: the benchmark's reference gate reads it
        assert ModelConfig.tol_real == supremum.TOL_REAL

    def test_rejects_tolerances(self):
        # the decision tolerances are module constants; no config can loosen a check
        with pytest.raises(ConfigError, match="tolerances"):
            config_from_dict(
                {
                    "kappa": 2,
                    "dist": {"kind": "geometric", "p": 0.5},
                    "tolerances": {"tol_real": 0.5},
                }
            )

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
        # the routes are read on phi(0..kappa), so the recurrence check has a
        # stencil; the report holds phi(0..u_max)
        cfg = ModelConfig(kappa=3, dist=Geometric(P), u_max=1, t_max=5)
        report = run_model(cfg)
        assert report.survival.phi.size == 2
        assert report.all_passed

    @pytest.mark.parametrize("verify", [False, True], ids=["plain", "verify"])
    @pytest.mark.parametrize(
        "dist, kappa",
        [
            (Geometric(P), 2),
            (FinitePmf((0.128, 0.576, 0.264, 0.032)), 3),
            (FinitePmf((0.7, 0.3)), 1),
        ],
        ids=["geometric_k2", "double_root_k3", "bernoulli_k1"],
    )
    def test_u_max_zero(self, dist, kappa, verify):
        # a one-row table: phi(0) alone, and phi(0, T) for T = 1..t_max
        cfg = ModelConfig(
            kappa=kappa, dist=dist, u_max=0, t_max=5, mc_paths=2000, mc_horizon=100
        )
        report = run_model(cfg, verify=verify)
        deep = run_model(dataclasses.replace(cfg, u_max=40))
        assert report.survival.phi.tolist() == deep.survival.phi[:1].tolist()
        assert report.finite_time.phi.tolist() == deep.finite_time.phi[:, :1].tolist()
        assert report.all_passed
        if verify and kappa == 2:
            assert "sequence_limits_agreement" in {c.name for c in report.checks}

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

    @pytest.mark.parametrize(
        "dist, kappa", [(Geometric(P), 2), (FinitePmf((0.7, 0.3)), 1)],
        ids=["geometric_k2", "bernoulli_k1"],
    )
    def test_verify_derives_each_model_polynomial_once(self, monkeypatch, dist, kappa):
        # Q, g and Q1 come from one characteristic polynomial, R = C @ mass
        # from the solve and both root-product readers from one law; only the
        # identity check rebuilds R, from its own masses
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        names = ("build_characteristic", "deflate_at_one", "root_product", "cdf_toeplitz")
        for module in (charpoly, supremum, survival, verification, pipeline):
            for name in names:
                if name in vars(module):
                    monkeypatch.setattr(module, name, counted(name, vars(module)[name]))
        cfg = ModelConfig(
            kappa=kappa, dist=dist, u_max=30, t_max=10, mc_paths=2000, mc_horizon=100
        )
        report = run_model(cfg, verify=True)
        assert report.all_passed
        assert calls["build_characteristic"] == 1
        assert calls["deflate_at_one"] == 1
        assert calls["root_product"] == 1
        assert calls["cdf_toeplitz"] <= 2

    def test_root_product_checks_read_the_runs_law(self, monkeypatch):
        # a root-product law off by a relative 1e-7 fails both checks that read it
        closed_form = pipeline.sup_pmf_closed_form

        def scaled(*args):
            law = closed_form(*args)
            return dataclasses.replace(
                law, numerator=lambda s: law.numerator(s) * (1 + 1e-7), phi0=law.phi0 * (1 + 1e-7)
            )

        monkeypatch.setattr(pipeline, "sup_pmf_closed_form", scaled)
        report = run_model(ModelConfig(kappa=3, dist=Geometric(P), u_max=40, t_max=5))
        failed = {c.name for c in report.checks if not c.passed}
        assert {"closed_form_initial_values", "table_vs_root_product"} <= failed

    def test_near_critical_model(self):
        # the deflation remainder carries the roundoff of the cancelled s^1 term
        report = run_model(ModelConfig(kappa=1, dist=NEAR_CRITICAL, u_max=50, t_max=30))
        assert report.survival.phi[0] == pytest.approx(1e-5, rel=1e-6)  # 1 - EX
        assert report.all_passed

    @pytest.mark.parametrize(
        "dist, kappa",
        [
            (FinitePmf(tuple(np.full(201, 1.0 / 201))), 151),
            (FinitePmf(tuple(np.full(151, 1.0 / 151))), 100),
            (Geometric(0.01), 120),
        ],
        ids=["uniform_0_200_k151", "uniform_0_150_k100", "geometric_0.01_k120"],
    )
    def test_large_kappa_passes_every_check(self, dist, kappa):
        report = run_model(ModelConfig(kappa=kappa, dist=dist, u_max=300, t_max=5))
        assert [c.name for c in report.checks if not c.passed] == []

    def test_no_surviving_path_is_not_an_exact_match(self):
        # phi(0) = 1e-5: no path of 20 000 survives at u = 0, so the plug-in
        # std err is 0; its 1/paths floor makes 3 std err the rule-of-three bound
        cfg = ModelConfig(kappa=1, dist=NEAR_CRITICAL, u_max=50, t_max=30, mc_paths=20_000, seed=0)
        report = run_model(cfg, verify=True)
        assert report.mc.phi_hat[0] == 0.0
        assert report.mc.std_err[0] == 1.0 / 20_000
        assert report.all_passed

    @pytest.mark.parametrize(
        "dist, kappa",
        [(FinitePmf((0.7, 0.3)), 1), (FinitePmf((0.128, 0.576, 0.264, 0.032)), 3)],
        ids=["bernoulli_k1", "double_root_k3"],
    )
    def test_concordance_catches_a_table_too_low(self, monkeypatch, dist, kappa):
        # the horizon bias is taken against the root-product table, so a table
        # 1e-3 too low cannot raise its own allowance by the same 1e-3
        table = pipeline.ultimate_survival_table

        def lowered(*args):
            good = table(*args)
            return dataclasses.replace(good, phi=good.phi - 1e-3)

        monkeypatch.setattr(pipeline, "ultimate_survival_table", lowered)
        cfg = ModelConfig(kappa=kappa, dist=dist, u_max=20, t_max=5, mc_paths=4096, seed=3)
        report = run_model(cfg, verify=True)
        check = next(c for c in report.checks if c.name == "mc_concordance_excess")
        assert not check.passed, check

    def test_a_three_sigma_miss_is_inside_its_band(self):
        # at this seed, the first from 0 with such a miss, one estimate lies
        # 3.10 standard errors from phi(u, T): outside 3 plug-in standard
        # errors plus the bias, the rule before the bands, but inside the
        # band of a 1e-6 false-alarm rate
        cfg = ModelConfig(
            kappa=2, dist=FinitePmf((0.0, 0.6, 0.4)), u_max=60, t_max=20,
            mc_paths=16_384, seed=210,
        )
        report = run_model(cfg, verify=True)
        est, phi = report.mc, report.survival.phi
        assert np.max(np.abs(est.phi_hat - phi[est.u]) - (3.0 * est.std_err + report.mc_bias)) > 0
        assert report.all_passed

    @pytest.mark.parametrize("delta", [0.03, -0.03])
    def test_concordance_catches_a_table_off_by_more_than_its_band(self, monkeypatch, delta):
        # no probe of the geometric law at kappa=3 has phi(u, T) at 0 or 1;
        # at 16 384 paths its bands reach 0.0203 either side (phi(0, T) is
        # about 0.48), so an error of 0.03 is wider than every band
        table = pipeline.ultimate_survival_table

        def shifted(*args):
            good = table(*args)
            return dataclasses.replace(good, phi=good.phi + delta)

        monkeypatch.setattr(pipeline, "ultimate_survival_table", shifted)
        cfg = ModelConfig(kappa=3, dist=Geometric(P), u_max=20, t_max=5, mc_paths=16_384, seed=3)
        report = run_model(cfg, verify=True)
        check = next(c for c in report.checks if c.name == "mc_concordance_excess")
        assert not check.passed, check


    @pytest.mark.parametrize("u_max", [1, 5])
    @pytest.mark.parametrize(
        "dist, kappa",
        [(FinitePmf((1.0 / 41.0,) * 41), 25), (Geometric(0.03), 50), (Geometric(P), 3)],
        ids=["unif40_k25", "geom_k50", "geom_k3"],
    )
    def test_recurrence_catches_a_wrong_phi0_below_kappa(self, monkeypatch, dist, kappa, u_max):
        # every route is read on phi(0..max(u_max, kappa)), so a check that
        # shares no roots with the table covers phi(0) at every u_max
        table = pipeline.ultimate_survival_table

        def raised(*args):
            good = table(*args)
            phi = good.phi.copy()
            phi[0] += 1e-7
            return dataclasses.replace(good, phi=phi)

        monkeypatch.setattr(pipeline, "ultimate_survival_table", raised)
        report = run_model(ModelConfig(kappa=kappa, dist=dist, u_max=u_max, t_max=5))
        assert report.survival.phi.size == u_max + 1
        check = next(c for c in report.checks if c.name == "recurrence_fixed_point")
        assert not check.passed, check

    @pytest.mark.parametrize(
        "name, spoil, check",
        [
            ("mc_survival", lambda est: dataclasses.replace(est, phi_hat=est.phi_hat * np.nan),
             "mc_concordance_excess"),
            # a NaN phi(u, T) gives a NaN band, not a crash
            ("horizon_bias_bound", lambda bias: bias * np.nan, "mc_concordance_excess"),
            ("survival_gf_closed", lambda value: value * np.nan, "gf_closed_agreement"),
            # a NaN in phi0 reaches the fold first and propagates anyway
            ("recurrent_sequence_limits", lambda lim: dataclasses.replace(lim, phi1=np.nan),
             "sequence_limits_agreement"),
        ],
        ids=["mc", "mc_bias", "gf_closed", "sequence_limits"],
    )
    def test_nan_fails_its_check(self, monkeypatch, name, spoil, check):
        # NaN compares False with everything: a fold with Python's max drops it
        route = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args, **kwargs: spoil(route(*args, **kwargs)))
        cfg = ModelConfig(
            kappa=2, dist=Geometric(P), u_max=5, t_max=10, mc_paths=2000, mc_horizon=100
        )
        report = run_model(cfg, verify=True)
        result = next(c for c in report.checks if c.name == check)
        assert not result.passed, result


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

    def test_u_max_zero_writes_one_row_tables(self, tmp_path):
        cfg = write_config(
            tmp_path, {"kappa": 2, "dist": {"kind": "geometric", "p": P}, "t_max": 3}
        )
        out = tmp_path / "out"
        res = run_cli(
            "--config", str(cfg), "--u-max", "0", "--out", str(out), "--verify",
            "--mc-paths", "2000",
        )
        assert res.returncode == 0, res.stderr
        survival = (out / "survival.csv").read_text().splitlines()
        assert survival[0] == "u,phi" and len(survival) == 2 and survival[1].startswith("0,")
        finite = (out / "finite_time.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in finite[1:]] == [["0", "1"], ["0", "2"], ["0", "3"]]

    def test_near_critical_model_exit_0(self, tmp_path):
        cfg = write_config(
            tmp_path, {"kappa": 1, "dist": NEAR_CRITICAL.to_dict(), "u_max": 50, "t_max": 30}
        )
        res = run_cli("--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 0, res.stderr

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
            {"tolerances": {"tol_real": 1e-8}},
        ],
        ids=["u_max_str", "u_max_frac", "kappa_bool", "mc_null", "p_str", "pmf_str", "tolerances"],
    )
    def test_malformed_value_exit_2(self, tmp_path, payload):
        cfg = write_config(
            tmp_path, {"kappa": 2, "dist": {"kind": "geometric", "p": P}, **payload}
        )
        res = run_cli("--config", str(cfg))
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr

    def test_nan_pmf_entry_is_a_config_error(self, tmp_path):
        # json reads NaN; the entry must not reach the net profit test as a nan mean
        cfg = write_config(
            tmp_path, {"kappa": 2, "dist": {"kind": "finite", "pmf": [float("nan"), 0.5, 0.5]}}
        )
        res = run_cli("--config", str(cfg))
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("config error"), res.stderr

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
        # sensitivity window around TOL_CLUSTER
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
        write_outputs(report, tmp_path, fmt="csv")
        first = (tmp_path / "survival.csv").read_text().splitlines()[1]
        value = first.split(",")[1]
        assert len(value.replace("0.", "").rstrip("0")) >= 10  # 12 significant digits

    # sha256 of every file write_outputs(..., include_timings=False) writes:
    # the published output format, pinned byte for byte
    OUTPUT_DIGESTS = {
        "geometric_k2": (
            Geometric(P), 2, 2000, 20,
            {
                "report.txt": "948feb200c0f2ed7dfe1d6b3fba8a6eadde6c7abc37cbf7eba5f9523d59b7a1c",
                "survival.csv": "20750188c8ef29d93af2ae05863b8c95642d93490896e176173c9df93ef8ce51",
                "finite_time.csv": "24321a5de14047ce0b5e5cefedeaff996920875d3d9e2eb86b9a1bb868518c5e",
                "roots.csv": "f916bd1dd17f700ede5cd3117822a5cf17ef294a0b93921a5c86904b6e313618",
                "verification.csv": "f25b4c0a5920983e902bfeb0ce3daee6d62c45c5aa3c8f558fa97509ec10d333",
            },
        ),
        "double_root_k3": (
            FinitePmf((0.128, 0.576, 0.264, 0.032)), 3, 200, 50,
            {
                "report.txt": "19d621ab0c85f16a0aa354dc16ce6346a08ba5f6d8825f8e10c44d2bbe7b2243",
                "survival.csv": "6f3b270b696bc29b5913f14f7b85c7d9e7853dc59c129d10663ce685a4697c6c",
                "finite_time.csv": "d73da9751d130d4331f2d6e1675854641705b93f240e524038a25f46fcd5a3a6",
                "roots.csv": "2c7c1cfa868483c572ae7fcf323d6a1b6044cfc120d25eecd6bc1a61ef9c0d1f",
                "verification.csv": "b44e59e24945e211037493ac1aeb89ec60a34da090156233d0b0da933891a670",
            },
        ),
        "shifted_k2": (
            FinitePmf((0.0, 0.6, 0.4)), 2, 200, 50,
            {
                "report.txt": "0fd8bec46f1222af4805200e90a3c4c267ea9a0874547f6f6e4072852c17e3a1",
                "survival.csv": "8c7d862097ec1de030635a0f076cd396a8df057c289c21424a707e2e7a0dc6a5",
                "finite_time.csv": "e03942713fccbc19a7fd5fb634f69f711ead054265871268ed0cf7cb58392f40",
                "roots.csv": "505570ef2023a2d575d3d1c3c7297e0b9d0e2ad0a7ff884b74529ab7c303b9f3",
                "verification.csv": "fc32e8d3822999e42f1f4a48a798e41b33e91fab8a54e414fd050d4496631266",
            },
        ),
        # phi(0, T) = 3e-05 prints in exponent form
        "tiny_survival_k1": (
            FinitePmf((3e-5, 0.99997)), 1, 50, 30,
            {
                "report.txt": "6e87e3550e380b868f6e8b8577ac2146a24147b28fbe632b6e8b7712c04ab9d8",
                "survival.csv": "2e43513922a7718aece5d1e1c539fd27a14c409e85e8be793f3f95ef87cf42e5",
                "finite_time.csv": "9b9e3773c547b267ea1bf6b5e70c6335578557fa5f242b0571da63287a16c706",
                "roots.csv": "505570ef2023a2d575d3d1c3c7297e0b9d0e2ad0a7ff884b74529ab7c303b9f3",
                "verification.csv": "50f971ccbb7b744d8c76ec018d7c044f7f750dc515ec453306c79fe4b8f66b46",
            },
        ),
        # a root on the unit circle: on_boundary prints True
        "boundary_root_k2": (
            FinitePmf((0.5, 0.0, 0.5)), 2, 200, 50,
            {
                "report.txt": "d8bf1eb0b3a4f15645582b7bc8d898ddedd094e8a8e33a6febf33b990e23c562",
                "survival.csv": "58c955e59f1a34dc706e5c213cd8ef593a9032867e31c370cc32fcfae9a75329",
                "finite_time.csv": "7240a8f92b28f2784f8cb2863b1a8370e15c156c4ffcc16ca12445f3edb81288",
                "roots.csv": "17b7214fa800a32a0217dd552b3b8aad9e2cc079884a0436eaa002a6a391f598",
                "verification.csv": "2cd612c9c40160a620d096cf42c631a3b9dd8058ee2deffd67480efbb967db97",
            },
        ),
        # the table with the fewest repeated values: 25 983 distinct in the
        # 40 020 cells of finite_time.csv
        "geometric_k50": (
            Geometric(0.03), 50, 2000, 20,
            {
                "report.txt": "d08263c791e8a5a2a052bceaf4b4bf5afebae7029146f6ffb8ad5ee5009c59a9",
                "survival.csv": "c269e83eaaf19205f0eab47378b71a7b72f3a509130731af0561f3127c1d1e9a",
                "finite_time.csv": "d4eebdcb2025c0ec0b32aa0551bd217387bcf90156a52f275c2d96514427ea05",
                "roots.csv": "6f82a7f7fc4c1a847442fb6b1f93c0ef9ac9813a3ff668faf87a1094f5c9ad56",
                "verification.csv": "fc9cc5f96c02ec5aabce4a61986a23a9ab1c9e020a2da033420f16cb35481987",
            },
        ),
    }

    @pytest.mark.parametrize("model", list(OUTPUT_DIGESTS))
    def test_output_digests(self, tmp_path, model):
        dist, kappa, u_max, t_max, digests = self.OUTPUT_DIGESTS[model]
        report = run_model(ModelConfig(kappa=kappa, dist=dist, u_max=u_max, t_max=t_max))
        paths = write_outputs(report, tmp_path, include_timings=False)
        assert [p.name for p in paths] == list(digests)
        assert _mismatching_digests(paths, digests) == []
        if model == "tiny_survival_k1":
            assert b"\r\n0,1,3e-05\r\n" in (tmp_path / "finite_time.csv").read_bytes()

    # the same for a --verify run, Monte Carlo and sequence limits included
    VERIFY_DIGESTS = {
        "report.txt": "811020f1f69d70a11081b20c4c5b3cfc566acea34c83445d01e4313e10b3ea80",
        "survival.csv": "5a48a36a5b153a17f23c2435d6c7ed9d46fa8e0f06b8ccabbec26d95ac56e145",
        "finite_time.csv": "baaa17c3e3f5db4db4a54ccbe8a22809d962fc97e47c335afe49edb352c77417",
        "roots.csv": "f916bd1dd17f700ede5cd3117822a5cf17ef294a0b93921a5c86904b6e313618",
        "verification.csv": "c4f53e7bed32b6597550c11043b7421930a5d586447338ce7e67f44c6e2531cc",
    }

    def test_verify_output_digests(self, tmp_path):
        cfg = ModelConfig(
            kappa=2, dist=Geometric(P), u_max=60, t_max=20,
            mc_paths=4096, mc_horizon=2000, seed=7,
        )
        paths = write_outputs(run_model(cfg, verify=True), tmp_path, include_timings=False)
        assert [p.name for p in paths] == list(self.VERIFY_DIGESTS)
        assert _mismatching_digests(paths, self.VERIFY_DIGESTS) == []

    def test_unknown_format_rejected(self, tmp_path):
        report = run_model(ModelConfig(kappa=2, dist=Geometric(P), u_max=4, t_max=6))
        with pytest.raises(ValueError, match="cvs"):
            write_outputs(report, tmp_path, fmt="cvs")
        assert list(tmp_path.iterdir()) == []

    def test_warnings_in_report(self, shifted_dist):
        cfg = ModelConfig(kappa=2, dist=shifted_dist, u_max=4, t_max=6)
        text = render_report(run_model(cfg))
        assert "support floor 1 shifted away" in text
