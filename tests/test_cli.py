import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hamalg import measurement
from hamalg.cli import (
    MAX_PRODUCT_MONOMIALS,
    UsageError,
    _build_algebra,
    _check_polynomial_size,
    _defaults,
    _load_schema,
    _parse_grid,
    build_parser,
    main,
)

SUBCOMMANDS = ("verify", "brackets", "simulate", "uniqueness")


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def argparse_exit_code(*argv):
    """Exit code of a call that argparse must reject."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestUnreadOptions:
    """``verify`` refuses an option its algebra would silently ignore."""

    @pytest.mark.parametrize("argv, named", [
        (("--hybrid", "--hbar", "5"), "--hbar"),
        (("--realization", "phase-space", "--dim", "7"), "--dim"),
        (("--composed", "--a1", "1", "--a2", "1", "--a12", "1", "--pairs", "3"), "--pairs"),
        (("--dim", "3", "--a1", "4"), "--a1"),
        (("--realization", "phase-space", "--dim2", "3", "--hbar", "2"), "--hbar, --dim2"),
        (("--hybrid", "--realization", "phase-space", "--a2", "2"), "--realization, --a2"),
        (("--composed", "--a1", "1", "--a2", "1", "--a12", "1", "--degree", "2"), "--degree"),
    ])
    def test_unread_option_is_a_usage_error(self, argv, named, capsys):
        assert run_cli("verify", *argv, "--trials", "1") == 2
        assert f"error: {named} not used by the" in capsys.readouterr().err

    def test_unread_option_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"hybrid": True, "hbar": 5})
        assert run_cli("verify", "--config", cfg, "--trials", "1") == 2
        assert "--hbar not used by the hybrid algebra" in capsys.readouterr().err

    def test_options_at_their_defaults_pass(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert run_cli("verify", "--hybrid", "--hbar", "1.0", "--dim1", "2", "--trials", "1",
                       "--out", out) == 0

    def test_benchmark_verify_reports_are_accepted(self, load_perfbench_module):
        workloads = load_perfbench_module("workloads")
        reports = [workloads.PROBE, *(r for rs in workloads.WORKLOADS.values() for r in rs)]
        verify = [r for r in reports if r.argv[0] == "verify"]
        assert len(verify) >= 4
        for report in verify:
            argv = workloads.argv_for(report, "r.json", "r.csv", 0)
            _build_algebra(build_parser().parse_args(argv))


class TestVacuousGreens:
    """``verify`` refuses a realization whose bracket vanishes identically,
    where every bracket identity would pass without testing anything."""

    @pytest.mark.parametrize("argv, why", [
        (("--dim", "1"), "--dim 1: 1x1 matrices commute"),
        (("--composed", "--a1", "1", "--a2", "1", "--a12", "1", "--dim1", "1", "--dim2", "1"),
         "--dim1 1 --dim2 1: 1x1 factors commute"),
        (("--realization", "phase-space", "--degree", "0"),
         "--degree 0: constants have zero Poisson bracket"),
        (("--hybrid", "--dim", "1"), "no classical-bracket term"),
    ])
    def test_vanishing_bracket_is_a_usage_error(self, argv, why):
        with pytest.raises(UsageError, match="pass vacuously") as exc:
            _build_algebra(build_parser().parse_args(["verify", *argv]))
        assert why in str(exc.value)

    def test_refusal_exits_2_from_the_command_line(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "hamalg.cli", "verify", "--hybrid",
                               "--dim", "1", "--trials", "2"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "no classical-bracket term" in proc.stderr
        assert proc.stdout == ""

    def test_one_dimensional_factor_beside_a_matrix_runs(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("verify", "--composed", "--a1", "1", "--a2", "2", "--a12", "1.5",
                       "--dim1", "1", "--dim2", "2", "--trials", "2", "--out", str(out)) == 0
        assert read_json(out)["passed"]


class TestVerify:
    def test_operator_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("verify", "--realization", "operator", "--dim", "3",
                       "--hbar", "1", "--trials", "40", "--out", str(out))
        assert code == 0
        doc = read_json(out)
        jsonschema.validate(doc, _load_schema())
        assert doc["passed"]
        assert doc["algebra"]["dim"] == 3

    def test_phase_space_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("verify", "--realization", "phase-space", "--pairs", "1",
                       "--degree", "3", "--trials", "20", "--out", str(out))
        assert code == 0

    def test_composed_theorem(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("verify", "--composed", "--a1", "1", "--a2", "4", "--a12", "9",
                       "--trials", "25", "--out", str(out))
        assert code == 0
        assert read_json(out)["algebra"]["kind"] == "qq"

    def test_composed_echoes_the_constants_given(self, tmp_path):
        # a2 = 2 is kept as given, not recovered from hbar = 2 sqrt(2) as
        # hbar**2 / 4 = 2.0000000000000004
        out = tmp_path / "report.json"
        assert run_cli("verify", "--composed", "--a1", "1", "--a2", "2", "--a12", "1.5",
                       "--trials", "2", "--out", str(out)) == 0
        algebra = read_json(out)["algebra"]
        assert (algebra["a1"], algebra["a2"], algebra["a12"]) == (1.0, 2.0, 1.5)
        assert (algebra["left"]["a"], algebra["right"]["a"]) == (1.0, 2.0)

    def test_hbar_is_converted_once(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--hbar", "0.7", "--trials", "2", "--out", str(out)) == 0
        algebra = read_json(out)["algebra"]
        assert algebra["a"] == 0.7 * 0.7 / 4
        assert algebra["hbar"] == 2 * math.sqrt(0.7 * 0.7 / 4)

    @pytest.mark.parametrize("hbar, a", [("1e-200", "0.0"), ("1e300", "inf")])
    def test_hbar_whose_a_leaves_the_floats_is_refused(self, hbar, a, tmp_path, capsys):
        # a = hbar**2 / 4 underflows to 0 or overflows to inf
        out = tmp_path / "report.json"
        assert run_cli("verify", "--hbar", hbar, "--trials", "1", "--out", str(out)) == 2
        assert (f"error: hbar {float(hbar)} gives a = hbar**2/4 = {a}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_hybrid_a12_falls_back_to_a1(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--hybrid", "--a1", "2.25", "--trials", "1",
                       "--out", str(out)) == 0
        algebra = read_json(out)["algebra"]
        assert (algebra["a1"], algebra["a12"]) == (2.25, 2.25)

    def test_hybrid(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("verify", "--hybrid", "--a1", "1", "--trials", "20",
                       "--out", str(out))
        assert code == 0
        assert read_json(out)["algebra"]["kind"] == "qc"

    def test_nan_defects_fail(self, tmp_path, capsys):
        # at hbar 1e-160 the bracket overflows, and every Jacobi and
        # canonical-relation defect is NaN: no defect is under the tolerance.
        # The overflow is quiet: the suite turns a RuntimeWarning into an error
        out = tmp_path / "report.json"
        assert run_cli("verify", "--hbar", "1e-160", "--trials", "3",
                       "--out", str(out)) == 1
        checks = {c["identity"]: c for c in read_json(out)["checks"]}
        err = capsys.readouterr().err
        assert "Warning" not in err
        for name in ("jacobi", "canonical_relation"):
            assert math.isnan(checks[name]["mean_relative_defect"])
            assert math.isnan(checks[name]["max_relative_defect"])
            assert checks[name]["worst_witness"] == []
            assert not checks[name]["passed"]
            assert f"[FAIL] {name} " in err
            assert re.search(rf"\[FAIL\] {name} +max defect nan ", err)

    def test_invalid_dim_usage_error(self, capsys):
        assert argparse_exit_code("verify", "--dim", "0") == 2
        assert "argument --dim: must be >= 1, got 0" in capsys.readouterr().err

    def test_invalid_tolerance_usage_error(self, capsys):
        assert argparse_exit_code("verify", "--dim", "2", "--tolerance", "-1") == 2
        assert ("argument --tolerance: must be positive and finite, got -1.0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("given", [(), ("--a1", "1"), ("--a1", "1", "--a2", "1")])
    def test_composed_needs_all_three_constants(self, given, capsys):
        assert run_cli("verify", "--composed", *given, "--trials", "1") == 2
        assert ("error: --a1, --a2, --a12 required with --composed"
                in capsys.readouterr().err)

    def test_unwritable_out_usage_error(self, tmp_path):
        assert run_cli("verify", "--dim", "2", "--trials", "5",
                       "--out", str(tmp_path / "nodir" / "x.json")) == 2

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 4, "trials": 10, "hbar": 2.0}))
        out = tmp_path / "report.json"
        assert run_cli("verify", "--config", str(cfg), "--out", str(out)) == 0
        doc = read_json(out)
        assert doc["algebra"]["dim"] == 4
        assert doc["checks"][0]["trials"] == 10

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": 4, "trials": 10}))
        out = tmp_path / "report.json"
        assert run_cli("verify", "--config", str(cfg), "--dim", "2",
                       "--out", str(out)) == 0
        assert read_json(out)["algebra"]["dim"] == 2

    def test_unknown_config_key_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_option": 1}))
        assert run_cli("verify", "--config", str(cfg)) == 2

    def test_config_sets_a_flag(self, tmp_path):
        cfg = write_config(tmp_path, {"hybrid": True})
        out = tmp_path / "report.json"
        assert run_cli("verify", "--config", cfg, "--trials", "3", "--out", str(out)) == 0
        assert read_json(out)["algebra"]["kind"] == "qc"

    @pytest.mark.parametrize("value", [1, "yes", None])
    def test_config_flag_needs_a_bool(self, tmp_path, value):
        cfg = write_config(tmp_path, {"hybrid": value})
        assert run_cli("verify", "--config", cfg) == 2

    def test_config_value_needs_a_scalar(self, tmp_path):
        assert run_cli("verify", "--config", write_config(tmp_path, {"out": None})) == 2
        assert run_cli("verify", "--config", write_config(tmp_path, {"dim": [4]})) == 2

    @pytest.mark.parametrize("command, cfg", [
        ("verify", {"dim": 4.5}),
        ("verify", {"dim": 4.0}),
        ("brackets", {"kind": "bogus"}),
        ("simulate", {"regime": "bogus"}),
        ("simulate", {"samples": 1}),
        ("uniqueness", {"tolerance": "nan"}),
    ])
    def test_config_values_are_checked_like_flags(self, tmp_path, command, cfg):
        assert argparse_exit_code(command, "--config", write_config(tmp_path, cfg)) == 2

    def test_main_reads_sys_argv(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"trials": 3, "dim": 3})
        out = tmp_path / "report.json"
        monkeypatch.setattr(sys, "argv", ["hamalg", "verify", "--config", cfg,
                                          "--out", str(out)])
        assert main() == 0
        doc = read_json(out)
        assert doc["algebra"]["dim"] == 3
        assert doc["checks"][0]["trials"] == 3

    def test_bad_seed_env_usage_error(self, monkeypatch):
        monkeypatch.setenv("HAMALG_SEED", "abc")
        assert argparse_exit_code("verify", "--trials", "1") == 2

    @pytest.mark.parametrize("argv, env", [
        (("verify", "--seed", "-1"), None),
        (("brackets", "--seed", "-1"), None),
        (("uniqueness", "--a1", "1", "--a2", "1", "--a12", "1", "--seed", "-1"), None),
        (("verify",), "-3"),
    ])
    def test_negative_seed_is_a_usage_error(self, argv, env, monkeypatch, capsys):
        # np.random.default_rng refuses a negative seed; the parser must
        # refuse it first, as a usage error, not a failed verdict
        if env is None:
            monkeypatch.delenv("HAMALG_SEED", raising=False)
        else:
            monkeypatch.setenv("HAMALG_SEED", env)
        assert argparse_exit_code(*argv) == 2
        assert "argument --seed: must be >= 0" in capsys.readouterr().err

    def test_seed_flag_beats_bad_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAMALG_SEED", "abc")
        assert run_cli("verify", "--trials", "1", "--seed", "3",
                       "--out", str(tmp_path / "r.json")) == 0

    def test_seed_flag_beats_bad_env_before_any_default_is_read(self, tmp_path, monkeypatch):
        # the verify defaults are read once per process; a bad HAMALG_SEED
        # must not fail their first reading when --seed is given
        _defaults.cache_clear()
        monkeypatch.setenv("HAMALG_SEED", "abc")
        assert run_cli("verify", "--trials", "1", "--seed", "3",
                       "--out", str(tmp_path / "r.json")) == 0

    def test_size_guard_bound(self):
        # deepest product: degree 4d in 2n variables, C(2n + 4d, 4d) monomials
        _check_polynomial_size(6, 2)   # C(20, 8) = 125,970
        with pytest.raises(UsageError, match="319,770"):
            _check_polynomial_size(7, 2)
        assert 125_970 <= MAX_PRODUCT_MONOMIALS < 319_770

    @pytest.mark.parametrize("argv, bound", [
        (("--hybrid", "--pairs", "12"), "C(32, 8)"),
        (("--realization", "phase-space", "--pairs", "4", "--degree", "4"), "C(24, 16)"),
    ])
    def test_oversized_polynomials_are_refused_quickly(self, argv, bound):
        # unguarded, one trial at 12 hybrid pairs ran for minutes; run in a
        # child so that a missing guard fails the test instead of stalling
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "hamalg.cli", "verify", *argv,
                               "--trials", "1"],
                              env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2, proc.stderr
        assert bound in proc.stderr
        assert f"limit of {MAX_PRODUCT_MONOMIALS:,}" in proc.stderr

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("HAMALG_SEED", "99")
        run_cli("verify", "--dim", "2", "--trials", "5", "--out", str(out1))
        monkeypatch.delenv("HAMALG_SEED")
        run_cli("verify", "--dim", "2", "--trials", "5", "--seed", "99",
                "--out", str(out2))
        a, b = read_json(out1), read_json(out2)
        assert a["checks"][0]["max_relative_defect"] == b["checks"][0]["max_relative_defect"]

    def test_determinism_with_seed(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run_cli("verify", "--dim", "3", "--trials", "10", "--seed", "5",
                    "--out", str(out))
            outs.append(read_json(out))
        assert outs[0]["checks"] == outs[1]["checks"]


class TestBrackets:
    def test_full_pattern_confirmed(self, tmp_path):
        out = tmp_path / "brackets.json"
        code = run_cli("brackets", "--trials", "25", "--budget", "200",
                       "--out", str(out))
        assert code == 0
        doc = read_json(out)
        jsonschema.validate(doc, _load_schema())
        assert doc["passed"]
        kinds = {d["kind"]: d for d in doc["defects"]}
        assert kinds["hybrid_paper"]["jacobi_defect"] <= 1e-10
        assert kinds["boucher_traschen"]["jacobi_defect"] > 1e-6
        assert kinds["anderson"]["antisymmetry_defect"] > 1e-6
        searches = {(s["kind"], s["desideratum"]): s for s in doc["witness_searches"]}
        assert searches[("boucher_traschen", "jacobi")]["found"]
        assert searches[("boucher_traschen", "jacobi")]["replay_agrees"]
        assert not searches[("hybrid_paper", "jacobi")]["found"]

    def test_single_kind(self, tmp_path):
        out = tmp_path / "brackets.json"
        code = run_cli("brackets", "--kind", "hybrid_paper", "--trials", "20",
                       "--budget", "100", "--out", str(out))
        assert code == 0
        doc = read_json(out)
        assert len(doc["defects"]) == 1
        assert doc["defects"][0]["kind"] == "hybrid_paper"

    def test_zero_budget_usage_error(self, capsys):
        assert argparse_exit_code("brackets", "--kind", "anderson", "--budget", "0") == 2
        assert "argument --budget: must be >= 1, got 0" in capsys.readouterr().err

    def test_nan_search_is_no_clean_result(self, tmp_path):
        # at hbar 1e-160 every Jacobi defect of the hybrid bracket is NaN
        out = tmp_path / "brackets.json"
        assert run_cli("brackets", "--kind", "hybrid_paper", "--hbar", "1e-160",
                       "--trials", "3", "--budget", "3", "--out", str(out)) == 1
        doc = read_json(out)
        jacobi = next(s for s in doc["witness_searches"] if s["desideratum"] == "jacobi")
        assert jacobi["found"] and math.isnan(jacobi["witness"]["defect"])
        assert jacobi["replay_agrees"] is False
        assert not doc["passed"]

    def test_nan_defect_is_reported(self, tmp_path, capsys):
        # the same run: every Jacobi trial is NaN, and the defect says so
        out = tmp_path / "brackets.json"
        assert run_cli("brackets", "--kind", "hybrid_paper", "--hbar", "1e-160",
                       "--trials", "3", "--budget", "3", "--out", str(out)) == 1
        doc = read_json(out)
        jsonschema.validate(doc, _load_schema())
        (defects,) = doc["defects"]
        assert math.isnan(defects["jacobi_defect"])
        assert defects["witnesses"]["jacobi"] == {"defect": 0.0, "elements": None}
        assert not defects["matches_expected_pattern"]
        assert "jacobi nan" in capsys.readouterr().err


class TestSimulate:
    def test_qq_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli("simulate", "--regime", "qq", "--m1", "1", "--m2", "1",
                       "--g0", "0.7", "--t0", "0", "--dt", "1.3", "--hbar", "1",
                       "--t-end", "2", "--samples", "9", "--out", str(out))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        jsonschema.validate(summary, _load_schema())
        assert summary["back_reaction_gap"] == pytest.approx(0.91, abs=1e-12)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "t"
        assert len(rows) == 10
        times = [float(r[0]) for r in rows[1:]]
        assert times == sorted(times)
        # p2 coefficient on p1 at the end
        idx = rows[0].index("p2.p1")
        assert float(rows[-1][idx]) == pytest.approx(-0.91, abs=1e-12)

    def test_qc_gap_zero(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli("simulate", "--regime", "qc", "--g0", "0.7", "--dt", "1.3",
                       "--t-end", "2", "--out", str(out))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["back_reaction_gap"] <= 1e-12

    def test_segments_walked_once(self, tmp_path, monkeypatch):
        # the gap is read off the trajectory, not from a second walk to t_end
        calls = []
        original = measurement.eom_generator
        monkeypatch.setattr(measurement, "eom_generator",
                            lambda cfg, t: calls.append(t) or original(cfg, t))
        assert run_cli("simulate", "--regime", "qq", "--t0", "1", "--dt", "1",
                       "--t-end", "5", "--samples", "11",
                       "--out", str(tmp_path / "traj.csv")) == 0
        assert len(calls) == 3

    def test_missing_out_streams_csv(self, capsys):
        code = run_cli("simulate", "--regime", "qq", "--samples", "3")
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith("t,")

    def test_summary_out_file(self, tmp_path):
        out = tmp_path / "traj.csv"
        summary = tmp_path / "summary.json"
        code = run_cli("simulate", "--regime", "qq", "--out", str(out),
                       "--summary-out", str(summary))
        assert code == 0
        assert read_json(summary)["report_kind"] == "simulate"

    @pytest.mark.parametrize("option", ["--g0", "--t0"])
    def test_negative_exponent_form_joined_to_its_option(self, option, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        assert run_cli("simulate", f"{option}=-1e-3", "--t-end", "2",
                       "--out", str(tmp_path / "traj.csv"),
                       "--summary-out", str(summary)) == 0
        assert read_json(summary)["config"][option[2:]] == -1e-3
        # the help names that form
        assert argparse_exit_code("simulate", "--help") == 0
        assert f"{option}=-1e-3" in " ".join(capsys.readouterr().out.split())

    def test_negative_exponent_after_a_space(self, tmp_path, capsys):
        # older argparse reads "-1e-3" as an option, not as a negative
        # number; newer argparse reads it as the value, as a bare parser shows
        probe = argparse.ArgumentParser()
        probe.add_argument("--x", type=float)
        try:
            reads_value = probe.parse_args(["--x", "-1e-3"]).x == -1e-3
        except SystemExit:
            reads_value = False
        capsys.readouterr()
        summary = tmp_path / "summary.json"
        argv = ("simulate", "--g0", "-1e-3", "--t-end", "2",
                "--out", str(tmp_path / "traj.csv"), "--summary-out", str(summary))
        if not reads_value:
            assert argparse_exit_code(*argv) == 2
            assert "argument --g0: expected one argument" in capsys.readouterr().err
        else:
            assert run_cli(*argv) == 0
            assert read_json(summary)["config"]["g0"] == -1e-3

    def test_bad_samples_usage_error(self, capsys):
        assert argparse_exit_code("simulate", "--samples", "1") == 2
        assert "argument --samples: must be >= 2, got 1" in capsys.readouterr().err

    def test_bad_default_end_names_its_formula(self, tmp_path, capsys):
        # --t-end was not given: the refusal names the default it derived
        assert run_cli("simulate", "--t0", "-5", "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert "t0 + dt + 0.5 = -3.2, must be positive and finite; give --t-end" in err
        assert "--t-end must" not in err
        assert not (tmp_path / "out").exists()
        assert run_cli("simulate", "--t0", "-5", "--t-end", "1", "--out",
                       str(tmp_path / "out")) == 0

    @pytest.mark.parametrize("regime", ["qq", "qc"])
    def test_seed_and_hbar_change_only_the_echoed_hbar(self, regime, tmp_path):
        # the help of both options says so: the trajectory is the same
        # bytes, and only config.hbar in the summary follows --hbar
        def run(*argv):
            out, summary = tmp_path / "traj.csv", tmp_path / "summary.json"
            assert run_cli("simulate", "--regime", regime, "--out", str(out),
                           "--summary-out", str(summary), *argv) == 0
            report = read_json(summary)
            del report["timestamp"]
            return out.read_bytes(), report

        csv_bytes, report = run("--seed", "5", "--hbar", "1")
        for argv in (("--seed", "6", "--hbar", "1"), ("--seed", "5", "--hbar", "0.3")):
            other_csv, other = run(*argv)
            assert other_csv == csv_bytes
            assert other.pop("config")["hbar"] == float(argv[-1])
            assert {k: v for k, v in report.items() if k != "config"} == other


class TestUniqueness:
    def test_diagonal_passes(self, tmp_path):
        out = tmp_path / "verdict.json"
        assert run_cli("uniqueness", "--a1", "1", "--a2", "1", "--a12", "1",
                       "--out", str(out)) == 0
        doc = read_json(out)
        jsonschema.validate(doc, _load_schema())
        assert doc["passed"]

    def test_off_diagonal_fails(self, tmp_path):
        out = tmp_path / "verdict.json"
        assert run_cli("uniqueness", "--a1", "1", "--a2", "4", "--a12", "9",
                       "--out", str(out)) == 1
        doc = read_json(out)
        factors = (doc["verdicts"][0]["left"]["measured_factor"],
                   doc["verdicts"][0]["right"]["measured_factor"])
        assert factors[0] == pytest.approx(1 / 3, abs=1e-10)
        assert factors[1] == pytest.approx(2 / 3, abs=1e-10)

    def test_missing_constant_usage_error(self):
        assert run_cli("uniqueness", "--a1", "1", "--a2", "1") == 2

    def test_diagonal_expected_factor_is_exactly_one(self, tmp_path):
        # sqrt(a_k / a12) on the diagonal, from the constants as given:
        # 2 sqrt(0.3) squared over 4 is not 0.3, which gave 0.9999999999999999
        out = tmp_path / "verdict.json"
        assert run_cli("uniqueness", "--a1", "0.3", "--a2", "0.3", "--a12", "0.3",
                       "--out", str(out)) == 0
        verdict = read_json(out)["verdicts"][0]
        assert (verdict["a1"], verdict["a2"], verdict["a12"]) == (0.3, 0.3, 0.3)
        assert verdict["left"]["expected_factor"] == 1.0
        assert verdict["right"]["expected_factor"] == 1.0

    def test_scan_diagonal_only(self, tmp_path):
        out = tmp_path / "scan.csv"
        jout = tmp_path / "scan.json"
        code = run_cli("uniqueness", "scan", "--grid", "0.25:4:3",
                       "--out", str(out), "--json-out", str(jout))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 27
        passing = [r for r in rows if r["passed"] == "1"]
        assert len(passing) == 3
        for r in passing:
            assert r["a1"] == r["a2"] == r["a12"]
        doc = read_json(jout)
        jsonschema.validate(doc, _load_schema())
        assert doc["pass_set_is_diagonal"]

    @pytest.mark.parametrize("spec, points", [
        (_defaults("uniqueness").grid, [0.25, 0.5, 1.0, 2.0, 4.0]),
        ("0.25:4:3", [0.25, 1.0, 4.0]),
        ("0.1:10:3", [0.1, 1.0, 10.0]),
        ("0.3:0.7:2", [0.3, 0.7]),
        ("0.3:0.7:1", [0.3]),
    ])
    def test_grid_endpoints_and_power_of_two_points_are_exact(self, spec, points):
        assert _parse_grid(spec) == points

    def test_scan_bad_grid_usage_error(self):
        assert run_cli("uniqueness", "scan", "--grid", "4:1:5") == 2

    def test_grid_before_scan_is_used(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli("uniqueness", "--grid", "0.25:4:2", "scan", "--out", str(out)) == 0
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 8

    def test_constants_with_scan_usage_error(self):
        assert run_cli("uniqueness", "scan", "--a1", "1") == 2

    @pytest.mark.parametrize("extra, named", [
        (("--json-out", "{dir}/u.json"), "--json-out"),
        (("--grid", "1:2:9"), "--grid"),
        (("--json-out", "{dir}/u.json", "--grid", "1:2:9"), "--json-out, --grid"),
    ])
    def test_scan_options_without_scan_usage_error(self, tmp_path, capsys, extra, named):
        argv = ("uniqueness", "--a1", "1", "--a2", "1", "--a12", "1",
                *(a.format(dir=tmp_path) for a in extra))
        assert run_cli(*argv) == 2
        assert f"error: {named} not used without the scan mode" in capsys.readouterr().err
        assert not (tmp_path / "u.json").exists()

    def test_default_grid_without_scan_runs(self, tmp_path):
        assert run_cli("uniqueness", "--a1", "1", "--a2", "1", "--a12", "1",
                       "--grid", _defaults("uniqueness").grid,
                       "--out", str(tmp_path / "u.json")) == 0


class TestNonFiniteInputs:
    @pytest.mark.parametrize("argv, named", [
        (("simulate", "--t0", "nan", "--t-end", "5"), "--t0"),
        (("simulate", "--g0", "inf"), "--g0"),
        (("simulate", "--t-end", "inf"), "--t-end"),
        (("simulate", "--dt", "inf"), "--dt"),
        (("simulate", "--m1", "inf"), "--m1"),
        (("uniqueness", "--a1", "1", "--a2", "2", "--a12", "1.5", "--tolerance", "inf"),
         "--tolerance"),
        (("uniqueness", "--a1", "inf", "--a2", "2", "--a12", "1.5"), "--a1"),
        (("verify", "--tolerance", "inf"), "--tolerance"),
        (("verify", "--hbar", "inf"), "--hbar"),
        (("brackets", "--hbar", "nan"), "--hbar"),
    ])
    def test_non_finite_value_is_a_usage_error(self, tmp_path, capsys, argv, named):
        assert argparse_exit_code(*argv, "--out", str(tmp_path / "out")) == 2
        assert f"argument {named}: must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_finite_grid_is_a_usage_error(self, tmp_path, capsys):
        assert run_cli("uniqueness", "scan", "--grid", "1:inf:2",
                       "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --grid needs")
        assert not (tmp_path / "out").exists()


class TestParser:
    #: options whose default is None: it depends on other options, or None
    #: means "not given"
    NONE_DEFAULTS = {
        "verify": {"degree", "a1", "a2", "a12"},
        "brackets": {"kind"},
        "simulate": {"t_end", "summary_out"},
        "uniqueness": {"mode", "a1", "a2", "a12", "json_out"},
    }

    def test_subcommands(self, capsys):
        assert argparse_exit_code("--help") == 0
        assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_defaults_live_on_the_options(self, name, monkeypatch):
        monkeypatch.delenv("HAMALG_SEED", raising=False)
        args = build_parser().parse_args([name])
        none = {dest for dest, value in vars(args).items() if value is None}
        assert none == self.NONE_DEFAULTS[name] | {"config", "out"}
        assert args.seed == 0

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_lists_each_option_once(self, name, capsys):
        assert argparse_exit_code(name, "--help") == 0
        options = re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.M)
        assert len(options) == len(set(options))
        # option --x-y stores to x_y, which is how config keys are mapped
        dests = set(vars(build_parser().parse_args([name]))) - {"command", "func", "mode"}
        assert {o[2:].replace("-", "_") for o in options} == dests

    def test_one_parser_per_seed_env(self, monkeypatch):
        monkeypatch.setenv("HAMALG_SEED", "99")
        parser = build_parser()
        assert build_parser() is parser
        assert parser.parse_args(["verify"]).seed == 99
        monkeypatch.delenv("HAMALG_SEED")
        assert build_parser() is not parser
        assert build_parser().parse_args(["verify"]).seed == 0

    def test_seed_env_change_between_calls(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HAMALG_SEED", "99")
        assert run_cli("brackets", "--kind", "anderson", "--trials", "1", "--budget", "1",
                       "--out", str(tmp_path / "a.json")) == 0
        monkeypatch.delenv("HAMALG_SEED")
        assert run_cli("brackets", "--kind", "anderson", "--trials", "1", "--budget", "1",
                       "--out", str(tmp_path / "b.json")) == 0
        assert read_json(tmp_path / "a.json")["seed"] == 99
        assert read_json(tmp_path / "b.json")["seed"] == 0

    def test_config_run_leaves_no_state(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HAMALG_SEED", raising=False)
        before = vars(build_parser().parse_args(["verify"]))
        cfg = write_config(tmp_path, {"dim": 3, "hbar": 2.0, "trials": 1})
        assert run_cli("verify", "--config", cfg, "--out", str(tmp_path / "a.json")) == 0
        assert run_cli("verify", "--trials", "1", "--out", str(tmp_path / "b.json")) == 0
        assert read_json(tmp_path / "a.json")["algebra"]["dim"] == 3
        plain = read_json(tmp_path / "b.json")["algebra"]
        assert (plain["dim"], plain["hbar"]) == (2, 1.0)
        assert vars(build_parser().parse_args(["verify"])) == before

    def test_every_numeric_option_has_a_checking_type(self):
        # a bare int or float type would leave the option's range to the
        # command body; each range lives in the option's type instead
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        bare = [f"{name} {action.option_strings[0]}"
                for name, sub in subparsers.choices.items() for action in sub._actions
                if action.type in (int, float)]
        assert len(subparsers.choices) == len(SUBCOMMANDS)
        assert bare == []

    @pytest.mark.parametrize("argv, refusal", [
        (("verify", "--trials", "0"), "argument --trials: must be >= 1, got 0"),
        (("verify", "--pairs", "1.5"), "argument --pairs: invalid int value: '1.5'"),
        (("verify", "--degree", "-1"), "argument --degree: must be >= 0, got -1"),
        (("verify", "--dim1", "0"), "argument --dim1: must be >= 1, got 0"),
        (("verify", "--composed", "--a12", "0"),
         "argument --a12: must be positive and finite, got 0.0"),
        (("brackets", "--hbar", "x"), "argument --hbar: invalid float value: 'x'"),
        (("simulate", "--m2", "-1"), "argument --m2: must be positive and finite, got -1.0"),
        (("simulate", "--g0=-inf"), "argument --g0: must be finite, got -inf"),
        (("uniqueness", "--a2", "nan"), "argument --a2: must be positive and finite, got nan"),
    ])
    def test_the_type_names_the_option_and_its_range(self, argv, refusal, capsys):
        assert argparse_exit_code(*argv) == 2
        assert refusal in capsys.readouterr().err

    def test_uniqueness_scan_is_not_a_second_parser(self, capsys):
        argparse_exit_code("uniqueness", "--help")
        plain = capsys.readouterr().out
        argparse_exit_code("uniqueness", "scan", "--help")
        assert capsys.readouterr().out == plain
