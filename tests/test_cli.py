"""Command-line front end: exit codes, determinism, artifacts."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpkernels
from hpkernels import cli
from hpkernels.cli import RunSpec, main
from hpkernels.sampling import read_sample_archive


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


class TestExitCodes:
    def test_check_pass_is_zero(self, capsys):
        rc, rep = run(capsys, ["check", "specfun"])
        assert rc == 0
        assert rep["passed"] is True

    def test_kernels_below_parameter_floor_is_two(self, capsys):
        assert main(["check", "kernels", "--s", "-1"]) == 2

    @pytest.mark.parametrize("s", ["-0.495", "-0.49999"])
    def test_kernels_below_projection_floor_is_two(self, capsys, s):
        # the projection check takes s >= -0.49: refused before any work
        assert main(["check", "kernels", "--s", s]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "s >= -0.49" in captured.err

    def test_unknown_suite_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nosuch"])
        assert exc.value.code == 2

    def test_grid_containing_zero_is_two(self):
        assert main(["table", "weight", "--grid=-1:1:3"]) == 2

    def test_non_finite_grid_is_two(self, capsys):
        assert main(["table", "weight", "--grid=-inf:1:3"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_malformed_grid_is_two(self):
        assert main(["table", "weight", "--grid", "1:2"]) == 2

    def test_unknown_method_is_two(self):
        assert main(["sample", "--method", "exact"]) == 2

    def test_zero_jobs_is_two(self):
        assert main(["check", "specfun", "--jobs", "0"]) == 2

    def test_negative_eps_is_two(self):
        assert main(["experiment", "variance", "--eps", "-0.1"]) == 2

    @pytest.mark.parametrize("argv, code", [
        (["experiment", "variance", "--eps", "1e3"], 0),
        (["experiment", "variance", "--eps", "1000.5"], 2),
        (["experiment", "variance", "--eps", "1e6"], 2),
        (["experiment", "variance", "--eps", "1e300"], 2),
        (["experiment", "contraction", "--sprime", "511"], 1),
        (["experiment", "contraction", "--sprime", "600"], 2),
        (["experiment", "contraction", "--sprime", "1e5"], 2),
        (["experiment", "contraction", "--sprime", "1e300"], 2),
    ])
    def test_experiment_parameter_upper_bounds(self, capsys, argv, code):
        # eps is capped at 1000 (cli._EPS_MAX); sprime shares
        # the range of s, below 512; at sprime = 511 the proxy's mass has
        # left the damped grid, so the check fails
        assert main(argv) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == 2:
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
        else:
            assert json.loads(captured.out)["passed"] is (code == 0)

    @pytest.mark.parametrize("argv", [
        ["table", "vfunction", "--grid", "0.1:3:100000000000000000"],
        ["experiment", "gamma1", "--M", "1000000", "--draws", "1"],
        ["sample", "--N", "10000000", "--draws", "1"],
    ])
    def test_oversize_input_is_one(self, capsys, tmp_path, monkeypatch, argv):
        # each asks numpy for hundreds of GiB or more, refused at once
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "MemoryError" in lines[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["kernel", "phi_n"])
    def test_oversize_table_is_two_without_file(self, capsys, tmp_path, monkeypatch, kind):
        # the 10^6 x 10^6 table would take 15 TiB: refused from its byte
        # count before any feature matrix is built
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        assert main(["table", kind, "--grid", "0.1:3:1000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "budget" in lines[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("s", ["-0.3", "0.3"])
    def test_kernel_table_at_overflowing_x_is_zero(self, capsys, tmp_path, monkeypatch, s):
        # N x overflows on the whole grid: every entry is 0, without a
        # warning, also at s < 0 where the weight is singular at x = inf
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        argv = ["table", "kernel", "--grid", "1e305:1e307:3", "--s", s, "--N", "100"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", "k.csv"]) == 0
        capsys.readouterr()
        values = np.loadtxt(tmp_path / "k.csv", delimiter=",", skiprows=2)[:, 2]
        assert values.size == 9 and np.all(values == 0.0)

    def test_table_budget_is_bytes(self, capsys, tmp_path, monkeypatch):
        # a 12 x 12 table of complex doubles takes 2304 bytes: a budget of
        # exactly that admits it, byte for byte as under the default budget,
        # and one byte less refuses it
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        argv = ["table", "kernel", "--s", "0.25", "--N", "4", "--grid", "0.2:2:12"]
        assert main([*argv, "--out", "a.csv"]) == 0
        monkeypatch.setattr(cli, "_TABLE_BYTES", 12 * 12 * 16)
        assert main([*argv, "--out", "b.csv"]) == 0
        monkeypatch.setattr(cli, "_TABLE_BYTES", 12 * 12 * 16 - 1)
        assert main([*argv, "--out", "c.csv"]) == 2
        capsys.readouterr()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("flag", [["--s", "inf"], ["--s=-inf"], ["--s", "nan"]])
    def test_non_finite_float_is_two(self, capsys, flag):
        assert main(["experiment", "gamma2", *flag]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_dash_inf_as_separate_word_is_two(self):
        # argparse reads "-inf" as an option: a usage error, exit 2
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "gamma2", "--s", "-inf"])
        assert exc.value.code == 2

    def test_opuc_check_beyond_old_degree_cap_is_zero(self, capsys):
        rc, rep = run(capsys, ["check", "opuc", "--N", "200"])
        assert rc == 0
        assert rep["passed"] is True

    def test_opuc_check_at_large_s_is_zero(self, capsys):
        # the Christoffel-Darboux residuals reach 7e-5 at s=300, at 1e-16
        # of the sum of |p_k(z)| |p_k(w)|; they are gated relative to it
        rc, rep = run(capsys, ["check", "opuc", "--s", "300"])
        assert rc == 0
        cd = [c for c in rep["checks"] if c["name"].startswith("cd_identity")]
        assert len(cd) == 3 and max(c["value"] for c in cd) > 1e-10

    @pytest.mark.parametrize("s, N", [("300", "1000"), ("-0.49999999999999994", "8"),
                                      ("-0.4999", "64"), ("511.9", "64")])
    def test_opuc_check_at_range_ends_is_zero(self, capsys, s, N):
        # h_{N-1} underflows at s = 300, N = 1000; 2s + 1 is 1.1e-16 at the
        # lowest s: the top norm is compared in logs, its last factor
        # formed from 2s + 1
        rc, rep = run(capsys, ["check", "opuc", "--s", s, "--N", N])
        assert rc == 0
        assert rep["passed"] is True

    def test_opuc_check_catches_a_misnormalized_weight(self, capsys, monkeypatch):
        # moment0_normalized integrates the weight eval_weighted carries
        from hpkernels.weights_opuc import OPUCBasis
        weighted = OPUCBasis.eval_weighted
        monkeypatch.setattr(OPUCBasis, "eval_weighted",
                            lambda self, phi: weighted(self, phi) * (1.0 + 1e-9))
        rc, rep = run(capsys, ["check", "opuc", "--s", "0.5"])
        assert rc == 1
        m0 = next(c for c in rep["checks"] if c["name"] == "moment0_normalized")
        assert not m0["pass"] and m0["value"] > 1e-9

    def test_opuc_check_catches_a_perturbed_coefficient(self, capsys, monkeypatch):
        # p_k from a recursion with one Verblunsky coefficient off by 1e-9,
        # p*_n from the true one: the identity breaks at 1e-9 relative
        from hpkernels import weights_opuc
        szego = weights_opuc._szego

        def bent(alpha, z):
            off = alpha.copy()
            off[3] += 1e-9
            return szego(off, z)[0], szego(alpha, z)[1]
        monkeypatch.setattr(weights_opuc, "_szego", bent)
        for s in ("0.5", "300"):
            rc, rep = run(capsys, ["check", "opuc", "--s", s, "--N", "64"])
            assert rc == 1
            assert not any(c["pass"] for c in rep["checks"]
                           if c["name"].startswith("cd_identity"))

    def test_sample_beyond_old_degree_cap_is_zero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, rep = run(capsys, ["sample", "--s", "0", "--N", "130", "--draws", "2"])
        assert rc == 0
        assert rep["rows"] == 2

    @pytest.mark.parametrize("s", ["100", "200"])
    def test_gamma2_at_large_s_is_zero(self, capsys, s):
        # Gamma(s+1)^2/Gamma(2s+1) and h_{N-1} are formed in logs
        rc, rep = run(capsys, ["experiment", "gamma2", "--s", s])
        assert rc == 0
        assert rep["passed"] is True

    @pytest.mark.parametrize("argv", [
        ["experiment", "gamma2", "--s", "1e300"],
        ["experiment", "gamma2", "--s", "512"],
        ["sample", "--s", "600", "--N", "4", "--draws", "2"],
    ])
    def test_s_beyond_weight_range_is_two(self, capsys, argv):
        # s is refused from 512 on: past it the bases lose precision as s grows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "s < 512" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, code", [
        (["check", "specfun"], 0),
        (["experiment", "gamma2", "--s", "1e300"], 2),
    ])
    def test_python_m_hpkernels_exit_codes(self, argv, code):
        src = os.path.dirname(os.path.dirname(hpkernels.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        r = subprocess.run([sys.executable, "-m", "hpkernels", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
        assert r.returncode == code
        assert "Traceback" not in r.stderr
        if code == 0:
            assert json.loads(r.stdout)["passed"] is True

    @pytest.mark.parametrize("argv", [
        ["check", "specfun", "--s", "0.5"],
        ["check", "specfun", "--N", "8"],
        ["check", "infinite", "--s", "0"],
        ["check", "infinite", "--N", "12"],
    ])
    def test_fixed_suite_rejects_parameters(self, capsys, argv):
        assert main(argv) == 2
        assert "takes no" in capsys.readouterr().err

    def test_fixed_suite_rejects_parameters_from_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 0.5\n")
        assert main(["check", "specfun", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("form", ["flag", "config"])
    @pytest.mark.parametrize("argv, name, value", [
        (["experiment", "gamma1"], "s", "5"),
        (["experiment", "gamma2"], "eps", "1e-9"),
        (["experiment", "contraction"], "s", "3"),
        (["experiment", "tails"], "sigma", "7"),
        (["experiment", "tails"], "M", "9"),
        (["experiment", "tails"], "seed", "4"),
        (["experiment", "variance"], "draws", "3"),
        (["table", "vfunction"], "N", "3"),
        (["table", "vfunction"], "n", "3"),
        (["table", "kernel"], "n", "3"),
        (["table", "weight"], "n", "3"),
        (["table", "phi_n"], "N", "3"),
        (["sample", "--replay", "a.csv.json"], "s", "0.5"),
        (["sample", "--replay", "a.csv.json"], "N", "3"),
        (["sample", "--replay", "a.csv.json"], "method", "mcmc"),
        (["sample", "--replay", "a.csv.json"], "draws", "5"),
        (["sample", "--replay", "a.csv.json"], "seed", "1"),
        (["sample", "--replay", "a.csv.json"], "burn_in", "5"),
        (["sample"], "burn_in", "5"),
        (["sample", "--method", "spectral"], "thinning", "2"),
        (["sample", "--method", "spectral_dpp"], "chains", "4"),
        (["sample"], "step_scale", "0.3"),
    ])
    def test_unread_parameter_is_two(self, capsys, tmp_path, monkeypatch, form,
                                     argv, name, value):
        # a run refuses a parameter it would ignore, given as a flag or a config key
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path / "data"))
        if form == "flag":
            argv = [*argv, "--" + name.replace("_", "-"), value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{name} = {value}\n")
            argv = [*argv, "--config", str(cfg)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"takes no {name}" in captured.err
        assert not (tmp_path / "data").exists()

    def test_reads_table_covers_every_run(self):
        assert set(cli._READS["check"]) == set(cli._SUITES)
        assert set(cli._READS["experiment"]) == set(cli._EXPERIMENTS)
        for command, runs in cli._READS.items():
            for names in runs.values():
                assert set(names) <= set(cli._PARAMS[command]) - set(cli._COMMON)

    @pytest.mark.parametrize("s", ["150", "169.9"])
    def test_unrepresentable_vfunction_is_two_without_file(self, capsys, tmp_path,
                                                           monkeypatch, s):
        # 2^(s+1/2) Gamma(s+3/2) overflows a double past s = 149.64
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["table", "vfunction", "--s", s]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "overflows" in lines[0]
        assert list(tmp_path.iterdir()) == []

    def test_vfunction_below_overflow_is_zero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, rep = run(capsys, ["table", "vfunction", "--s", "145"])
        assert rc == 0 and rep["rows"] == 20
        data = np.loadtxt(rep["path"], delimiter=",", skiprows=2)
        assert np.all(np.isfinite(data))

    def test_kernels_where_norm_fits_is_zero(self, capsys):
        # ||V||^2 ~ 1e301 at s = 100, N = 64: formed in logs, it fits
        rc, rep = run(capsys, ["check", "kernels", "--s", "100", "--N", "64"])
        assert rc == 0 and rep["passed"] is True

    def test_kernels_where_prelimit_scale_fits_is_zero(self, capsys):
        # N^{1+s} = 4000^86 overflows a double, N^{1+s} sqrt(h_{N-1}) does
        # not: the prelimit V forms it in logs
        rc, rep = run(capsys, ["check", "kernels", "--s", "85", "--N", "4000"])
        assert rc == 0 and rep["passed"] is True

    @pytest.mark.parametrize("s, N", [("103", "64"), ("175", "8")])
    def test_kernels_unrepresentable_is_two(self, capsys, s, N):
        # ||V||^2 (s = 103) or Gamma(s+3/2) (s = 175) overflows a double
        assert main(["check", "kernels", "--s", s, "--N", N]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("N", ["2", "8", "64"])
    def test_kernels_large_s_computed_or_refused(self, capsys, N):
        for s in ("60", "110", "150", "511"):
            rc = main(["check", "kernels", "--s", s, "--N", N])
            captured = capsys.readouterr()
            assert rc in (0, 2), (s, N)
            assert "Traceback" not in captured.err

    def test_closed_stdout_is_one_without_traceback(self):
        src = os.path.dirname(os.path.dirname(hpkernels.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        read_end, write_end = os.pipe()
        os.close(read_end)  # nobody reads the report
        try:
            r = subprocess.run([sys.executable, "-m", "hpkernels", "check", "specfun"],
                               stdout=write_end, stderr=subprocess.PIPE, env=env,
                               text=True, timeout=120)
        finally:
            os.close(write_end)
        assert r.returncode == 1
        assert "Traceback" not in r.stderr
        assert "Exception ignored" not in r.stderr

    @pytest.mark.parametrize("argv", [
        ["check", "specfun"], ["table", "weight"], ["sample"],
        ["experiment", "tails"],
    ])
    def test_no_command_takes_R(self, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--R", "5"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sample", "--draws", "1", "--seed", str(2**64)],
        ["experiment", "gamma1", "--M", "8", "--draws", "1", "--seed", str(2**64)],
    ])
    def test_seed_beyond_64_bits_is_two(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed < 2^64" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_phi_n_grid_outside_window_is_two(self, capsys, tmp_path, monkeypatch):
        # 7 lies beyond n pi = 6.28... at n = 2
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        assert main(["table", "phi_n", "--n", "2", "--grid", "1:7:3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "(-n pi, n pi)" in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_import_loads_neither_scipy_special_nor_mpmath(self):
        src = os.path.dirname(os.path.dirname(hpkernels.__file__))
        code = ("import sys, hpkernels.cli; "
                "assert 'scipy.special' not in sys.modules; "
                "assert 'mpmath' not in sys.modules")
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestRunSpec:
    def test_provenance_sorts_and_skips_plumbing(self):
        spec = RunSpec("table", {"s": 0.5, "N": 8, "out": "x.csv",
                                 "config": None, "jobs": 4, "kind": "weight"})
        prov = spec.provenance()
        assert prov == "table N=8 kind='weight' s=0.5"

    def test_provenance_deterministic(self):
        a = RunSpec("check", {"s": 0.0, "suite": "opuc", "N": 8})
        b = RunSpec("check", {"N": 8, "suite": "opuc", "s": 0.0})
        assert a.provenance() == b.provenance()


class TestCheckSuites:
    @pytest.mark.parametrize("suite", ["specfun", "opuc", "kernels", "infinite"])
    def test_suite_green(self, capsys, suite):
        rc, rep = run(capsys, ["check", suite])
        assert rc == 0
        assert rep["suite"] == suite
        assert rep["passed"] is True
        assert len(rep["checks"]) >= 4
        for c in rep["checks"]:
            assert set(c) == {"name", "value", "bound", "pass"}
            assert c["pass"] is True

    def test_projection_residual_within_certified_bound(self, capsys):
        rc, rep = run(capsys, ["check", "kernels", "--s", "0.5"])
        assert rc == 0
        proj = [c for c in rep["checks"] if c["name"].startswith("projection")]
        assert len(proj) == 3
        for c in proj:
            assert c["value"] <= c["bound"]

    def test_s0_adds_diagonal_check(self, capsys):
        _, rep0 = run(capsys, ["check", "kernels", "--s", "0"])
        _, rep5 = run(capsys, ["check", "kernels", "--s", "0.5"])
        names0 = {c["name"] for c in rep0["checks"]}
        names5 = {c["name"] for c in rep5["checks"]}
        assert "diag_inverse_square" in names0
        assert "diag_inverse_square" not in names5

    def test_report_written_when_out_given(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, rep = run(capsys, ["check", "specfun", "--out", "rep.json"])
        assert rc == 0
        on_disk = json.loads((tmp_path / "rep.json").read_text())
        assert on_disk == rep


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# runspec: ")
    header = lines[1].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[2:]]
    return header, np.array(rows)


class TestTable:
    def test_vfunction_s0_is_sin_reciprocal(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, rep = run(capsys, ["table", "vfunction", "--s", "0",
                               "--grid", "0.1:2:40", "--out", "v.csv"])
        assert rc == 0
        header, rows = read_table(tmp_path / "v.csv")
        assert header == ["x", "V"]
        for x, v in rows:
            assert abs(v - math.sin(1.0 / x)) < 1e-10

    def test_weight_matches_closed_form(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, _ = run(capsys, ["table", "weight", "--s", "0.5", "--N", "3",
                             "--grid", "0.5:4:9", "--out", "w.csv"])
        assert rc == 0
        _, rows = read_table(tmp_path / "w.csv")
        for x, w in rows:
            assert abs(w - (1 + x * x) ** (-3.5)) < 1e-14

    def test_kernel_table_is_square_grid(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, rep = run(capsys, ["table", "kernel", "--s", "0", "--N", "6",
                               "--grid", "0.2:3:50", "--out", "k.csv"])
        assert rc == 0
        assert rep["rows"] == 2500
        header, rows = read_table(tmp_path / "k.csv")
        assert header == ["x", "y", "value"]
        assert rows.shape == (2500, 3)
        K = rows[:, 2].reshape(50, 50)
        assert np.max(np.abs(K - K.T)) < 1e-12

    def test_phi_n_table_has_complex_columns(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, _ = run(capsys, ["table", "phi_n", "--s", "0.5", "--n", "5",
                             "--grid", "0.3:2:6", "--out", "p.csv"])
        assert rc == 0
        header, rows = read_table(tmp_path / "p.csv")
        assert header == ["alpha", "beta", "re", "im"]
        diag = rows[np.abs(rows[:, 0] - rows[:, 1]) < 1e-12]
        assert np.max(np.abs(diag[:, 3])) < 1e-12
        assert np.all(diag[:, 2] > 0)

    def test_rerun_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        run(capsys, ["table", "kernel", "--s", "0.25", "--N", "4",
                     "--grid", "0.2:2:12", "--out", "a.csv"])
        run(capsys, ["table", "kernel", "--s", "0.25", "--N", "4",
                     "--grid", "0.2:2:12", "--out", "b.csv"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSample:
    def test_spectral_archive_readable(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, rep = run(capsys, ["sample", "--s", "0.5", "--N", "4",
                               "--draws", "30", "--seed", "11", "--out", "a.csv"])
        assert rc == 0
        assert rep["method"] == "spectral_dpp"
        configs, cfg = read_sample_archive(str(tmp_path / "a.csv"))
        assert len(configs) == 30
        assert all(len(c.points) == 4 for c in configs)
        assert cfg.seed == 11

    def test_replay_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        run(capsys, ["sample", "--s", "0", "--N", "3", "--draws", "25",
                     "--seed", "4", "--out", "a.csv"])
        rc, rep = run(capsys, ["sample", "--replay", str(tmp_path / "a.csv.json"),
                               "--out", "b.csv"])
        assert rc == 0
        assert rep["replay"] is True
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_replay_ignores_old_R_key(self, capsys, tmp_path, monkeypatch):
        # sidecars written before SamplerConfig lost its R and grid_points
        # fields carry "R": 1e6 and "grid_points": 4096; unknown keys are
        # ignored, so they replay byte for byte
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        run(capsys, ["sample", "--s", "0", "--N", "3", "--draws", "25",
                     "--seed", "4", "--out", "a.csv"])
        side_path = tmp_path / "a.csv.json"
        fresh = json.loads(side_path.read_text())
        for key, value in (("R", 1.0e6), ("grid_points", 4096)):
            assert key not in fresh
            side = dict(fresh, **{key: value})
            side_path.write_text(json.dumps(side, indent=1, sort_keys=True) + "\n")
            rc, rep = run(capsys, ["sample", "--replay", str(side_path),
                                   "--out", "b.csv"])
            assert rc == 0
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_replay_rejects_non_sidecar(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text('{"seed": 1}')
        assert main(["sample", "--replay", str(p)]) == 2

    def test_replay_rejects_non_object_sidecar(self, capsys, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert main(["sample", "--replay", str(p)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_mcmc_reports_acceptance_rate(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, rep = run(capsys, ["sample", "--s", "0", "--N", "3", "--method",
                               "mcmc", "--draws", "10", "--seed", "3",
                               "--burn-in", "600", "--out", "m.csv"])
        assert rc == 0
        assert rep["method"] == "mcmc"
        assert 0.1 < rep["acceptance_rate"] < 0.9
        assert rep["step_scale"] > 0

    def test_sidecar_carries_run_parameters(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        run(capsys, ["sample", "--s", "1.5", "--N", "2", "--draws", "5",
                     "--out", "a.csv"])
        side = json.loads((tmp_path / "a.csv.json").read_text())
        assert side["s"] == 1.5
        assert side["N"] == 2
        assert side["draws"] == 5
        assert side["runspec"].startswith("sample ")


class TestConfigFile:
    def test_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# opuc scan\ns = 0.5\nN = 12\n")
        rc, rep = run(capsys, ["check", "opuc", "--config", str(cfg)])
        assert rc == 0
        assert "N=12" in rep["runspec"]

    def test_flag_beats_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 12\n")
        rc, rep = run(capsys, ["check", "opuc", "--config", str(cfg),
                               "--N", "6"])
        assert rc == 0
        assert "N=6" in rep["runspec"]

    def test_unknown_key_is_hard_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N = 12\nbogus = 1\n")
        assert main(["check", "opuc", "--config", str(cfg)]) == 2

    def test_malformed_line_is_hard_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("N 12\n")
        assert main(["check", "opuc", "--config", str(cfg)]) == 2

    def test_missing_file_is_hard_error(self, tmp_path):
        assert main(["check", "opuc", "--config", str(tmp_path / "no.cfg")]) == 2


class TestExperiments:
    def test_gamma2_cells_pass(self, capsys):
        rc, rep = run(capsys, ["experiment", "gamma2", "--s", "0"])
        assert rc == 0
        assert rep["passed"] is True
        assert len(rep["cells"]) == 6
        assert rep["slack"] > 0
        for c in rep["cells"]:
            assert c["ratio"] <= c["bound"]

    def test_gamma2_parallel_matches_serial(self, capsys):
        rc1 = main(["experiment", "gamma2", "--s", "0.5"])
        out1 = capsys.readouterr().out
        rc2 = main(["experiment", "gamma2", "--s", "0.5", "--jobs", "3"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_jobs_capped_at_cell_count(self, capsys, monkeypatch):
        # a pool forks all of its workers when it starts, so --jobs must not
        # reach it uncapped; the fake pool records the size and runs serially
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        rc1 = main(["experiment", "tails", "--s", "0.5"])
        out1 = capsys.readouterr().out
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        rc2 = main(["experiment", "tails", "--s", "0.5", "--jobs", "100000"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert sizes == [3, 6]  # the fit cells, then the scaled cells
        assert out1 == out2

    def test_tails_scaled_mass_bounded(self, capsys):
        rc, rep = run(capsys, ["experiment", "tails", "--s", "-0.3"])
        assert rc == 0
        assert rep["power"] == pytest.approx(0.4)
        for c in rep["cells"]:
            assert c["scaled"] <= c["bound"]

    def test_variance_within_bound(self, capsys):
        rc, rep = run(capsys, ["experiment", "variance", "--s", "0.5",
                               "--eps", "0.2"])
        assert rc == 0
        for c in rep["cells"]:
            assert -1e-12 <= c["T"] <= c["bound"] + 1e-12

    def test_gamma1_reports_trend_without_gating(self, capsys):
        rc, rep = run(capsys, ["experiment", "gamma1", "--M", "16",
                               "--draws", "10", "--seed", "1"])
        assert rc == 0
        assert rep["passed"] is True
        assert len(rep["diagonal_medians"]) == 3
        assert len(rep["diagonal_tent_medians"]) == 3
        assert isinstance(rep["diagonal_decreasing"], bool)
        assert len(rep["report"]["cells"]) == 9
        assert all("median_tent_gap" in c for c in rep["report"]["cells"])

    def test_contraction_below_one(self, capsys):
        rc, rep = run(capsys, ["experiment", "contraction", "--sprime", "0.2",
                               "--sigma", "0.5"])
        assert rc == 0
        assert rep["norm"] < 1.0
        assert rep["near_one_warning"] is False
        assert rep["trace_bound"] >= rep["norm"]

    @pytest.mark.parametrize("sprime, code", [("0.5", 0), ("100", 1)])
    def test_contraction_needs_grid_mass(self, capsys, sprime, code):
        # at large sprime the rank-64 proxy's mass leaves the damped grid
        # and the norm falls toward 0 whatever the damping does
        rc, rep = run(capsys, ["experiment", "contraction", "--sprime", sprime])
        assert rc == code
        assert rep["norm"] < 1.0
        assert rep["passed"] is (code == 0)
        if code == 0:
            assert 36.0 < rep["grid_mass"] < 37.0
        else:
            assert rep["grid_mass"] < 32.0


class TestDataDir:
    def test_default_artifact_lands_in_data_dir(self, capsys, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path))
        rc, rep = run(capsys, ["table", "weight", "--grid", "1:2:4"])
        assert rc == 0
        assert rep["path"] == str(tmp_path / "table_weight.csv")
        assert os.path.exists(rep["path"])

    def test_absolute_out_ignores_data_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("HPK_DATA_DIR", str(tmp_path / "unused"))
        target = tmp_path / "direct" / "w.csv"
        rc, rep = run(capsys, ["table", "weight", "--grid", "1:2:4",
                               "--out", str(target)])
        assert rc == 0
        assert rep["path"] == str(target)
        assert target.exists()


# values every flag is tried at besides its valid range, one draw in eight
_EDGE_FLOATS = [-0.5, -1.0, 0.0, 512.0, 1e300, math.inf, -math.inf, math.nan]


def _mostly(valid, edge):
    return st.integers(0, 7).flatmap(lambda i: edge if i == 7 else valid)


def _floats(lo, hi):
    return _mostly(st.floats(lo, hi, exclude_min=True, exclude_max=True),
                   st.sampled_from(_EDGE_FLOATS))


def _ints(hi):
    return _mostly(st.integers(1, hi), st.sampled_from([-1, 0]))


_FLAG_VALUES = {
    "s": _floats(-0.5, 512.0).map(repr),
    "N": _ints(16).map(str),
    "n": _ints(8).map(str),
    "grid": _mostly(
        st.tuples(st.floats(-10.0, 10.0), st.floats(0.01, 10.0), st.integers(2, 8))
        .map(lambda g: f"{g[0]!r}:{g[0] + g[1]!r}:{g[2]}"),
        st.tuples(_floats(-10.0, 10.0), _floats(-10.0, 10.0), st.integers(-1, 8))
        .map(lambda g: f"{g[0]!r}:{g[1]!r}:{g[2]}"),
    ),
    "draws": _ints(20).map(str),
    "seed": _mostly(st.integers(0, 2**64 - 1),
                    st.sampled_from([-1, 2**64, 10**30])).map(str),
    "method": _mostly(st.sampled_from(["spectral", "spectral_dpp", "mcmc"]),
                      st.just("exact")),
    # the chain's cost is its burn-in; keep it short
    "burn_in": _mostly(st.sampled_from(["1", "50"]), st.sampled_from(["-1", "0"])),
}

_COMMAND_FLAGS = {
    "check": ["s", "N"],
    "table": ["s", "N", "n", "grid"],
    "sample": ["s", "N", "draws", "seed", "method", "burn_in"],
}

_POSITIONAL = {
    "check": ["specfun", "opuc", "kernels", "infinite"],
    "table": ["kernel", "weight", "vfunction", "phi_n"],
    "sample": [],
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    argv = [command]
    if _POSITIONAL[command]:
        argv.append(draw(st.sampled_from(_POSITIONAL[command])))
    names = draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), unique=True))
    values = {name: draw(_FLAG_VALUES[name]) for name in names}
    # a spectral run refuses --burn-in, so only an MCMC run is always given one
    if values.get("method") == "mcmc" and "burn_in" not in values:
        values["burn_in"] = draw(_FLAG_VALUES["burn_in"])
    for name, value in values.items():
        argv.append(f"--{name.replace('_', '-')}={value}")
    return [*argv, "--jobs=1"]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture(scope="module")
def contract_data_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        d = tmp_path_factory.mktemp("contract")
        mp.setenv("HPK_DATA_DIR", str(d))
        yield d


class TestContract:
    """Exit 0 pass, 1 failed check or runtime failure, 2 invalid
    parameters, on any flag values, with no traceback."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(argv=_argvs())
    def test_exit_code_contract(self, contract_data_dir, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as e:  # argparse usage errors
                rc = e.code
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        error_lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
        if rc == 0 or (rc == 1 and out):
            report = json.loads(out, parse_constant=_reject_constant)
            assert report["command"] == argv[0]
        else:
            assert out == "", argv
        if rc == 1 and not out:
            assert len(error_lines) == 1, (argv, err)
