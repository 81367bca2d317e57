import contextlib
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

import lossbench as lb
from lossbench import analysis, cli
from support import depolarizing_channel


def run_cli(*argv):
    """``lossbench *argv`` run in this process, with its exit status and output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(argv, code, stdout.getvalue(), stderr.getvalue())


def run_module(*argv):
    """``python -m lossbench *argv`` in a fresh interpreter: one check per command."""
    return subprocess.run(
        [sys.executable, "-m", "lossbench", *argv], capture_output=True, text=True
    )


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number (RFC 8259)")


@pytest.fixture(autouse=True)
def fit_json_is_strict(tmp_path):
    """After each test, every fit.json under its tmp_path parses without NaN or Infinity."""
    yield
    for path in tmp_path.rglob("fit.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)


def json_value(value):
    """``value`` as fit.json holds it: a non-finite float is null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


@pytest.fixture
def loss_config(tmp_path):
    doc = {
        "gateset": "pauli",
        "noise": {"type": "loss", "alpha": 0.95, "level": 1},
        "state": "zero",
        "detector": {"eigenvalues": [0.9, 0.8], "basis_seed": 3},
        "protocol": {"m_grid": [1, 2, 3, 4, 5, 6, 7, 8], "n_sequences": 4},
        "seed": 11,
    }
    path = tmp_path / "run.config"
    path.write_text(json.dumps(doc))
    return path


class TestTopLevel:
    def test_version(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("lossbench ")

    def test_no_subcommand_is_usage_error(self):
        assert run_cli().returncode == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run_cli("replay").returncode == 1


class TestSimulate:
    def test_writes_dataset_and_metadata(self, loss_config, tmp_path):
        out = tmp_path / "out"
        proc = run_module("simulate", str(loss_config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "8 rows" in proc.stdout
        lines = (out / "decay.csv").read_text().splitlines()
        assert lines[0] == "m,mean,sem,n_sequences,shots"
        assert len(lines) == 9
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["tool"] == "lossbench"
        assert meta["gateset"] == "pauli"
        assert meta["noise_type"] == "loss"
        assert meta["master_seed"] == 11
        assert meta["m_grid"] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert meta["shots"] == "exact"
        assert len(meta["config_fingerprint"]) == 64

    def test_metadata_is_the_dataset_record_plus_run_names(self, loss_config, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["simulate", str(loss_config), "--out", str(out)]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        record = lb.run_protocol(lb.parse_config(loss_config.read_text()).protocol).metadata
        run_names = {"tool", "version", "gateset", "noise_type", "resolved_theta"}
        assert set(meta) == set(record) | run_names
        assert {key: meta[key] for key in record} == record

    def test_seed_override_changes_data(self, loss_config, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert run_cli("simulate", str(loss_config), "--out", str(a)).returncode == 0
        assert (
            run_cli("simulate", str(loss_config), "--out", str(b), "--seed", "12").returncode
            == 0
        )
        assert (
            run_cli("simulate", str(loss_config), "--out", str(c), "--seed", "11").returncode
            == 0
        )
        base = (a / "decay.csv").read_bytes()
        assert (b / "decay.csv").read_bytes() != base
        assert (c / "decay.csv").read_bytes() == base

    def test_missing_config_argument_rejected(self):
        assert run_cli("simulate").returncode == 1

    def test_nonexistent_config(self, tmp_path):
        proc = run_cli("simulate", str(tmp_path / "nope.config"))
        assert proc.returncode == 1
        assert "config not found" in proc.stderr

    def test_config_errors_reported_per_field(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text(json.dumps({"gateset": "haar"}))
        proc = run_cli("simulate", str(path))
        assert proc.returncode == 1
        assert "config error" in proc.stderr
        assert "noise: required section is missing" in proc.stderr

    def test_unreadable_config_is_io_error(self, loss_config, tmp_path, monkeypatch):
        # Permission bits do not stop root, so the read itself is made to fail.
        def unreadable(path):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(lb.protocol, "_read_utf8", unreadable)
        proc = run_cli("simulate", str(loss_config), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"lossbench: error: cannot read {loss_config}: ")
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_bytes(b'{"gateset": "\xff"}')
        proc = run_cli("simulate", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == f"lossbench: error: {path}: not valid UTF-8: byte 0xff at offset 13\n"
        assert not (tmp_path / "out").exists()

    def test_leakage_rb_config_rejected_before_running(self, tmp_path):
        # The embedded qutrit gates are not a group, so "rb" has no inverse gate.
        doc = json.loads(resources.files("lossbench").joinpath("configs", "fig2.config").read_text())
        doc["protocol"]["variant"] = "rb"
        path = tmp_path / "fig2-rb.config"
        path.write_text(json.dumps(doc))
        proc = run_cli("simulate", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "lossbench: config error: protocol: gate set is not a group" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_shots_past_the_binomial_limit_are_a_config_error(self, loss_config, tmp_path):
        doc = json.loads(loss_config.read_text())
        doc["protocol"]["shots"] = 2**63
        loss_config.write_text(json.dumps(doc))
        proc = run_cli("simulate", str(loss_config), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == "lossbench: config error: protocol: shots must be at most 2**63 - 1\n"

    @pytest.mark.parametrize("n_sequences", [10**10, 10**20])
    def test_more_tasks_than_the_limit_are_a_config_error(self, loss_config, tmp_path, n_sequences):
        # 10^20 sequences ended in numpy's OverflowError, 10^10 asked numpy
        # for tens of GB; the config has 8 lengths.
        doc = json.loads(loss_config.read_text())
        doc["protocol"]["n_sequences"] = n_sequences
        loss_config.write_text(json.dumps(doc))
        proc = run_cli("simulate", str(loss_config), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr == (
            "lossbench: config error: protocol: n_sequences must be at most 125000 with 8 "
            "lengths: a run has at most 1000000 (length, sequence) tasks\n"
        )
        assert not (tmp_path / "out").exists()

    def test_unwritable_decay_csv_is_io_error(self, loss_config, tmp_path):
        (tmp_path / "out" / "decay.csv").mkdir(parents=True)
        proc = run_cli("simulate", str(loss_config), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("lossbench: error: cannot write outputs: ")

    def test_output_collision_is_io_error(self, loss_config, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        proc = run_cli("simulate", str(loss_config), "--out", str(blocker))
        assert proc.returncode == 2
        assert "cannot create" in proc.stderr

    def test_bundled_config_names_resolve(self, tmp_path):
        # check-channel parses the same bundled configs without simulating
        for name in ("fig1", "fig2.config", "saturation"):
            proc = run_cli("check-channel", name)
            assert proc.returncode == 0, proc.stderr


class TestFit:
    def simulate(self, config, out):
        proc = run_cli("simulate", str(config), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        return out / "decay.csv"

    def test_loss_fit_report(self, loss_config, tmp_path):
        csv = self.simulate(loss_config, tmp_path / "out")
        proc = run_module("fit", str(csv), "--out", str(tmp_path / "fits"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("S_hat = ")
        report = json.loads((tmp_path / "fits" / "fit.json").read_text())
        assert set(report) == {
            "S_hat",
            "S_stderr",
            "B0_hat",
            "B0_stderr",
            "chi2_per_dof",
            "converged",
            "n_iterations",
            "flags",
            "plateau",
        }
        assert report["converged"] is True
        assert set(report["plateau"]) == {"chi2_per_dof", "tail_excess_z", "flagged"}

    def test_short_dataset_has_no_plateau_block(self, tmp_path):
        csv = tmp_path / "short.csv"
        csv.write_text(
            "m,mean,sem,n_sequences,shots\n"
            "1,0.9,0.01,5,exact\n2,0.8,0.01,5,exact\n3,0.72,0.01,5,exact\n"
        )
        proc = run_cli("fit", str(csv), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["plateau"] is None
        assert report["flags"] == []

    def test_rb_fit_report(self, loss_config, tmp_path):
        doc = json.loads(loss_config.read_text())
        doc["protocol"]["variant"] = "rb"
        rb_config = tmp_path / "rb.config"
        rb_config.write_text(json.dumps(doc))
        csv = self.simulate(rb_config, tmp_path / "out")
        proc = run_cli("fit", str(csv), "--model", "rb", "--out", str(tmp_path / "fits"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("p_hat = ")
        report = json.loads((tmp_path / "fits" / "fit.json").read_text())
        assert set(report) == {
            "A_hat",
            "A_stderr",
            "B_hat",
            "B_stderr",
            "p_hat",
            "p_stderr",
            "chi2_per_dof",
            "converged",
            "n_iterations",
            "flags",
        }

    @pytest.mark.parametrize("model", ["loss", "rb"])
    def test_fit_json_is_the_library_fit(self, loss_config, tmp_path, model):
        # Each field of fit.json, and the summary line, is the in-process fit's.
        doc = json.loads(loss_config.read_text())
        doc["protocol"]["variant"] = model
        config = tmp_path / "run.config"
        config.write_text(json.dumps(doc))
        csv = self.simulate(config, tmp_path / "out")
        proc = run_cli("fit", str(csv), "--model", model, "--out", str(tmp_path / "fits"))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "fits" / "fit.json").read_text())

        ds = lb.read_decay_csv(csv)
        if model == "loss":
            fit, names = lb.fit_loss_decay(ds), ("S", "B0")
            plateau = lb.plateau_test(ds, fit)
            expected_plateau = {k: json_value(v) for k, v in dataclasses.asdict(plateau).items()}
            assert report.pop("plateau") == expected_plateau
            flags = [analysis.FLAG_PLATEAU] if plateau.flagged else []
        else:
            fit, names = lb.fit_rb_decay(ds), ("p", "A", "B")
            flags = list(lb.markovianity_tests(fit).flags)
        expected = {
            "chi2_per_dof": fit.chi2_per_dof,
            "converged": fit.converged,
            "n_iterations": fit.n_iterations,
            "flags": flags,
        }
        for k in names:
            expected[f"{k}_hat"] = getattr(fit, f"{k}_hat")
            expected[f"{k}_stderr"] = getattr(fit, f"stderr_{k}")
        assert report == {k: json_value(v) for k, v in expected.items()}
        rate = names[0]
        assert proc.stdout == (
            f"{rate}_hat = {expected[f'{rate}_hat']:.6f} +/- {expected[f'{rate}_stderr']:.6f} "
            f"(chi2/dof = {fit.chi2_per_dof:.3f})\n"
        )

    @pytest.mark.parametrize("model", ["loss", "rb"])
    @pytest.mark.parametrize("sem", [1e-200, 1e-310])
    def test_tiny_sems_fit_as_their_scaled_copy(self, tmp_path, model, sem):
        # 1/sem^2 is beyond the float range; the fit must not care.  The
        # copy's sems are 2^700 times larger, so its stderrs are too (to the
        # digits a subnormal stderr keeps).
        m = np.array([1, 2, 3, 5, 8, 12, 17, 25, 40], dtype=float)
        means = 0.9 * 0.97 ** (m - 1.0) + 0.002 * np.sin(m)
        reports = []
        for scale in (0, 700):
            sems = np.full(m.size, math.ldexp(sem, scale))
            ds = lb.DecayDataset(tuple(int(v) for v in m), means, sems, 30, None)
            out = tmp_path / str(scale)
            out.mkdir()
            ds.to_csv(out / "decay.csv")
            assert cli.main(["fit", str(out / "decay.csv"), "--model", model, "--out", str(out)]) == 0
            reports.append(json.loads((out / "fit.json").read_text()))
        tiny, copy = reports
        assert tiny["chi2_per_dof"] is None  # the fit's chi2/dof is inf
        for key in tiny:
            if key.endswith("_hat") or key in ("converged", "n_iterations"):
                assert tiny[key] == copy[key], key
            elif key.endswith("_stderr"):
                assert math.ldexp(tiny[key], 700) == pytest.approx(copy[key], rel=1e-12), key

    @pytest.mark.parametrize("model", ["loss", "rb"])
    def test_non_finite_values_are_written_as_null(self, tmp_path, model):
        # Subnormal sems give an infinite chi2/dof, which fit.json held as
        # Infinity: not JSON, and refused by strict parsers.
        csv = tmp_path / "subnormal.csv"
        rows = [f"{m},{0.9 * 0.97 ** (m - 1)!r},5e-324,30,exact\n" for m in (1, 2, 4, 8, 16, 32)]
        csv.write_text("m,mean,sem,n_sequences,shots\n" + "".join(rows))
        fit = {"loss": lb.fit_loss_decay, "rb": lb.fit_rb_decay}[model](lb.read_decay_csv(csv))
        assert fit.chi2_per_dof == math.inf
        proc = run_cli("fit", str(csv), "--model", model, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        text = (tmp_path / "fit.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text, parse_constant=_refuse_constant)["chi2_per_dof"] is None

    def test_missing_csv(self, tmp_path):
        proc = run_cli("fit", str(tmp_path / "none.csv"))
        assert proc.returncode == 1
        assert "CSV not found" in proc.stderr

    def test_directory_as_csv_is_io_error(self, tmp_path):
        proc = run_cli("fit", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"lossbench: error: cannot read {tmp_path}: ")

    def test_means_near_the_float_maximum_fit_without_a_warning(self, tmp_path):
        # The tail means sum past the float maximum: the plateau test's excess
        # overflowed, and fit.json got a NaN z after a RuntimeWarning.
        csv = tmp_path / "big.csv"
        rows = [f"{m},{1.7e308 * 0.99 ** (m - 1)!r},1e+306,30,exact\n" for m in range(1, 9)]
        csv.write_text("m,mean,sem,n_sequences,shots\n" + "".join(rows))
        proc = run_cli("fit", str(csv), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["S_hat"] == pytest.approx(0.99, rel=1e-12)
        assert abs(report["plateau"]["tail_excess_z"]) < 1e-6 and report["flags"] == []

    @pytest.mark.parametrize("model, least", [("loss", 3), ("rb", 4)], ids=["loss", "rb"])
    def test_weights_that_underflow_fit_without_a_warning(self, tmp_path, model, least):
        # Every weight but the third underflows to 0, and one row determines
        # no rate: refused, with no 0 * inf warning on the way.
        csv = tmp_path / "span.csv"
        sems = (1.7e308, 1.7e308, 1e-320, 1.7e308)
        rows = zip((7, 20, 33, 999999), (-0.5, 8.5e-321, 0.5, -0.5), sems)
        body = "".join(f"{m},{y!r},{e!r},5,exact\n" for m, y, e in rows)
        csv.write_text("m,mean,sem,n_sequences,shots\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            proc = run_cli("fit", str(csv), "--model", model, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == f"lossbench: error: need >= {least} distinct sequence lengths, got 1\n"
        assert not (tmp_path / "fit.json").exists()

    def test_a_fit_that_spends_its_budget_is_written_unconverged(self, tmp_path):
        # The clip-binding loss fit of test_analysis, through the command line.
        csv = tmp_path / "budget.csv"
        rows = "168,0.6,0.05,5,exact\n212,0.0,0.05,5,exact\n274,0.0,0.05,5,exact\n"
        csv.write_text("m,mean,sem,n_sequences,shots\n" + rows)
        proc = run_cli("fit", str(csv), "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["n_iterations"] == analysis.MAX_ITERATIONS
        assert report["converged"] is False and report["B0_stderr"] is None

    def test_too_short_csv_is_usage_error(self, tmp_path):
        csv = tmp_path / "tiny.csv"
        csv.write_text("m,mean,sem,n_sequences,shots\n1,0.9,0.01,5,exact\n")
        proc = run_cli("fit", str(csv))
        assert proc.returncode == 1
        assert "sequence lengths" in proc.stderr

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,0.9,0.01,5,exact\n2,nan,0.01,5,exact\n", "bad.csv:3: mean must be finite"),
            ("0,0.9,0.01,5,exact\n1,0.8,0.01,5,exact\n", "bad.csv:2: sequence length must be >= 1"),
            ("1,0.9,0.01,5,exact\n3,0.8,0.01,5,exact\n2,0.7,0.01,5,exact\n",
             "bad.csv:4: sequence lengths must be strictly increasing"),
            ("1,0.9,0.01,5,exact\n2,0.8,inf,5,exact\n3,0.7,0.01,5,exact\n",
             "bad.csv:3: sem must be NaN or finite and >= 0"),
            ("1,0.9,0.01,5,exact\n2,0.8,0.01,5,exact\n3,0.7,-0.01,5,exact\n",
             "bad.csv:4: sem must be NaN or finite and >= 0"),
            ("1,0.9,0.01,-3,0\n2,0.8,0.01,-3,0\n3,0.7,0.01,-3,0\n",
             "bad.csv:2: n_sequences must be an integer >= 1, got -3"),
            ("1,0.9,0.01,5,0\n2,0.8,0.01,5,0\n3,0.7,0.01,5,0\n",
             "bad.csv:2: shots must be an integer >= 1, got 0"),
        ],
        ids=[
            "nan-mean", "zero-length", "unsorted-lengths", "inf-sem", "negative-sem",
            "negative-sequences", "zero-shots",
        ],
    )
    def test_bad_rows_are_usage_errors_with_line(self, tmp_path, rows, message):
        csv = tmp_path / "bad.csv"
        csv.write_text("m,mean,sem,n_sequences,shots\n" + rows)
        proc = run_cli("fit", str(csv), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert message in proc.stderr
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize("model", ["loss", "rb"])
    @pytest.mark.parametrize("length", [1000001, 10**400], ids=["long", "huge"])
    def test_length_past_the_limit_is_usage_error_with_line(self, tmp_path, model, length):
        # 10**400 is past the float range too: a fit would fail to convert it.
        csv = tmp_path / "bad.csv"
        csv.write_text(
            "m,mean,sem,n_sequences,shots\n1,0.9,0.01,5,exact\n2,0.8,0.01,5,exact\n"
            f"{length},0.7,0.01,5,exact\n"
        )
        proc = run_cli("fit", str(csv), "--model", model, "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"lossbench: error: {csv}:4: sequence length must be at most 1000000, got {length}\n"
        )
        assert not (tmp_path / "fit.json").exists()

    def test_field_over_the_csv_limit_is_usage_error_with_line(self, tmp_path):
        csv = tmp_path / "big.csv"
        csv.write_text(
            "m,mean,sem,n_sequences,shots\n1,0.9,0.01,5,exact\n2," + "1" * 131073 + ",0.01,5,exact\n"
        )
        proc = run_cli("fit", str(csv), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == f"lossbench: error: {csv}:3: field larger than field limit (131072)\n"
        assert not (tmp_path / "fit.json").exists()

    def test_csv_that_is_not_utf8_is_usage_error(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_bytes(b"m,mean,sem,n_sequences,shots\n1,0.9,0.01,5,exact\n2,0.8\xff,0.01,5,exact\n")
        proc = run_cli("fit", str(csv), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr == f"lossbench: error: {csv}: not valid UTF-8: byte 0xff at offset 53\n"
        assert not (tmp_path / "fit.json").exists()

    def test_unwritable_output_is_io_error(self, loss_config, tmp_path):
        csv = self.simulate(loss_config, tmp_path / "out")
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        proc = run_cli("fit", str(csv), "--out", str(blocker))
        assert proc.returncode == 2
        assert "cannot write" in proc.stderr


_RB_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64)


def _flat_rb_dataset(level, sem, noise_seed=None):
    m = np.array(_RB_GRID, dtype=float)
    y = np.full(m.size, level)
    if noise_seed is not None:
        y = y + sem * np.random.default_rng(noise_seed).normal(size=m.size)
    return lb.DecayDataset(_RB_GRID, y, np.full(m.size, sem), n_sequences=40, shots=200)


class TestFlagRule:
    """``fit --model rb`` writes the flags of ``markovianity_tests``."""

    def test_cli_flags_are_the_library_flags(self, tmp_path):
        # The saturating loss run breaks the lossless benchmarking model and
        # is flagged; Clifford RB under depolarizing noise is not.
        assert cli.main(["simulate", "saturation", "--out", str(tmp_path / "sat")]) == 0
        clifford = lb.ProtocolConfig(
            lb.clifford_gateset(),
            depolarizing_channel(0.02),
            lb.basis_state(2, 0),
            lb.MeasurementOperator(np.diag([1.0, 0.0])),
            tuple(range(2, 61, 4)),
            30,
            5,
            shots=100,
            variant="rb",
        )
        lb.run_protocol(clifford).to_csv(tmp_path / "clifford.csv")
        expected = {"sat/decay.csv": ["B_MINUS_A_NEGATIVE"], "clifford.csv": []}
        for name, flags in expected.items():
            csv = tmp_path / name
            assert cli.main(["fit", str(csv), "--model", "rb", "--out", str(tmp_path)]) == 0
            cli_flags = json.loads((tmp_path / "fit.json").read_text())["flags"]
            library_flags = lb.markovianity_tests(lb.fit_rb_decay(lb.read_decay_csv(csv))).flags
            assert cli_flags == list(library_flags) == flags

    @pytest.mark.parametrize(
        "ds",
        [_flat_rb_dataset(-0.01, 0.001), _flat_rb_dataset(0.5, 0.005, noise_seed=0)],
        ids=["negative-offset", "noisy"],
    )
    def test_flat_curve_gets_the_same_flags(self, tmp_path, ds):
        csv = tmp_path / "decay.csv"
        ds.to_csv(csv)
        assert cli.main(["fit", str(csv), "--model", "rb", "--out", str(tmp_path)]) == 0
        cli_flags = json.loads((tmp_path / "fit.json").read_text())["flags"]

        fit = lb.fit_rb_decay(ds)
        assert fit.converged
        report = lb.markovianity_tests(fit, (ds.means[0], ds.sems[0]))
        library_flags = [f for f in report.flags if f == "B_MINUS_A_NEGATIVE"]
        assert cli_flags == library_flags == []

    def test_fit_at_a_rate_bound_is_not_flagged(self, tmp_path):
        # An alternating curve converges with p at a bound of the rate
        # search and A ~ 4e3 +/- 4e9: B - A is far below zero, and only the
        # bound marks the split between A and B as unidentified.
        means = 0.5 + 0.004 * (-1.0) ** np.arange(len(_RB_GRID))
        ds = lb.DecayDataset(_RB_GRID, means, np.full(len(_RB_GRID), 0.004), 40, 200)
        csv = tmp_path / "decay.csv"
        ds.to_csv(csv)
        assert cli.main(["fit", str(csv), "--model", "rb", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "fit.json").read_text())
        assert report["converged"] is True
        assert report["p_hat"] in analysis.RATE_BOUNDS
        assert 1.0 <= report["A_stderr"] < math.inf
        assert report["flags"] == []

        fit = lb.fit_rb_decay(ds)
        report = lb.markovianity_tests(fit)
        assert report.b_minus_a < -10.0
        assert report.flags == ()
        assert lb.markovianity_tests(fit, (ds.means[0], ds.sems[0])).flags == ()

    def test_guard_is_what_suppresses_the_negative_offset(self):
        # The flat negative-offset curve fits A = 0 with p at a rate bound.
        # Even with a B - A stderr that puts it far below -3 sigma, the
        # identifiability guard keeps it unflagged.
        fit = lb.fit_rb_decay(_flat_rb_dataset(-0.01, 0.001))
        assert fit.p_hat in analysis.RATE_BOUNDS
        tight = dataclasses.replace(fit, stderr_B_minus_A=math.sqrt(2e-6))
        report = lb.markovianity_tests(tight)
        assert report.b_minus_a / report.b_minus_a_sigma < -3.0
        assert abs(fit.A_hat) < 1e-9
        assert report.flags == ()


def modules_after(code, package):
    """The modules of ``package`` loaded after running ``code`` in a fresh interpreter."""
    script = (
        "import json, sys\n"
        + code
        + f"\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyStaysUnloaded:
    """No command loads scipy: the runtime needs numpy alone."""

    def test_import_simulate_and_check_channel_skip_scipy(self, tmp_path):
        out = str(tmp_path)
        csv = str(tmp_path / "decay.csv")
        assert modules_after("import lossbench", "scipy") == []
        simulate = f"from lossbench import cli\ncli.main(['simulate', 'saturation', '--out', {out!r}])"
        assert modules_after(simulate, "scipy") == []
        check = "from lossbench import cli\ncli.main(['check-channel', 'saturation'])"
        assert modules_after(check, "scipy") == []

        fit = f"from lossbench import cli\ncli.main(['fit', {csv!r}, '--out', {out!r}])"
        assert modules_after(fit, "scipy") == []

    def test_leakage_simulate_and_both_fits_skip_scipy(self, tmp_path):
        out = str(tmp_path)
        csv = str(tmp_path / "decay.csv")
        code = (
            "from lossbench import cli\n"
            f"assert cli.main(['simulate', 'fig2', '--out', {out!r}]) == 0\n"
            f"assert cli.main(['fit', {csv!r}, '--out', {out!r}]) == 0\n"
            f"assert cli.main(['fit', {csv!r}, '--model', 'rb', '--out', {out!r}]) == 0"
        )
        assert modules_after(code, "scipy") == []


class TestCommandsLoadOnlyTheirModules:
    """``import lossbench`` loads no submodule, and each command only the ones it runs."""

    def test_import_loads_no_submodule(self):
        assert modules_after("import lossbench", "lossbench") == ["lossbench"]

    def test_fit_skips_config_noise_and_gates(self, tmp_path):
        csv = tmp_path / "decay.csv"
        lb.DecayDataset((1, 2, 3, 4), [0.9, 0.81, 0.729, 0.6561], [0.01] * 4, 5, None).to_csv(csv)
        fit = (
            "from lossbench import cli\n"
            f"assert cli.main(['fit', {str(csv)!r}, '--out', {str(tmp_path)!r}]) == 0"
        )
        loaded = modules_after(fit, "lossbench")
        assert {"lossbench.config", "lossbench.noise", "lossbench.gates"}.isdisjoint(loaded)

    def test_simulate_skips_analysis(self, tmp_path):
        simulate = (
            "from lossbench import cli\n"
            f"assert cli.main(['simulate', 'saturation', '--out', {str(tmp_path)!r}]) == 0"
        )
        assert "lossbench.analysis" not in modules_after(simulate, "lossbench")


def test_import_leaves_numpy_random_unloaded():
    # `lossbench fit` draws nothing, so importing the CLI should not pay for
    # numpy.random; older numpy loads it with numpy itself.
    def loaded_after(code):
        script = code + "\nimport sys\nprint('numpy.random' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()[-1] == "True"

    if loaded_after("import numpy"):
        pytest.skip("this numpy imports numpy.random with numpy itself")
    assert not loaded_after("import lossbench.cli")


class TestCheckChannel:
    def test_saturating_loss_channel(self, tmp_path):
        doc = {
            "gateset": "pauli",
            "noise": {"type": "loss", "alpha": 0.9, "level": 0},
            "state": "maximally_mixed",
            "detector": {"eigenvalues": [1.0, 1.0], "basis_seed": 0},
            "protocol": {"m_grid": [1, 2, 3], "n_sequences": 2},
            "seed": 0,
        }
        path = tmp_path / "sat.config"
        path.write_text(json.dumps(doc))
        proc = run_module("check-channel", str(path))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["dim"] == 2
        assert report["avg_loss"] == pytest.approx(0.095, abs=1e-12)
        assert report["worst_loss"] == pytest.approx(0.19, abs=1e-12)
        assert report["slack"] == pytest.approx(0.0, abs=1e-12)
        assert report["satisfied"] is True
        assert report["complement_survival"] == pytest.approx(1.0, abs=1e-12)

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_text("{")
        assert run_cli("check-channel", str(path)).returncode == 1

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.config"
        path.write_bytes(b'{"gateset": "pauli",\n "noise": "\xfe"}')
        proc = run_cli("check-channel", str(path))
        assert proc.returncode == 1
        assert proc.stderr == f"lossbench: error: {path}: not valid UTF-8: byte 0xfe at offset 32\n"

    def test_bundled_name_beside_a_directory_of_that_name(self, tmp_path, monkeypatch, capsys):
        # `simulate fig2 --out fig2` leaves a fig2/ directory in the working
        # directory; the bundled config must still resolve.
        (tmp_path / "fig2").mkdir()
        monkeypatch.chdir(tmp_path)
        assert cli.main(["check-channel", "fig2"]) == 0
        assert json.loads(capsys.readouterr().out)["dim"] == 3
