import json
import sys
import warnings

import numpy as np
import pytest

import lossbench as lb


def base_doc(**overrides):
    doc = {
        "gateset": "pauli",
        "noise": {"type": "loss", "alpha": 0.99, "level": 1},
        "state": "zero",
        "detector": {"eigenvalues": [0.87, 0.95], "basis_seed": 7},
        "protocol": {"m_grid": [1, 2, 3], "n_sequences": 4},
        "seed": 42,
    }
    doc.update(overrides)
    return doc


def parse(doc, **kwargs):
    return lb.parse_config(json.dumps(doc), **kwargs)


def errors_of(doc, **kwargs):
    with pytest.raises(lb.ConfigError) as excinfo:
        parse(doc, **kwargs)
    return excinfo.value.errors


class TestDocumentShape:
    def test_valid_document_parses(self):
        run = parse(base_doc())
        assert run.gateset_name == "pauli"
        assert run.noise_type == "loss"
        assert run.protocol.master_seed == 42
        assert run.protocol.m_grid == (1, 2, 3)
        assert run.protocol.n_sequences == 4
        assert run.protocol.shots is None
        assert run.protocol.variant == "loss"
        assert run.resolved_theta is None

    def test_empty_document_lists_every_missing_section(self):
        errors = errors_of({})
        assert len(errors) == 6
        for section in ("gateset", "noise", "state", "detector", "protocol", "seed"):
            assert any(e.startswith(f"{section}:") for e in errors)

    def test_syntax_error_is_reported(self):
        with pytest.raises(lb.ConfigError, match="syntax error"):
            lb.parse_config("{not json")

    def test_non_object_top_level(self):
        with pytest.raises(lb.ConfigError, match="top level"):
            lb.parse_config("[1, 2]")

    def test_unknown_top_level_key(self):
        errors = errors_of(base_doc(extra=1))
        assert errors == ("extra: unknown key",)

    def test_errors_accumulate_across_sections(self):
        doc = base_doc(gateset="other", seed=-1)
        errors = errors_of(doc)
        assert any(e.startswith("gateset:") for e in errors)
        assert any(e.startswith("seed:") for e in errors)

    def test_every_bad_field_is_reported(self):
        doc = base_doc(
            noise={"type": "kraus", "operators": [qubit_matrix("1")], "x": 1},
            state={"matrix": qubit_matrix(1.0)},
            detector={"eigenvalues": [0.9, 2], "basis": [[[1.0, 0.0]]]},
            protocol={"m_grid": [0, 2], "n_sequences": 0, "shots": -1, "variant": "x"},
        )
        assert errors_of(doc) == (
            "noise.x: unknown key",
            "noise.operators[0]: expected a nested array of finite [re, im] pairs",
            "state.matrix: trace 2.0 outside (0, 1]",
            "detector.eigenvalues[1] = 2 outside [0, 1]",
            "detector.basis: expected a 2x2 matrix of [re, im] pairs, got (1, 1, 2)",
            "protocol.m_grid[0]: expected a positive integer, got 0",
            "protocol.n_sequences: expected a positive integer, got 0",
            "protocol.shots: expected a positive integer or 'exact', got -1",
            "protocol.variant: expected 'loss' or 'rb', got 'x'",
        )

    @pytest.mark.parametrize(
        "overrides, error",
        [
            (
                {"noise": {"type": "kraus", "operators": []}},
                "noise.operators: expected a nonempty list of matrices",
            ),
            ({"noise": {"type": "kraus"}}, "noise.operators: expected a nonempty list of matrices"),
            ({"detector": [0.9, 0.8]}, "detector: expected an object"),
        ],
        ids=["kraus-empty", "kraus-missing", "detector-list"],
    )
    def test_section_of_the_wrong_shape_is_its_one_error(self, overrides, error):
        assert errors_of(base_doc(**overrides)) == (error,)

    def test_output_dir_must_be_string(self):
        assert any("output_dir" in e for e in errors_of(base_doc(output_dir=3)))
        assert parse(base_doc(output_dir="runs/a")).output_dir == "runs/a"


class TestGatesetAndSeed:
    def test_clifford_selection(self):
        run = parse(base_doc(gateset="clifford"))
        assert run.gateset_name == "clifford"
        assert len(run.protocol.gateset) == 24

    def test_unknown_gateset(self):
        assert any("pauli" in e for e in errors_of(base_doc(gateset="haar")))

    def test_seed_forms(self):
        assert any("seed" in e for e in errors_of(base_doc(seed=-3)))
        assert any("seed" in e for e in errors_of(base_doc(seed=True)))
        assert any("seed" in e for e in errors_of(base_doc(seed="42")))

    def test_seed_override(self):
        run = parse(base_doc(), seed_override=7)
        assert run.protocol.master_seed == 7
        with pytest.raises(lb.ConfigError, match="seed"):
            parse(base_doc(), seed_override=-1)


class TestNoiseSection:
    def test_loss_validation(self):
        errs = errors_of(base_doc(noise={"type": "loss", "alpha": 1.2, "level": 3}))
        assert any(e.startswith("noise.alpha") for e in errs)
        assert any(e.startswith("noise.level") for e in errs)

    def test_unknown_noise_key(self):
        errs = errors_of(
            base_doc(noise={"type": "loss", "alpha": 0.9, "level": 0, "x": 1})
        )
        assert "noise.x: unknown key" in errs

    def test_unknown_noise_type(self):
        assert any(
            e.startswith("noise.type") for e in errors_of(base_doc(noise={"type": "t1"}))
        )

    def test_leakage_validation(self):
        errs = errors_of(
            base_doc(
                noise={
                    "type": "leakage",
                    "epsilon": -0.1,
                    "theta": "later",
                    "hamiltonian_seed": -2,
                }
            )
        )
        assert any(e.startswith("noise.epsilon") for e in errs)
        assert any(e.startswith("noise.theta") for e in errs)
        assert any(e.startswith("noise.hamiltonian_seed") for e in errs)

    def test_kraus_channel_assembled(self):
        ops = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]]
        run = parse(base_doc(noise={"type": "kraus", "operators": ops}))
        assert run.noise_type == "kraus"
        assert np.allclose(run.protocol.noise.kraus[0], np.diag([1.0, 0.9]))

    def test_kraus_operator_shape_checked(self):
        bad = [[[[1.0, 0.0]]]]
        errs = errors_of(base_doc(noise={"type": "kraus", "operators": bad}))
        assert any(e.startswith("noise.operators[0]") for e in errs)

    def test_trace_increasing_kraus_rejected(self):
        ops = [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]
        errs = errors_of(base_doc(noise={"type": "kraus", "operators": ops}))
        assert any(e.startswith("noise.operators:") for e in errs)


NAN, INF, HUGE = float("nan"), float("inf"), 10**400


def leakage_noise(epsilon=0.1, theta=0.4):
    return {"type": "leakage", "epsilon": epsilon, "theta": theta, "hamiltonian_seed": 5}


def qubit_matrix(entry):
    """diag(entry, 1) as nested [re, im] pairs."""
    return [[[entry, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def kraus_noise(entry):
    return {"type": "kraus", "operators": [qubit_matrix(entry)]}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"noise": leakage_noise(epsilon=INF)}, "noise.epsilon:"),
            ({"noise": leakage_noise(epsilon=NAN)}, "noise.epsilon:"),
            ({"noise": leakage_noise(epsilon=HUGE)}, "noise.epsilon:"),
            ({"noise": leakage_noise(theta=NAN)}, "noise.theta:"),
            ({"noise": leakage_noise(theta=INF)}, "noise.theta:"),
            ({"noise": leakage_noise(theta=HUGE)}, "noise.theta:"),
            ({"noise": kraus_noise(NAN)}, "noise.operators[0]:"),
            ({"noise": kraus_noise(INF)}, "noise.operators[0]:"),
            ({"noise": kraus_noise(HUGE)}, "noise.operators[0]:"),
            # finite entries whose sum K^H K overflows
            ({"noise": kraus_noise(1e200)}, "noise.operators:"),
            ({"noise": {"type": "loss", "alpha": NAN, "level": 1}}, "noise.alpha:"),
            ({"detector": {"eigenvalues": [0.3, 0.6], "basis": qubit_matrix(NAN)}}, "detector.basis"),
            # finite entries whose B^H B overflows to NaN
            (
                {
                    "detector": {
                        "eigenvalues": [0.3, 0.6],
                        "basis": [[[1e200, 0.0], [1e200, 0.0]], [[1e200, 0.0], [0.0, 1e200]]],
                    }
                },
                "detector: basis is not unitary",
            ),
            ({"detector": {"eigenvalues": [INF, 0.5], "basis_seed": 1}}, "detector.eigenvalues[0]"),
            ({"state": {"matrix": qubit_matrix(NAN)}}, "state.matrix:"),
        ],
        ids=[
            "epsilon-inf",
            "epsilon-nan",
            "epsilon-huge-int",
            "theta-nan",
            "theta-inf",
            "theta-huge-int",
            "kraus-nan",
            "kraus-inf",
            "kraus-huge-int",
            "kraus-overflowing-product",
            "alpha-nan",
            "basis-nan",
            "basis-overflowing-product",
            "eigenvalue-inf",
            "state-nan",
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
    def test_rejected_with_field_path(self, overrides, path):
        errors = errors_of(base_doc(**overrides))
        assert any(e.startswith(path) for e in errors), errors

    def test_kraus_error_accumulates_with_other_sections(self):
        errors = errors_of(base_doc(noise=kraus_noise(2.0), seed=-1))
        assert any(e.startswith("noise.operators:") for e in errors)
        assert any(e.startswith("seed:") for e in errors)


# An integer literal longer than Python converts by default (4300 digits).
_LONG_DIGITS = 5001
_LONG = "7" * _LONG_DIGITS


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < _LONG_DIGITS,
    reason="this Python converts integer literals of any length",
)
class TestIntegersPastTheDigitLimit:
    """json.dumps cannot write these integers, so each document is edited as text."""

    GOT = f"got <integer of {_LONG_DIGITS} digits>"
    CASES = {
        "seed": ('"seed": 42', f'"seed": {_LONG}', f"seed: expected a nonnegative integer, {GOT}"),
        "m-grid-entry": (
            '"m_grid": [1, 2, 3]',
            f'"m_grid": [1, 2, {_LONG}]',
            f"protocol.m_grid[2]: expected a positive integer, {GOT}",
        ),
        "n-sequences": (
            '"n_sequences": 4',
            f'"n_sequences": -{_LONG}',
            f"protocol.n_sequences: expected a positive integer, {GOT}",
        ),
        "alpha": ('"alpha": 0.99', f'"alpha": {_LONG}', f"noise.alpha: expected a number in [0, 1], {GOT}"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_with_field_path(self, case):
        field, literal, message = self.CASES[case]
        text = json.dumps(base_doc())
        assert field in text
        with pytest.raises(lb.ConfigError) as excinfo:
            lb.parse_config(text.replace(field, literal))
        assert excinfo.value.errors == (message,)

    def test_every_field_is_reported(self):
        text = json.dumps(base_doc())
        for field, literal, _ in self.CASES.values():
            text = text.replace(field, literal)
        with pytest.raises(lb.ConfigError) as excinfo:
            lb.parse_config(text)
        assert sorted(excinfo.value.errors) == sorted(m for *_, m in self.CASES.values())


class TestMatrixEntriesAreNumbers:
    """Strings and bools are not matrix entries, even where they read as 1."""

    @pytest.mark.parametrize("entry", ["1", "1e0", True], ids=["string", "exponent-string", "bool"])
    @pytest.mark.parametrize(
        "field, path",
        [
            (lambda e: {"state": {"matrix": [[[e, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}}, "state.matrix"),
            (lambda e: {"noise": kraus_noise(e)}, "noise.operators[0]"),
            (lambda e: {"detector": {"eigenvalues": [0.3, 0.6], "basis": qubit_matrix(e)}}, "detector.basis"),
        ],
        ids=["state-matrix", "kraus-operator", "detector-basis"],
    )
    def test_rejected_with_field_path(self, field, path, entry):
        errors = errors_of(base_doc(**field(entry)))
        assert f"{path}: expected a nested array of finite [re, im] pairs" in errors, errors

    def test_same_documents_parse_with_numbers(self):
        for field in (
            {"state": {"matrix": [[[1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}},
            {"noise": kraus_noise(1)},
            {"detector": {"eigenvalues": [0.3, 0.6], "basis": qubit_matrix(1)}},
        ):
            parse(base_doc(**field))


class TestStateSection:
    def test_presets(self):
        assert parse(base_doc(state="one")).protocol.rho0.matrix[1, 1] == 1.0
        mixed = parse(base_doc(state="maximally_mixed")).protocol.rho0
        assert np.allclose(mixed.matrix, np.eye(2) / 2)

    def test_unknown_preset(self):
        assert any(e.startswith("state:") for e in errors_of(base_doc(state="plus")))

    def test_explicit_matrix(self):
        matrix = [[[0.5, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.5, 0.0]]]
        run = parse(base_doc(state={"matrix": matrix}))
        assert run.protocol.rho0.matrix[0, 1] == pytest.approx(0.5j)

    def test_invalid_explicit_state_reports_violations(self):
        matrix = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
        errs = errors_of(base_doc(state={"matrix": matrix}))
        assert any(e.startswith("state.matrix:") for e in errs)

    def test_overflowing_trace_names_the_field(self):
        matrix = [[[1.7e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.7e308, 0.0]]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            errs = errors_of(base_doc(state={"matrix": matrix}))
        assert errs == ("state.matrix: trace inf outside (0, 1]",)

    def test_matrix_shape_checked(self):
        errs = errors_of(base_doc(state={"matrix": [[[1.0, 0.0]]]}))
        assert any("state.matrix" in e for e in errs)


class TestDetectorSection:
    def test_eigenvalue_range_message(self):
        doc = base_doc(detector={"eigenvalues": [1.5, 0.95], "basis_seed": 7})
        errs = errors_of(doc)
        assert "detector.eigenvalues[0] = 1.5 outside [0, 1]" in errs

    def test_eigenvalue_count(self):
        doc = base_doc(detector={"eigenvalues": [0.9], "basis_seed": 7})
        assert any("list of 2" in e for e in errors_of(doc))

    def test_exactly_one_basis_source(self):
        doc = base_doc(detector={"eigenvalues": [0.9, 0.9]})
        assert any("exactly one" in e for e in errors_of(doc))
        doc = base_doc(
            detector={
                "eigenvalues": [0.9, 0.9],
                "basis_seed": 1,
                "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            }
        )
        assert any("exactly one" in e for e in errors_of(doc))

    def test_explicit_basis(self):
        doc = base_doc(
            detector={
                "eigenvalues": [0.3, 0.6],
                "basis": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            }
        )
        run = parse(doc)
        assert np.allclose(run.protocol.q_op.matrix, np.diag([0.3, 0.6]))

    def test_bad_basis_seed(self):
        doc = base_doc(detector={"eigenvalues": [0.9, 0.9], "basis_seed": -1})
        assert any("basis_seed" in e for e in errors_of(doc))


class TestProtocolSection:
    def test_m_grid_range_form_is_inclusive(self):
        doc = base_doc(protocol={"m_grid": {"start": 5, "stop": 20, "step": 5}, "n_sequences": 2})
        assert parse(doc).protocol.m_grid == (5, 10, 15, 20)

    def test_m_grid_list_must_increase(self):
        doc = base_doc(protocol={"m_grid": [2, 2, 3], "n_sequences": 2})
        assert any("strictly increasing" in e for e in errors_of(doc))

    def test_m_grid_entry_type(self):
        doc = base_doc(protocol={"m_grid": [1, 2.5], "n_sequences": 2})
        assert any("m_grid[1]" in e for e in errors_of(doc))

    def test_m_grid_range_fields(self):
        doc = base_doc(protocol={"m_grid": {"start": 9, "stop": 5, "step": 1}, "n_sequences": 2})
        assert any("start must not exceed stop" in e for e in errors_of(doc))
        doc = base_doc(protocol={"m_grid": {"start": 1, "stop": 5}, "n_sequences": 2})
        assert any("m_grid.step" in e for e in errors_of(doc))

    @pytest.mark.parametrize(
        "grid",
        [{"start": 1, "stop": 10**400, "step": 1}, [1, 2, 10**400]],
        ids=["range", "list"],
    )
    def test_m_grid_past_the_length_limit(self, grid):
        doc = base_doc(protocol={"m_grid": grid, "n_sequences": 0})
        assert errors_of(doc) == (
            "protocol.m_grid: lengths must be at most 1000000",
            "protocol.n_sequences: expected a positive integer, got 0",
        )

    def test_m_grid_length_limit_is_inclusive(self):
        grid = {"start": 1, "stop": 1_000_000, "step": 999_999}
        doc = base_doc(protocol={"m_grid": grid, "n_sequences": 2})
        assert parse(doc).protocol.m_grid == (1, 1_000_000)
        doc = base_doc(protocol={"m_grid": {**grid, "stop": 1_000_001}, "n_sequences": 2})
        assert parse(doc).protocol.m_grid == (1, 1_000_000)
        doc = base_doc(protocol={"m_grid": [1, 1_000_001], "n_sequences": 2})
        assert errors_of(doc) == ("protocol.m_grid: lengths must be at most 1000000",)

    def test_required_fields(self):
        doc = base_doc(protocol={"n_sequences": 2})
        assert any("m_grid: required" in e for e in errors_of(doc))
        doc = base_doc(protocol={"m_grid": [1, 2]})
        assert any("n_sequences: required" in e for e in errors_of(doc))

    def test_shots_forms(self):
        doc = base_doc(protocol={"m_grid": [1, 2], "n_sequences": 2, "shots": 100})
        assert parse(doc).protocol.shots == 100
        doc = base_doc(protocol={"m_grid": [1, 2], "n_sequences": 2, "shots": "exact"})
        assert parse(doc).protocol.shots is None
        doc = base_doc(protocol={"m_grid": [1, 2], "n_sequences": 2, "shots": 0})
        assert any("shots" in e for e in errors_of(doc))

    def test_variant(self):
        doc = base_doc(protocol={"m_grid": [1, 2], "n_sequences": 2, "variant": "rb"})
        assert parse(doc).protocol.variant == "rb"
        doc = base_doc(protocol={"m_grid": [1, 2], "n_sequences": 2, "variant": "xeb"})
        assert any("variant" in e for e in errors_of(doc))

    def test_unknown_protocol_key(self):
        doc = base_doc(protocol={"m_grid": [1, 2], "n_sequences": 2, "reps": 1})
        assert "protocol.reps: unknown key" in errors_of(doc)


class TestLeakageAssembly:
    def leakage_doc(self, theta):
        return base_doc(
            noise={
                "type": "leakage",
                "epsilon": 0.1,
                "theta": theta,
                "hamiltonian_seed": 5,
            }
        )

    def test_everything_is_lifted_to_dimension_3(self):
        run = parse(self.leakage_doc(0.4))
        assert run.protocol.gateset.dim == 3
        assert run.protocol.noise.dim == 3
        assert run.protocol.rho0.dim == 3
        assert run.protocol.q_op.dim == 3
        assert run.resolved_theta == pytest.approx(0.4)
        assert run.protocol.gateset.labels == ("I", "X", "Y", "Z")
        # the state keeps zero weight on the leakage level
        assert run.protocol.rho0.matrix[2, 2] == 0.0

    def test_embedded_gates_carry_theta(self):
        run = parse(self.leakage_doc(0.4))
        identity_gate = run.protocol.gateset.gates[0]
        assert identity_gate[2, 2] == pytest.approx(np.exp(0.4j))

    def test_random_theta_is_seed_deterministic(self):
        a = parse(self.leakage_doc("random"))
        b = parse(self.leakage_doc("random"))
        c = parse(self.leakage_doc("random"), seed_override=43)
        assert a.resolved_theta == b.resolved_theta
        assert 0.0 <= a.resolved_theta < 2 * np.pi
        assert a.resolved_theta != c.resolved_theta
