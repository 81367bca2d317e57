import json
from importlib import resources

import numpy as np
import pytest

import lossbench as lb
from lossbench.core import key_words, seed_states, transfer_matrix
from lossbench.protocol import _gate_superoperators, _sample_words
from support import (
    compose_sequence,
    enumerate_average,
    enumerate_average_naive,
    execute_sequence,
    random_density,
    random_povm,
)


def fig1_style_config(**overrides):
    """Basis loss alpha=0.99 on level 1, imperfect detector, Pauli gates."""
    defaults = dict(
        gateset=lb.pauli_gateset(),
        noise=lb.basis_loss_channel(alpha=0.99, level=1, dim=2),
        rho0=lb.basis_state(2, 0),
        q_op=lb.detector_model(eigenvalues=(0.87, 0.95), basis_seed=7),
        m_grid=(1, 2, 3),
        n_sequences=5,
        master_seed=0,
    )
    defaults.update(overrides)
    return lb.ProtocolConfig(**defaults)


class TestProtocolConfig:
    def test_m_grid_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            fig1_style_config(m_grid=(3, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            fig1_style_config(m_grid=(0, 1))
        with pytest.raises(ValueError, match="nonempty"):
            fig1_style_config(m_grid=())

    @pytest.mark.parametrize("grid", [(1, 2.7, 4), (1.0, 2.0), ("1", "2"), 5])
    def test_m_grid_entries_must_be_integers(self, grid):
        with pytest.raises(ValueError, match=r"^m_grid entries must be integers"):
            fig1_style_config(m_grid=grid)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fig1_style_config(rho0=lb.maximally_mixed(3))

    def test_non_hermitian_rho0_raises(self):
        skew = np.array([[0.5, 1e-9], [0.0, 0.5]])
        with pytest.raises(ValueError, match=r"^rho0 is not a state: max \|rho - rho\^H\| = 1\.000e-09$"):
            fig1_style_config(rho0=lb.DensityMatrix(2, skew))
        fig1_style_config(rho0=lb.DensityMatrix(2, skew * 1e-4))

    @pytest.mark.parametrize(
        "diagonal, message",
        [
            ((1.3, -0.3), r"smallest eigenvalue -0\.3\d* < -1e-12"),
            ((1.5, 0.0), r"trace 1\.5 outside \(0, 1\]"),
            ((0.0, 0.0), r"trace 0\.0 outside \(0, 1\]"),
        ],
        ids=["negative-eigenvalue", "trace-above-one", "zero"],
    )
    def test_rho0_must_be_a_state(self, diagonal, message):
        # Each of these used to run: to a fit, to a click-probability error, to all-zero means.
        with pytest.raises(ValueError, match=rf"^rho0 is not a state: {message}$"):
            fig1_style_config(rho0=lb.DensityMatrix(2, np.diag(diagonal)))

    def test_numpy_integer_dim_is_stored_as_int_and_runs(self):
        pauli = lb.pauli_gateset()
        gateset = lb.GateSet(np.int64(2), pauli.gates, 1, pauli.labels)
        assert type(gateset.dim) is int
        ds = lb.run_protocol(fig1_style_config(gateset=gateset))
        assert json.loads(json.dumps(ds.metadata))["dim"] == 2
        assert ds.metadata["config_fingerprint"] == fig1_style_config().fingerprint()

    def test_counts_validated(self):
        with pytest.raises(ValueError, match="n_sequences"):
            fig1_style_config(n_sequences=0)
        with pytest.raises(ValueError, match="shots"):
            fig1_style_config(shots=0)
        with pytest.raises(ValueError, match="variant"):
            fig1_style_config(variant="other")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shots", 2.5),
            ("n_sequences", 2.5),
            ("master_seed", -1),
            ("master_seed", 1.5),
            ("n_sequences", "30"),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= [01], got"):
            fig1_style_config(**{field: value})

    def test_numpy_integer_counts_are_stored_as_ints(self):
        counts = dict(n_sequences=30, master_seed=42, shots=100)
        numpy_counts = {k: np.int64(v) for k, v in counts.items()}
        cfg = fig1_style_config(m_grid=np.arange(1, 4), **numpy_counts)
        assert all(type(getattr(cfg, k)) is int for k in counts)
        assert all(type(m) is int for m in cfg.m_grid)
        assert cfg.fingerprint() == fig1_style_config(**counts).fingerprint()

    # Pinned digests: any drift in gate, Kraus, state or detector bytes fails.
    @pytest.mark.parametrize(
        "name, clifford_rb, digest",
        [
            ("fig1", False, "7d62f43e651ec5e73a9f690ebdc5dcd66f8c36fe3490178230da557ce8f4d42e"),
            ("fig2", False, "0132b8a36094f047c454747d78742caf7afc66a1677240c657d2345e92d9b140"),
            ("saturation", False, "97e4be8dac65864ca10fed099349d3a7f5da74f0d52a687e914b0457af0a964b"),
            ("fig1", True, "f6e594924a4c94d58c15f7eb7596c656ce8f51e694e9edd4fb1326a02075a5dd"),
        ],
    )
    def test_bundled_fingerprints_are_pinned(self, name, clifford_rb, digest):
        text = resources.files("lossbench").joinpath("configs", f"{name}.config").read_text()
        doc = json.loads(text)
        if clifford_rb:
            doc["gateset"] = "clifford"
            doc["protocol"]["variant"] = "rb"
        assert lb.parse_config(json.dumps(doc)).protocol.fingerprint() == digest

    def test_fingerprint_tracks_config(self):
        a = fig1_style_config()
        assert a.fingerprint() == fig1_style_config().fingerprint()
        assert a.fingerprint() != fig1_style_config(master_seed=1).fingerprint()
        assert a.fingerprint() != fig1_style_config(variant="rb").fingerprint()


class TestSampleSequence:
    def test_indices_in_range_and_deterministic(self):
        g = lb.pauli_gateset()
        a = lb.sample_sequence(g, 50, lb.stream(3))
        b = lb.sample_sequence(g, 50, lb.stream(3))
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 4

    def test_short_length_raises(self):
        with pytest.raises(ValueError, match="length"):
            lb.sample_sequence(lb.pauli_gateset(), 0, lb.stream(0))

    def test_non_integer_length_raises(self):
        with pytest.raises(ValueError, match=r"^sequence length must be an integer >= 1, got 2\.5$"):
            lb.sample_sequence(lb.pauli_gateset(), 2.5, lb.stream(0))


class TestExecuteSequence:
    def test_noiseless_matches_direct_composition(self):
        identity = lb.QuantumChannel(2, (np.eye(2),))
        cfg = fig1_style_config(noise=identity)
        indices = [1, 3, 2, 0, 1]
        value = execute_sequence(cfg, indices)
        u = compose_sequence(cfg.gateset, indices)
        rho = lb.DensityMatrix(2, u @ cfg.rho0.matrix @ u.conj().T)
        assert type(value) is float
        assert value == pytest.approx(lb.expectation(cfg.q_op, rho), abs=1e-14)

    def test_rb_variant_with_identity_noise_returns_to_start(self):
        identity = lb.QuantumChannel(2, (np.eye(2),))
        q = lb.MeasurementOperator(2, np.diag([1.0, 0.0]))
        cfg = fig1_style_config(
            noise=identity, q_op=q, variant="rb", gateset=lb.clifford_gateset()
        )
        for seed in range(5):
            indices = lb.sample_sequence(cfg.gateset, 7, lb.stream(seed))
            assert execute_sequence(cfg, indices) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_identity_gate_decays_by_survival_power(self):
        # all-identity sequence on |1><1| with alpha=0.99: 0.9801 per step
        cfg = fig1_style_config(
            rho0=lb.basis_state(2, 1),
            q_op=lb.MeasurementOperator(2, np.eye(2)),
        )
        for m in (1, 4, 9):
            assert execute_sequence(cfg, [0] * m) == pytest.approx(0.9801**m, abs=1e-12)

    def test_shot_mode_needs_rng(self):
        cfg = fig1_style_config(shots=10)
        with pytest.raises(ValueError, match="RNG"):
            execute_sequence(cfg, [0])

    def test_shot_mode_is_click_fraction(self):
        cfg = fig1_style_config(shots=1000)
        a = execute_sequence(cfg, [1, 2], lb.stream(8))
        b = execute_sequence(cfg, [1, 2], lb.stream(8))
        assert type(a) is float
        assert a == b
        assert 0.0 <= a <= 1.0
        assert a * 1000 == round(a * 1000)

    def test_bad_index_raises(self):
        with pytest.raises(IndexError, match="out of range"):
            execute_sequence(fig1_style_config(), [7])


def qutrit_leakage_config(**overrides):
    """fig2-style run: embedded Paulis, coherent leakage, padded state and detector."""
    qubit = fig1_style_config()
    defaults = dict(
        gateset=lb.embed_gateset(lb.pauli_gateset(), 0.0),
        noise=lb.coherent_leakage_error(epsilon=0.1, hamiltonian_seed=64),
        rho0=lb.DensityMatrix(3, lb.pad_to_qutrit(qubit.rho0.matrix)),
        q_op=lb.MeasurementOperator(3, lb.pad_to_qutrit(qubit.q_op.matrix)),
    )
    defaults.update(overrides)
    return fig1_style_config(**defaults)


ORACLE_CONFIGS = {
    "pauli": lambda **kw: fig1_style_config(
        noise=lb.random_lossy_channel(2, 0.3, 5), rho0=random_density(2, 6), **kw
    ),
    "clifford": lambda **kw: fig1_style_config(
        gateset=lb.clifford_gateset(), noise=lb.random_lossy_channel(2, 0.3, 7), **kw
    ),
    "qutrit": qutrit_leakage_config,
}


class TestRunProtocol:
    def test_reruns_are_identical(self):
        cfg = fig1_style_config(m_grid=(1, 3, 6), n_sequences=8, shots=50)
        first = lb.run_protocol(cfg)
        again = lb.run_protocol(cfg)
        assert np.array_equal(first.means, again.means)
        assert np.array_equal(first.sems, again.sems)

    def test_single_sequence_has_nan_sem(self):
        ds = lb.run_protocol(fig1_style_config(n_sequences=1))
        assert np.all(np.isnan(ds.sems))
        assert np.all(np.isfinite(ds.means))

    def test_metadata_is_deterministic(self):
        cfg = fig1_style_config()
        ds = lb.run_protocol(cfg)
        assert ds.metadata["config_fingerprint"] == cfg.fingerprint()
        assert ds.metadata["master_seed"] == 0
        assert ds.metadata["m_grid"] == [1, 2, 3]
        assert ds.metadata["gateset_labels"] == ["I", "X", "Y", "Z"]
        assert ds.metadata["shots"] == "exact"
        assert lb.run_protocol(cfg).metadata == ds.metadata

    def test_sample_mean_converges_to_exact_average(self):
        # RMS deviation from the exact sequence average shrinks ~ 1/sqrt(n)
        cfg0 = fig1_style_config(m_grid=tuple(range(1, 9)), master_seed=5)
        exact = np.array(
            [lb.exact_sequence_average(cfg0, m) for m in cfg0.m_grid]
        )
        devs = []
        for n in (30, 300, 3000):
            cfg = fig1_style_config(
                m_grid=cfg0.m_grid, master_seed=5, n_sequences=n
            )
            ds = lb.run_protocol(cfg)
            devs.append(float(np.sqrt(np.mean((ds.means - exact) ** 2))))
        root10 = np.sqrt(10.0)
        for wide, narrow in zip(devs, devs[1:]):
            assert root10 / 2 < wide / narrow < 2 * root10

    def test_shot_noise_consistent_with_exact_average(self):
        cfg = fig1_style_config(m_grid=(3,), n_sequences=8, shots=200_000, master_seed=2)
        ds = lb.run_protocol(cfg)
        exact = lb.exact_sequence_average(cfg, 3)
        assert abs(ds.means[0] - exact) < 5 * ds.sems[0]


class TestBatchedEngineOracle:
    """The engine's means and sems against execute_sequence on the same streams."""

    @staticmethod
    def assert_matches_reference(cfg, word):
        # The engine's reductions over the reference values of each
        # (length, sequence) task, its word drawn by word(mi, si, m).
        values = np.array(
            [
                [
                    execute_sequence(cfg, word(mi, si, m), lb.stream(cfg.master_seed, mi, si, 1))
                    for si in range(cfg.n_sequences)
                ]
                for mi, m in enumerate(cfg.m_grid)
            ]
        )
        means = values.mean(axis=1)
        sems = values.std(axis=1, ddof=1) / np.sqrt(cfg.n_sequences)
        ds = lb.run_protocol(cfg)
        if cfg.shots is None:
            assert np.abs(ds.means - means).max() <= 1e-12
            assert np.abs(ds.sems - sems).max() <= 1e-12
        else:
            # Identical click counts give identical statistics.
            assert ds.means.tobytes() == means.tobytes()
            assert ds.sems.tobytes() == sems.tobytes()

    # The embedded qutrit Paulis are not closed under inversion up to a
    # global phase, so they run the loss variant only.
    @pytest.mark.parametrize("shots", [None, 40])
    @pytest.mark.parametrize(
        "gates, variant",
        [("pauli", "loss"), ("pauli", "rb"), ("clifford", "loss"), ("clifford", "rb"), ("qutrit", "loss")],
    )
    def test_matches_scalar_reference(self, gates, variant, shots):
        cfg = ORACLE_CONFIGS[gates](
            m_grid=(1, 2, 7, 30), n_sequences=6, master_seed=11, shots=shots, variant=variant
        )
        self.assert_matches_reference(
            cfg,
            lambda mi, si, m: lb.sample_sequence(cfg.gateset, m, lb.stream(cfg.master_seed, mi, si, 0)),
        )

    # Seeds of one, two and three 32-bit words, at the edges between them.
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    @pytest.mark.parametrize(
        "gates, variant, shots",
        [
            ("pauli", "loss", None),
            ("clifford", "rb", None),
            ("clifford", "loss", 25),
            ("pauli", "rb", 25),
            ("clifford", "rb", 100),
        ],
    )
    def test_streams_are_the_keyed_streams(self, seed, gates, variant, shots):
        cfg = ORACLE_CONFIGS[gates](
            m_grid=(1, 4, 9), n_sequences=3, master_seed=seed, shots=shots, variant=variant
        )
        n_gates = len(cfg.gateset)
        self.assert_matches_reference(
            cfg, lambda mi, si, m: lb.stream(seed, mi, si, 0).integers(0, n_gates, size=m)
        )

    # n = 3 * 2**30 rejects a quarter of all draws, so many rows are drawn again.
    @pytest.mark.parametrize("n", [1, 2, 3, 24, 3 * 2**30])
    @pytest.mark.parametrize("m", [1, 2, 7, 10])
    def test_word_mapping_is_integers(self, n, m, monkeypatch):
        keys = np.array([key_words(2**32 + 3, 5, si, 0) for si in range(40)])
        redrawn = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda key: redrawn.append(key) or default_rng(key))
        words = _sample_words(seed_states(keys), keys, m, n)
        monkeypatch.undo()
        assert words.shape == (len(keys), m)
        for key, word in zip(keys, words):
            assert np.array_equal(word, np.random.default_rng(key).integers(0, n, size=m))
        if n == 3 * 2**30:
            assert 0 < len(redrawn) < len(keys)
        else:
            assert not redrawn

    def test_set_not_closed_under_inversion_raises(self):
        # Rejected when the config is built, before any sequence runs.
        s_gate = np.diag([1.0, 1.0j])
        g = lb.GateSet(2, (np.eye(2), s_gate), 0, ("I", "S"))
        with pytest.raises(ValueError, match="not a group up to phase"):
            fig1_style_config(gateset=g, variant="rb", m_grid=(1, 5), n_sequences=4)
        with pytest.raises(ValueError, match="not a group up to phase"):
            qutrit_leakage_config(variant="rb", m_grid=(1, 5), n_sequences=4)

    def test_group_table_is_built_once(self, monkeypatch):
        builds = []
        build = lb.GateSet.group.func
        monkeypatch.setattr(lb.GateSet.group, "func", lambda g: builds.append(g) or build(g))
        gateset = lb.clifford_gateset()
        fig1_style_config(gateset=gateset)
        assert "group" not in gateset.__dict__
        cfg = fig1_style_config(gateset=gateset, variant="rb", m_grid=(1, 5), n_sequences=4)
        assert "group" in gateset.__dict__
        lb.run_protocol(cfg)
        assert len(builds) == 1 and builds[0] is gateset


class TestGateSuperoperators:
    @pytest.mark.parametrize("name", ["fig1", "fig2", "saturation", "clifford"])
    def test_batched_call_matches_the_per_gate_form(self, name):
        if name == "clifford":
            cfg = ORACLE_CONFIGS["clifford"]()
            assert len(cfg.noise.kraus) == 4
        else:
            text = resources.files("lossbench").joinpath("configs", f"{name}.config").read_text()
            cfg = lb.parse_config(text).protocol
        # The form the engine used before its one batched call, kept as the reference.
        noise = cfg.noise.kraus
        per_gate = np.stack([transfer_matrix([u @ k for k in noise]) for u in cfg.gateset.gates])
        transfers = _gate_superoperators(cfg)
        assert transfers.flags.c_contiguous
        assert transfers.tobytes() == per_gate.tobytes()


class TestExactSequenceAverage:
    def test_matches_closed_form_for_1_design(self):
        cfg = fig1_style_config()
        d_q = lb.average_response(cfg.q_op)
        s_rho = lb.state_survival(cfg.noise, cfg.rho0)
        s_avg = lb.average_survival(cfg.noise)
        for m in (1, 10, 50, 100):
            expected = d_q * s_rho * s_avg ** (m - 1)
            assert lb.exact_sequence_average(cfg, m) == pytest.approx(
                expected, abs=1e-12
            )

    def test_maximally_mixed_start_gains_one_survival_factor(self):
        cfg = fig1_style_config(rho0=lb.maximally_mixed(2))
        for m in (1, 5, 20):
            assert lb.exact_sequence_average(cfg, m) == pytest.approx(
                0.91 * 0.99005**m, abs=1e-12
            )

    def test_matches_closed_form_for_random_channels(self):
        for seed in range(3):
            cfg = fig1_style_config(
                noise=lb.random_lossy_channel(2, 0.4, seed),
                rho0=random_density(2, seed + 50),
                q_op=random_povm(2, seed + 90),
            )
            d_q = lb.average_response(cfg.q_op)
            s_rho = lb.state_survival(cfg.noise, cfg.rho0)
            s_avg = lb.average_survival(cfg.noise)
            tr = cfg.rho0.trace
            for m in (1, 7, 40, 100):
                expected = d_q * s_rho * tr * s_avg ** (m - 1)
                assert lb.exact_sequence_average(cfg, m) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_matches_brute_force_enumeration(self):
        qubit = fig1_style_config(
            noise=lb.random_lossy_channel(2, 0.3, 5),
            rho0=random_density(2, 6),
            q_op=random_povm(2, 8),
        )
        for cfg in (qubit, qutrit_leakage_config()):
            for m in (1, 2, 3):
                brute = enumerate_average(cfg.gateset, cfg.noise, cfg.rho0, cfg.q_op, m)
                naive = enumerate_average_naive(cfg.gateset, cfg.noise, cfg.rho0, cfg.q_op, m)
                assert brute == pytest.approx(naive, abs=1e-13)
                assert lb.exact_sequence_average(cfg, m) == pytest.approx(brute, abs=1e-12)

    def test_short_length_raises(self):
        with pytest.raises(ValueError, match="length"):
            lb.exact_sequence_average(fig1_style_config(), 0)

    def test_non_integer_length_raises(self):
        with pytest.raises(ValueError, match=r"^sequence length must be an integer >= 1, got 2\.5$"):
            lb.exact_sequence_average(fig1_style_config(), 2.5)

    def test_rb_variant_raises(self):
        with pytest.raises(ValueError, match="variant 'rb'"):
            lb.exact_sequence_average(fig1_style_config(variant="rb"), 3)


class TestDecayDataset:
    """The constructor rejects what read_decay_csv rejects, on the first problem."""

    def test_non_finite_mean_raises(self):
        means = np.array([0.9, 0.8, 0.7, np.nan, 0.5])
        with pytest.raises(ValueError, match=r"^means must be finite, got nan"):
            lb.DecayDataset(tuple(range(1, 6)), means, np.full(5, 0.01), 30, None)

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(m_values=(3, 1, 2)), "m_values must be strictly increasing positive"),
            (dict(m_values=(0, 1, 2)), "m_values must be strictly increasing positive"),
            (dict(m_values=(1, 2.7, 4)), "m_values entries must be integers"),
            (dict(m_values=(), means=[], sems=[]), "m_values must be nonempty"),
            (dict(means=[0.5, np.inf, 0.3]), "means must be finite, got inf"),
            (dict(sems=[0.1, -1.0, 0.1]), r"sems must be NaN or finite and >= 0, got -1\.0"),
            (dict(sems=[0.1, 0.1, np.inf]), "sems must be NaN or finite and >= 0, got inf"),
            (dict(means=[[0.5, 0.4, 0.3]]), "m_values, means and sems must have equal length"),
            (dict(n_sequences=0), "n_sequences must be an integer >= 1, got 0"),
            (dict(n_sequences=2.7), "n_sequences must be an integer >= 1, got 2.7"),
            (dict(shots=0), "shots must be an integer >= 1, got 0"),
            (dict(shots="100"), "shots must be an integer >= 1, got '100'"),
        ],
        ids=[
            "unsorted", "zero-length", "float-length", "empty", "inf-mean", "negative-sem",
            "inf-sem", "2d-means", "zero-sequences", "float-sequences", "zero-shots",
            "string-shots",
        ],
    )
    def test_invalid_fields_raise(self, fields, message):
        # Without the check, none of these survives a to_csv/read_decay_csv round trip.
        args = dict(m_values=(1, 2, 3), means=[0.5, 0.4, 0.3], sems=[0.1, 0.1, 0.1],
                    n_sequences=30, shots=None)
        with pytest.raises(ValueError, match="^" + message):
            lb.DecayDataset(**{**args, **fields})

    def test_caller_arrays_are_copied_not_frozen(self):
        means, sems = np.array([0.5, 0.4, 0.3]), np.array([0.1, 0.1, 0.1])
        ds = lb.DecayDataset((1, 2, 3), means, sems, 30, None)
        assert ds.means is not means and ds.sems is not sems
        means[0], sems[0] = 0.9, 0.2
        assert ds.means[0] == 0.5 and ds.sems[0] == 0.1
        with pytest.raises(ValueError, match="read-only"):
            ds.means[0] = 0.9

    def test_numpy_integers_are_stored_as_ints(self):
        ds = lb.DecayDataset(np.arange(1, 4), [0.5, 0.4, 0.3], [0.1, np.nan, 0.0],
                             np.int64(30), np.int32(100))
        assert all(type(m) is int for m in ds.m_values)
        assert type(ds.n_sequences) is int and type(ds.shots) is int


class TestCsvRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        ds = lb.run_protocol(fig1_style_config(m_grid=(1, 5, 9), n_sequences=4))
        path = tmp_path / "decay.csv"
        ds.to_csv(path)
        back = lb.read_decay_csv(path)
        assert back.m_values == ds.m_values
        assert np.array_equal(back.means, ds.means)
        assert np.array_equal(back.sems, ds.sems)
        assert back.n_sequences == 4
        assert back.shots is None

    def test_shot_count_round_trips(self, tmp_path):
        ds = lb.run_protocol(fig1_style_config(shots=25))
        path = tmp_path / "decay.csv"
        ds.to_csv(path)
        assert lb.read_decay_csv(path).shots == 25

    def test_header_line(self, tmp_path):
        ds = lb.run_protocol(fig1_style_config())
        path = tmp_path / "decay.csv"
        ds.to_csv(path)
        assert path.read_text().splitlines()[0] == "m,mean,sem,n_sequences,shots"

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,avg,sem,n_sequences,shots\n1,0.5,0.1,3,exact\n")
        with pytest.raises(ValueError, match="bad header"):
            lb.read_decay_csv(path)

    def test_inconsistent_rows_raise(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "m,mean,sem,n_sequences,shots\n1,0.5,0.1,3,exact\n2,0.4,0.1,4,exact\n"
        )
        with pytest.raises(ValueError, match="inconsistent"):
            lb.read_decay_csv(path)

    def test_unparseable_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("m,mean,sem,n_sequences,shots\n1,half,0.1,3,exact\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            lb.read_decay_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1,nan,0.1,3,exact\n", "bad.csv:2: mean must be finite"),
            ("1,0.5,0.1,3,exact\n2,inf,0.1,3,exact\n", "bad.csv:3: mean must be finite"),
            ("0,0.5,0.1,3,exact\n", "bad.csv:2: sequence length must be >= 1"),
            ("-2,0.5,0.1,3,exact\n", "bad.csv:2: sequence length must be >= 1"),
            ("1,0.5,0.1,3,exact\n1,0.4,0.1,3,exact\n", "bad.csv:3: .* strictly increasing"),
            ("2,0.5,0.1,3,exact\n1,0.4,0.1,3,exact\n", "bad.csv:3: .* strictly increasing"),
            ("1,0.5,inf,3,exact\n", "bad.csv:2: sem must be NaN or finite and >= 0"),
            ("1,0.5,0.1,3,exact\n2,0.4,-0.01,3,exact\n", "bad.csv:3: sem must be NaN or finite"),
            ("1,0.5,0.1,0,exact\n", "bad.csv:2: n_sequences must be an integer >= 1"),
            ("1,0.5,0.1,-3,exact\n", "bad.csv:2: n_sequences must be an integer >= 1"),
            ("1,0.5,0.1,3,0\n", "bad.csv:2: shots must be an integer >= 1"),
            ("1,0.5,0.1,3,-7\n", "bad.csv:2: shots must be an integer >= 1"),
        ],
    )
    def test_bad_rows_raise_with_line(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("m,mean,sem,n_sequences,shots\n" + rows)
        with pytest.raises(ValueError, match=message):
            lb.read_decay_csv(path)

    def test_nan_sems_are_valid(self, tmp_path):
        ds = lb.run_protocol(fig1_style_config(n_sequences=1))
        path = tmp_path / "decay.csv"
        ds.to_csv(path)
        back = lb.read_decay_csv(path)
        assert np.all(np.isnan(back.sems))
        assert np.array_equal(back.means, ds.means)

    def test_zero_sems_are_valid(self, tmp_path):
        path = tmp_path / "decay.csv"
        path.write_text("m,mean,sem,n_sequences,shots\n1,0.5,0.0,3,exact\n2,0.4,-0.0,3,exact\n")
        assert np.array_equal(lb.read_decay_csv(path).sems, [0.0, 0.0])

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            lb.read_decay_csv(path)

    def test_no_data_rows_raises(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("m,mean,sem,n_sequences,shots\n")
        with pytest.raises(ValueError, match="no data rows"):
            lb.read_decay_csv(path)
