import dataclasses
import itertools
import json
from importlib import resources

import numpy as np
import pytest

import lossbench as lb
from lossbench.core import coordinates, expectation, transfer_matrix
from lossbench.protocol import (
    _GATE_DRAWS,
    _SHOT_DRAWS,
    M_GRID_LIMIT,
    _draw_words,
    _evolve,
    _fold_inverses,
    _gate_superoperators,
    sample_sequence,
)
from support import (
    compose_sequence,
    enumerate_average,
    enumerate_average_naive,
    evolve_sequence,
    exact_rb_average,
    execute_sequence,
    random_density,
    random_lossy_channel,
    random_povm,
)


def fig1_style_config(**overrides):
    """Basis loss alpha=0.99 on level 1, imperfect detector, Pauli gates."""
    defaults = dict(
        gateset=lb.pauli_gateset(),
        noise=lb.basis_loss_channel(alpha=0.99, level=1, dim=2),
        rho0=lb.basis_state(2, 0),
        q_op=lb.detector_model(eigenvalues=(0.87, 0.95), basis=lb.random_orthonormal_basis(2, 7)),
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
            fig1_style_config(rho0=lb.DensityMatrix(skew))
        fig1_style_config(rho0=lb.DensityMatrix(skew * 1e-4))

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
            fig1_style_config(rho0=lb.DensityMatrix(np.diag(diagonal)))

    def test_dim_read_off_a_stack_of_gates_is_an_int_and_runs(self):
        pauli = lb.pauli_gateset()
        gateset = lb.GateSet(np.stack(pauli.gates), pauli.labels)
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

    def test_shots_past_the_binomial_limit_are_rejected(self):
        # numpy's binomial draw takes at most 2^63 - 1 shots; a run with more
        # ended in its OverflowError.
        assert fig1_style_config(shots=2**63 - 1).shots == 2**63 - 1
        with pytest.raises(ValueError, match=r"^shots must be at most 2\*\*63 - 1$"):
            fig1_style_config(shots=2**63)

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

    def test_lengths_past_the_limit_raise(self):
        # Only built, never run: the longest length bounds the entry count too.
        assert fig1_style_config(m_grid=(1, M_GRID_LIMIT)).m_grid == (1, M_GRID_LIMIT)
        for grid in ((1, M_GRID_LIMIT + 1), (1, 2, 10**400)):
            with pytest.raises(ValueError, match=rf"^m_grid lengths must be at most {M_GRID_LIMIT}$"):
                fig1_style_config(m_grid=grid)

    def test_task_counts_past_the_limit_raise(self):
        # Only built, never run.  10^20 sequences ended in numpy's
        # OverflowError, and 10^10 asked numpy for tens of GB.
        assert fig1_style_config(n_sequences=M_GRID_LIMIT // 3).n_sequences == M_GRID_LIMIT // 3
        assert fig1_style_config(m_grid=(7,), n_sequences=M_GRID_LIMIT).n_sequences == M_GRID_LIMIT
        message = (
            r"^n_sequences must be at most 333333 with 3 lengths: "
            r"a run has at most 1000000 \(length, sequence\) tasks$"
        )
        for n in (M_GRID_LIMIT // 3 + 1, 10**10, 10**20):
            with pytest.raises(ValueError, match=message):
                fig1_style_config(n_sequences=n)


class TestOperatorsBuiltAtConstruction:
    CONFIGS = {
        "loss-exact": lambda: fig1_style_config(),
        "loss-shots": lambda: fig1_style_config(shots=20),
        "rb-exact": lambda: ORACLE_CONFIGS["clifford"](variant="rb"),
        "rb-shots": lambda: ORACLE_CONFIGS["clifford"](variant="rb", shots=20),
        "qutrit": lambda: qutrit_leakage_config(),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_runs_build_no_operator(self, name, monkeypatch):
        cfg = self.CONFIGS[name]()
        calls = []
        for module in (lb.core, lb.protocol):
            for fn in (transfer_matrix, coordinates):
                counted = lambda *args, fn=fn: calls.append(fn.__name__) or fn(*args)
                monkeypatch.setattr(module, fn.__name__, counted)
        lb.run_protocol(cfg)
        if cfg.variant == "loss":
            lb.exact_sequence_average(cfg, 3)
        assert calls == []

    @pytest.mark.parametrize("name", CONFIGS)
    def test_stored_operators_are_read_only_fresh_bytes(self, name):
        cfg = self.CONFIGS[name]()
        fresh = {
            "transfers": _gate_superoperators(cfg),
            "rho0_coordinates": coordinates(cfg.rho0.matrix),
            "q_coordinates": coordinates(cfg.q_op.matrix),
        }
        for field, array in fresh.items():
            stored = getattr(cfg, field)
            assert not stored.flags.writeable
            assert stored.dtype == array.dtype and stored.shape == array.shape
            assert stored.tobytes() == array.tobytes()

    def test_replace_builds_the_new_configs_operators(self):
        cfg = fig1_style_config()
        other = random_lossy_channel(2, 0.3, 11)
        replaced = dataclasses.replace(cfg, noise=other, master_seed=5)
        assert replaced.transfers.tobytes() == _gate_superoperators(replaced).tobytes()
        assert replaced.transfers.tobytes() != cfg.transfers.tobytes()
        direct = fig1_style_config(noise=other, master_seed=5)
        assert replaced.transfers.tobytes() == direct.transfers.tobytes()
        assert replaced.fingerprint() == direct.fingerprint() != cfg.fingerprint()


class TestSampleSequence:
    def test_indices_in_range_and_deterministic(self):
        g = lb.pauli_gateset()
        a = sample_sequence(g, 50, lb.stream(3))
        b = sample_sequence(g, 50, lb.stream(3))
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 4

    def test_short_length_raises(self):
        with pytest.raises(ValueError, match="length"):
            sample_sequence(lb.pauli_gateset(), 0, lb.stream(0))

    def test_non_integer_length_raises(self):
        with pytest.raises(ValueError, match=r"^sequence length must be an integer >= 1, got 2\.5$"):
            sample_sequence(lb.pauli_gateset(), 2.5, lb.stream(0))


class TestExecuteSequence:
    def test_noiseless_matches_direct_composition(self):
        identity = lb.QuantumChannel((np.eye(2),))
        cfg = fig1_style_config(noise=identity)
        indices = [1, 3, 2, 0, 1]
        value = execute_sequence(cfg, indices)
        u = compose_sequence(cfg.gateset, indices)
        rho = lb.DensityMatrix(u @ cfg.rho0.matrix @ u.conj().T)
        assert type(value) is float
        assert value == pytest.approx(expectation(cfg.q_op, rho), abs=1e-14)

    def test_rb_variant_with_identity_noise_returns_to_start(self):
        identity = lb.QuantumChannel((np.eye(2),))
        q = lb.MeasurementOperator(np.diag([1.0, 0.0]))
        cfg = fig1_style_config(
            noise=identity, q_op=q, variant="rb", gateset=lb.clifford_gateset()
        )
        for seed in range(5):
            indices = sample_sequence(cfg.gateset, 7, lb.stream(seed))
            assert execute_sequence(cfg, indices) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_identity_gate_decays_by_survival_power(self):
        # all-identity sequence on |1><1| with alpha=0.99: 0.9801 per step
        cfg = fig1_style_config(
            rho0=lb.basis_state(2, 1),
            q_op=lb.MeasurementOperator(np.eye(2)),
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
        rho0=lb.DensityMatrix(lb.pad_to_qutrit(qubit.rho0.matrix)),
        q_op=lb.MeasurementOperator(lb.pad_to_qutrit(qubit.q_op.matrix)),
    )
    defaults.update(overrides)
    return fig1_style_config(**defaults)


ORACLE_CONFIGS = {
    "pauli": lambda **kw: fig1_style_config(
        noise=random_lossy_channel(2, 0.3, 5), rho0=random_density(2, 6), **kw
    ),
    "clifford": lambda **kw: fig1_style_config(
        gateset=lb.clifford_gateset(), noise=random_lossy_channel(2, 0.3, 7), **kw
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

    def test_shot_draws_are_fresh_per_sequence_and_per_length(self, monkeypatch):
        # A lossless channel and Q = I/2 give every sequence p = 1/2, so the
        # click fractions are pure shot noise.  A draw or a stream reused
        # across sequences shrinks a length's variance; one reused across
        # lengths repeats its mean.
        p, shots, n = 0.5, 100, 200
        cfg = fig1_style_config(
            noise=lb.QuantumChannel((np.eye(2),)),
            q_op=lb.detector_model((p, p), lb.random_orthonormal_basis(2, 7)),
            m_grid=(1, 2, 5, 9),
            n_sequences=n,
            shots=shots,
            master_seed=3,
        )
        calls = []
        monkeypatch.setattr(lb.protocol, "stream", lambda *key: calls.append(key) or lb.stream(*key))
        lb.run_protocol(dataclasses.replace(cfg, shots=None))
        # One gate stream per length, then with shots one shot stream per length.
        assert len(calls) == len(cfg.m_grid)
        calls.clear()
        ds = lb.run_protocol(cfg)
        assert len(calls) == 2 * len(cfg.m_grid)
        assert len(set(calls)) == len(calls)
        # (n - 1) s^2 / sigma^2 is close to chi^2 with n - 1 degrees of freedom.
        ratio = ds.sems**2 * n / (p * (1 - p) / shots)
        assert np.all(np.abs(ratio - 1) < 6 * np.sqrt(2 / (n - 1)))
        assert len(set(ds.means.tolist())) > 1

    @pytest.mark.parametrize("seed", [0, 7])
    def test_a_bare_seed_draws_no_engine_stream(self, seed):
        # noise seeds its detector basis and leakage Hamiltonian with
        # stream(seed); numpy zero-pads a key to 4 words, so a zero tag
        # would make that the gate stream of length 0 at master seed seed.
        def draws(*key):
            return lb.stream(*key).integers(0, 2**62, size=8).tolist()

        for tag in (_GATE_DRAWS, _SHOT_DRAWS):
            assert draws(seed) != draws(seed, 0, 0, tag)


class TestBatchedEngineOracle:
    """The engine's means and sems against execute_sequence on the same streams."""

    @staticmethod
    def assert_matches_reference(cfg, word):
        # The engine's reductions over the reference values of each
        # (length, sequence) task, its word drawn by word(mi, si, m).  With
        # shots, each length's clicks are one binomial draw over its exact
        # values, in sequence order, from the stream (seed, mi, 0, 1).
        exact = dataclasses.replace(cfg, shots=None)
        values = np.array(
            [
                [execute_sequence(exact, word(mi, si, m)) for si in range(cfg.n_sequences)]
                for mi, m in enumerate(cfg.m_grid)
            ]
        )

        def assert_exact_match(ds, values):
            n = cfg.n_sequences
            assert np.abs(ds.means - values.mean(axis=1)).max() <= 1e-12
            assert np.abs(ds.sems - values.std(axis=1, ddof=1) / np.sqrt(n)).max() <= 1e-12

        if cfg.shots is None:
            assert_exact_match(lb.run_protocol(cfg), values)
            return
        # Close click probabilities can give equal counts from different
        # words, so the words are checked without shots too.
        assert_exact_match(lb.run_protocol(exact), values)
        clicks = np.array(
            [
                lb.stream(cfg.master_seed, mi, 0, 1).binomial(cfg.shots, row) / cfg.shots
                for mi, row in enumerate(values)
            ]
        )
        ds = lb.run_protocol(cfg)
        # Identical click counts give identical statistics.
        assert ds.means.tobytes() == clicks.mean(axis=1).tobytes()
        assert ds.sems.tobytes() == (clicks.std(axis=1, ddof=1) / np.sqrt(cfg.n_sequences)).tobytes()

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
        n = cfg.n_sequences
        self.assert_matches_reference(
            cfg,
            lambda mi, si, m: sample_sequence(
                cfg.gateset, n * m, lb.stream(cfg.master_seed, mi, 0, 2)
            ).reshape(n, m)[si],
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
            cfg, lambda mi, si, m: lb.stream(seed, mi, 0, 2).integers(0, n_gates, size=(3, m))[si]
        )

    def test_set_not_closed_under_inversion_raises(self):
        # Rejected when the config is built, before any sequence runs.
        s_gate = np.diag([1.0, 1.0j])
        g = lb.GateSet((np.eye(2), s_gate), ("I", "S"))
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


class TestEngineStages:
    STAGES = ("_draw_words", "_fold_inverses", "_evolve", "_draw_clicks", "_aggregate")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: fig1_style_config(m_grid=(1, 2, 7), n_sequences=6, shots=40),
            lambda: ORACLE_CONFIGS["clifford"](m_grid=(1, 2, 7), n_sequences=6, variant="rb"),
        ],
        ids=["loss-shots", "rb-exact"],
    )
    def test_run_protocol_calls_every_stage_through_the_module(self, make, monkeypatch):
        # A wrapper set on the module sees every stage call, and passing
        # each call through leaves every output byte as it was.
        cfg = make()
        plain = lb.run_protocol(cfg)
        calls = dict.fromkeys(self.STAGES, 0)
        for name in self.STAGES:
            stage = getattr(lb.protocol, name)

            def counted(*args, name=name, stage=stage):
                calls[name] += 1
                return stage(*args)

            monkeypatch.setattr(lb.protocol, name, counted)
        ds = lb.run_protocol(cfg)
        assert calls == {name: int(name != "_fold_inverses" or cfg.variant == "rb") for name in self.STAGES}
        assert ds.means.tobytes() == plain.means.tobytes()
        assert ds.sems.tobytes() == plain.sems.tobytes()

    @pytest.mark.parametrize("variant", ["loss", "rb"])
    @pytest.mark.parametrize("gates", ["pauli", "clifford"])
    def test_gate_dependent_stack_matches_the_kraus_reference(self, gates, variant):
        # Each gate gets its own noise: _evolve on their transfer matrices
        # against one sequence at a time, noise then gate, from Kraus operators.
        cfg = ORACLE_CONFIGS[gates](m_grid=(1, 2, 7, 12), n_sequences=4, master_seed=3, variant=variant)
        channels = [random_lossy_channel(2, 0.3, 100 + g) for g in range(len(cfg.gateset))]
        stack = np.stack(
            [transfer_matrix([u @ k for k in ch.kraus]) for u, ch in zip(cfg.gateset.gates, channels)]
        )
        words, lengths, running = _draw_words(cfg)
        if variant == "rb":
            _fold_inverses(cfg.gateset.group, words, lengths, running)
        states = _evolve(stack, words, running, cfg.rho0_coordinates)
        reference = np.array(
            [coordinates(evolve_sequence(cfg, words[:m, t], channels).matrix) for t, m in enumerate(lengths)]
        )
        assert np.abs(states - reference).max() <= 1e-12
        # The stack matters: the config's own noise gives other states.
        shared = _evolve(cfg.transfers, words, running, cfg.rho0_coordinates)
        assert np.abs(states - shared).max() > 1e-3


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
                noise=random_lossy_channel(2, 0.4, seed),
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
            noise=random_lossy_channel(2, 0.3, 5),
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


class TestExactRbAverage:
    @pytest.mark.parametrize("gates, max_m", [("pauli", 3), ("clifford", 2)])
    def test_matches_brute_force_enumeration(self, gates, max_m):
        cfg = ORACLE_CONFIGS[gates](variant="rb")
        for m in range(1, max_m + 1):
            words = itertools.product(range(len(cfg.gateset)), repeat=m)
            brute = np.mean([execute_sequence(cfg, word) for word in words])
            assert abs(exact_rb_average(cfg, m) - brute) <= 1e-12


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
            (dict(m_values=(1, 2, 1000001)), "m_values lengths must be at most 1000000$"),
            (dict(m_values=(1, 2, 10**400)), "m_values lengths must be at most 1000000$"),
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
            "unsorted", "zero-length", "float-length", "empty", "long-length", "huge-length",
            "inf-mean", "negative-sem",
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

    @pytest.mark.parametrize(
        "m_values, message",
        [
            ((5, 10**5000, 3), "must be strictly increasing positive: entry 2 is not above entry 1"),
            ((-10**5000, 1, 2), "must be strictly increasing positive: entry 0 is below 1"),
            (range(10**6, 0, -1), "must be strictly increasing positive: entry 1 is not above entry 0"),
            ([1, 2, 3.0] + [4.0] * 10**5, "entries must be integers: entry 2 is not"),
        ],
        ids=["past-the-digit-limit", "below-one-past-the-digit-limit", "long-decreasing", "long-float"],
    )
    def test_length_messages_name_the_entry_not_its_value(self, m_values, message):
        # Integers of more than 4300 digits cannot be turned into a string,
        # and a million-entry grid would make a message megabytes long.
        n = len(m_values)
        with pytest.raises(ValueError, match=f"^m_values {message}$") as caught:
            lb.DecayDataset(m_values, np.full(n, 0.5), np.full(n, 0.1), 30, None)
        assert len(str(caught.value)) < 200

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
            (
                "1,0.5,0.1,3,exact\n2,0.4,0.1,3,exact\n1000001,0.3,0.1,3,exact\n",
                "bad.csv:4: sequence length must be at most 1000000, got 1000001$",
            ),
            (
                f"1,0.5,0.1,3,exact\n2,0.4,0.1,3,exact\n{10**400},0.3,0.1,3,exact\n",
                f"bad.csv:4: sequence length must be at most 1000000, got {10**400}$",
            ),
            ("1,0.5,0.1,3,exact\n1,0.4,0.1,3,exact\n", "bad.csv:3: .* strictly increasing"),
            ("2,0.5,0.1,3,exact\n1,0.4,0.1,3,exact\n", "bad.csv:3: .* strictly increasing"),
            ("1,0.5,inf,3,exact\n", "bad.csv:2: sem must be NaN or finite and >= 0"),
            ("1,0.5,0.1,3,exact\n2,0.4,-0.01,3,exact\n", "bad.csv:3: sem must be NaN or finite"),
            ("1,0.5,0.1,0,exact\n", "bad.csv:2: n_sequences must be an integer >= 1"),
            ("1,0.5,0.1,-3,exact\n", "bad.csv:2: n_sequences must be an integer >= 1"),
            ("1,0.5,0.1,3,0\n", "bad.csv:2: shots must be an integer >= 1"),
            ("1,0.5,0.1,3,-7\n", "bad.csv:2: shots must be an integer >= 1"),
            # The first row's quoted mean spans lines 2 and 3.
            ('1,"0.9\n",0.01,5,exact\n2,nan,0.01,5,exact\n', "bad.csv:4: mean must be finite"),
        ],
        ids=[
            "nan-mean", "inf-mean-row-3", "zero-length", "negative-length", "long-length",
            "huge-length", "repeated-length",
            "decreasing-length", "inf-sem", "negative-sem-row-3", "zero-sequences",
            "negative-sequences", "zero-shots", "negative-shots", "nan-mean-after-quoted-newline",
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

    def test_field_over_the_csv_limit_names_line(self, tmp_path):
        # The csv module refuses fields over 131072 characters with csv.Error.
        path = tmp_path / "big.csv"
        path.write_text(
            "m,mean,sem,n_sequences,shots\n1,0.9,0.01,5,exact\n2," + "1" * 131073 + ",0.01,5,exact\n"
        )
        with pytest.raises(ValueError) as info:
            lb.read_decay_csv(path)
        assert str(info.value) == f"{path}:3: field larger than field limit (131072)"
