"""Property tests: the config parser's error contract, the CSV round trip, the
loss bound and the real transfer matrix on random channels and stacks of
Kraus sets, the Hermiticity and unitarity checks on NaN and huge entries, the
decay fits' global minimum and their independence of the unit of the sems,
and the batched stream seeding against numpy's."""

import copy
import json
import math
import warnings

import numpy as np
import pytest

import lossbench as lb
from lossbench import analysis
from lossbench.core import (
    bit_generator,
    coordinates,
    hermitian_basis,
    hermitian_part,
    seed_states,
    transfer_matrix,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_UNIT = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
_ZERO = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

VALID_DOCS = (
    {
        "gateset": "pauli",
        "noise": {"type": "loss", "alpha": 0.99, "level": 1},
        "state": "zero",
        "detector": {"eigenvalues": [0.87, 0.95], "basis_seed": 7},
        "protocol": {"m_grid": [1, 2, 3], "n_sequences": 4, "shots": 10},
        "seed": 42,
        "output_dir": "runs",
    },
    {
        "gateset": "clifford",
        "noise": {"type": "leakage", "epsilon": 0.1, "theta": "random", "hamiltonian_seed": 5},
        "state": {"matrix": [[[0.5, 0.0], [0.0, 0.5]], [[0.0, -0.5], [0.5, 0.0]]]},
        "detector": {"eigenvalues": [0.3, 0.6], "basis": _UNIT},
        "protocol": {
            "m_grid": {"start": 5, "stop": 20, "step": 5},
            "n_sequences": 2,
            "variant": "rb",
        },
        "seed": 3,
    },
    {
        "gateset": "pauli",
        "noise": {"type": "kraus", "operators": [_UNIT, _ZERO]},
        "state": "maximally_mixed",
        "detector": {"eigenvalues": [1.0, 0.5], "basis_seed": 0},
        "protocol": {"m_grid": [1, 4], "n_sequences": 1, "shots": "exact"},
        "seed": 0,
    },
)


def _paths(node, prefix=()):
    """Every key and list position under node, parents before children."""
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _json_values(huge_ints: bool):
    # m_grid fields stay at 1e4 or below so that no draw builds a huge grid.
    bound = 10**400 if huge_ints else 10**4
    words = ["random", "exact", "loss", "leakage", "kraus", "pauli", "zero"]
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-bound, max_value=bound),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=8),
        st.sampled_from(words + ([10**400, -(10**400)] if huge_ints else [])),
    )
    keys = st.sampled_from(["type", "matrix", "start", "stop", "x"])
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=3),
        max_leaves=12,
    )


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(data=st.data())
def test_parse_config_raises_only_config_error(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(VALID_DOCS)))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(_json_values(huge_ints="m_grid" not in path))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        lb.parse_config(json.dumps(doc))
    except lb.ConfigError:
        pass


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    lengths = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=12, unique=True))
    n = len(lengths)
    sems = st.one_of(st.just(float("nan")), st.floats(min_value=0.0, allow_infinity=False))
    return lb.DecayDataset(
        m_values=tuple(sorted(lengths)),
        means=np.array(draw(st.lists(finite, min_size=n, max_size=n))),
        sems=np.array(draw(st.lists(sems, min_size=n, max_size=n))),
        n_sequences=draw(st.integers(1, 10**6)),
        shots=draw(st.one_of(st.none(), st.integers(1, 10**6))),
    )


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(ds=datasets())
def test_csv_round_trip_is_exact(ds, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "decay.csv"
    ds.to_csv(path)
    back = lb.read_decay_csv(path)
    assert back.m_values == ds.m_values
    assert back.means.tobytes() == ds.means.tobytes()
    nan = np.isnan(ds.sems)
    assert np.array_equal(np.isnan(back.sems), nan)
    assert back.sems[~nan].tobytes() == ds.sems[~nan].tobytes()
    assert (back.n_sequences, back.shots) == (ds.n_sequences, ds.shots)


@st.composite
def lossy_channels(draw):
    """Random Kraus operators scaled so that the largest eigenvalue of sum K^H K
    is a drawn survival in (0, 1], often exactly 1 (the saturating edge)."""
    dim = draw(st.sampled_from([2, 3]))
    n_ops = draw(st.integers(1, 4))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    parts = np.array(draw(st.lists(entries, min_size=2 * n_ops * dim * dim, max_size=2 * n_ops * dim * dim)))
    kraus = (parts[0::2] + 1j * parts[1::2]).reshape(n_ops, dim, dim)
    top = float(np.linalg.eigvalsh(np.einsum("kji,kjl->il", kraus.conj(), kraus))[-1])
    hypothesis.assume(top > 1e-6)
    survival = draw(st.one_of(st.just(1.0), st.floats(0.01, 1.0)))
    return lb.QuantumChannel(dim, tuple(kraus * np.sqrt(survival / top)))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(channel=lossy_channels())
def test_loss_bound_holds_on_random_channels(channel):
    report = lb.prop1_check(channel)
    assert report.satisfied
    assert report.slack >= -analysis.BOUND_ATOL
    assert -1e-12 <= report.complement_survival <= 1.0 + 1e-12


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(channel=lossy_channels(), data=st.data())
def test_transfer_matrix_is_real_and_acts_as_the_channel(channel, data):
    dim = channel.dim
    # B has rows conj(vec(E_a)); B L B^H is the transfer matrix before its
    # imaginary rounding residue is dropped.
    b = hermitian_basis(dim).conj().reshape(dim * dim, dim * dim)
    liouville = sum(np.kron(k, k.conj()) for k in channel.kraus)
    complex_t = b @ liouville @ b.conj().T
    assert np.max(np.abs(complex_t.imag)) <= 1e-15
    t = transfer_matrix(channel.kraus)
    assert t.dtype == np.float64
    assert np.max(np.abs(t - complex_t.real)) <= 1e-15
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    parts = np.array(data.draw(st.lists(entries, min_size=2 * dim * dim, max_size=2 * dim * dim)))
    rho = lb.DensityMatrix(dim, hermitian_part((parts[0::2] + 1j * parts[1::2]).reshape(dim, dim)))
    image = coordinates(lb.apply_channel(channel, rho).matrix)
    assert np.max(np.abs(t @ coordinates(rho.matrix) - image)) <= 1e-13


def _protocol_with_state(matrix):
    dim = len(matrix)
    return lb.ProtocolConfig(
        gateset=lb.GateSet(dim, (np.eye(dim),), 0, ("I",)),
        noise=lb.QuantumChannel(dim, (np.eye(dim),)),
        rho0=lb.DensityMatrix(dim, matrix),
        q_op=lb.MeasurementOperator(dim, np.eye(dim)),
        m_grid=(1,),
        n_sequences=1,
        master_seed=0,
    )


def _raise_on_violation(matrix):
    violations = lb.validate_state(lb.DensityMatrix(len(matrix), matrix))
    if violations:
        raise ValueError(violations[0].message)


# Each matrix check, with a valid d x d input for it.
_MATRIX_CHECKS = {
    "GateSet": (lambda m: lb.GateSet(len(m), (m,), 0, ("U",)), np.eye),
    "QuantumChannel": (lambda m: lb.QuantumChannel(len(m), (m,)), np.eye),
    "MeasurementOperator": (lambda m: lb.MeasurementOperator(len(m), m), np.eye),
    "detector_model": (lambda m: lb.detector_model((0.5,) * len(m), basis=m), np.eye),
    "ProtocolConfig": (_protocol_with_state, lambda d: np.eye(d) / d),
    "validate_state": (_raise_on_violation, lambda d: np.eye(d) / d),
}


@st.composite
def perturbed_inputs(draw, values):
    """(check, valid input with the real or imaginary part of one entry drawn from ``values``)."""
    check, valid = _MATRIX_CHECKS[draw(st.sampled_from(sorted(_MATRIX_CHECKS)))]
    dim = draw(st.integers(1, 3))
    matrix = valid(dim).astype(np.complex128)
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    x = draw(values)
    z = matrix[i, j]
    matrix[i, j] = complex(x, z.imag) if draw(st.booleans()) else complex(z.real, x)
    return check, matrix


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(case=perturbed_inputs(st.just(math.nan)))
def test_a_nan_entry_fails_every_matrix_check(case):
    check, matrix = case
    with pytest.raises(ValueError):
        check(matrix)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(case=perturbed_inputs(st.floats(-1.7e308, 1.7e308)))
def test_finite_entries_never_overflow_a_matrix_check(case):
    check, matrix = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            check(matrix)
        except ValueError:
            pass


@st.composite
def kraus_stacks(draw):
    """Complex (..., n_kraus, d, d) arrays with leading axes (), (G,) or (a, b)."""
    dim = draw(st.integers(1, 4))
    n_kraus = draw(st.integers(1, 5))
    lead = draw(
        st.one_of(
            st.just(()),
            st.tuples(st.integers(1, 29)),
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (*lead, n_kraus, dim, dim)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(kraus=kraus_stacks())
def test_transfer_matrix_of_a_stack_is_the_per_set_matrices(kraus):
    dd = kraus.shape[-1] ** 2
    t = transfer_matrix(kraus)
    assert t.shape == (*kraus.shape[:-3], dd, dd)
    assert t.dtype == np.float64 and t.flags.c_contiguous
    sets = kraus.reshape(-1, *kraus.shape[-3:])
    assert t.tobytes() == np.stack([transfer_matrix(k) for k in sets]).tobytes()


_LOSS_GRID = np.arange(5.0, 151.0, 5.0)
_RB_GRID = np.array([1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64], dtype=float)


@st.composite
def decaying_datasets(draw):
    """(model, dataset) with Gaussian noise of the stated sems around a decay."""
    model = draw(st.sampled_from(["loss", "rb"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if model == "loss":
        m = _LOSS_GRID
        curve = draw(st.floats(0.3, 1.0)) * draw(st.floats(0.8, 0.999)) ** (m - 1.0)
    else:
        m = _RB_GRID
        amplitude = draw(st.floats(0.1, 0.5)) * draw(st.sampled_from([-1.0, 1.0]))
        curve = amplitude * draw(st.floats(0.6, 0.99)) ** m + draw(st.floats(0.3, 0.6))
    sems = draw(st.floats(1e-3, 1e-2)) * rng.uniform(0.5, 1.5, size=m.size)
    means = curve + sems * rng.normal(size=m.size)
    return model, lb.DecayDataset(tuple(int(v) for v in m), means, sems, 30, None)


def scanned_cost(model, ds, points=10_000):
    """Smallest weighted sum of squares over a dense scan of rates in RATE_BOUNDS,
    the amplitudes at each rate from batched weighted normal equations."""
    low, high = analysis.RATE_BOUNDS
    t = -np.geomspace(-np.log(low), -np.log(high), points)
    m = np.array(ds.m_values, dtype=float)
    w = 1.0 / ds.sems
    if model == "loss":
        columns = [np.exp(np.outer(t, m - 1.0))]
    else:
        columns = [np.expm1(np.outer(t, m)), np.ones((points, m.size))]
    a = np.stack(columns, axis=-1) * w[:, None]
    b = w * ds.means
    at = a.transpose(0, 2, 1)
    amplitudes = np.linalg.solve(at @ a, (at @ b)[..., None])
    res = b - (a @ amplitudes)[..., 0]
    return float((res * res).sum(axis=1).min())


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(case=decaying_datasets())
def test_fit_reaches_the_global_minimum(case):
    model, ds = case
    if model == "loss":
        fit, n_params = lb.fit_loss_decay(ds), 2
    else:
        fit, n_params = lb.fit_rb_decay(ds), 3
    assert fit.converged
    cost = fit.chi2_per_dof * (len(ds.m_values) - n_params)
    assert cost <= scanned_cost(model, ds) * (1.0 + 1e-12)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(case=decaying_datasets(), k=st.integers(-900, 60))
def test_fits_do_not_depend_on_the_unit_of_the_sems(case, k):
    # Scaling every sem by 2^k scales every weight by 2^-2k exactly: the
    # estimates must not move and the stderrs must scale by 2^k.
    model, ds = case
    fit = lb.fit_loss_decay if model == "loss" else lb.fit_rb_decay
    base = fit(ds)
    scaled = fit(lb.DecayDataset(ds.m_values, ds.means, np.ldexp(ds.sems, k), 30, None))
    for name, value in vars(base).items():
        if name.startswith("stderr_"):
            assert getattr(scaled, name) == np.ldexp(value, k), name
        elif name.endswith("_hat") or name in ("converged", "n_iterations"):
            assert getattr(scaled, name) == value, name


# Key words drawn anywhere in uint32, with both ends often.
_KEY_WORDS = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


@st.composite
def key_arrays(draw):
    """(rows, width) uint32 key arrays, 1 to 8 words wide: narrower than,
    as wide as and wider than SeedSequence's pool of 4 words."""
    rows = draw(st.integers(1, 4))
    width = draw(st.integers(1, 8))
    words = draw(st.lists(_KEY_WORDS, min_size=rows * width, max_size=rows * width))
    return np.array(words, dtype=np.uint32).reshape(rows, width)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(keys=key_arrays(), k=st.integers(1, 9))
def test_seed_states_are_numpy_seed_sequence_states(keys, k):
    states = seed_states(keys)
    assert states.dtype == np.uint64 and states.shape == (len(keys), 4)
    for row, state in zip(keys, states):
        assert np.array_equal(state, np.random.SeedSequence(row).generate_state(4, np.uint64))
        reference = np.random.default_rng(row).bit_generator.random_raw(k)
        assert np.array_equal(bit_generator(state).random_raw(k), reference)
