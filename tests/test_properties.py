"""Property tests: the config parser's error contract and its errors adding up
over independent faults, the CSV round trip, the CSV reader against a
row-by-row reference on mutated files, the loss bound and the real transfer
matrix on random channels and stacks of Kraus sets, the Hermiticity and
unitarity checks on NaN and huge entries, a gate set's measured design order
under phases, common unitaries and reordering, and the decay fits' global minimum
and their independence of the unit of the sems and of the means."""

import copy
import json
import math
import warnings

import numpy as np
import pytest

import lossbench as lb
from lossbench import analysis
from lossbench.core import (
    ARITHMETIC_ATOL,
    coordinates,
    hermitian_basis,
    hermitian_part,
    transfer_matrix,
)
from support import _apply_kraus, apply_channel, reference_read_decay_csv

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


def _json_values():
    # Huge integers reach every field, m_grid's too: the grid's length limit
    # is checked before any grid is built.
    words = ["random", "exact", "loss", "leakage", "kraus", "pauli", "zero"]
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**400), max_value=10**400),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=8),
        st.sampled_from(words + [10**400, -(10**400)]),
    )
    keys = st.sampled_from(["type", "matrix", "start", "stop", "x"])
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=3),
        max_leaves=12,
    )


@st.composite
def _corrupted_docs(draw):
    """A valid document with one key or list entry, at any depth, set to a drawn value."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(_json_values())
    return doc


def _with_m_grid(grid):
    doc = copy.deepcopy(VALID_DOCS[0])
    doc["protocol"]["m_grid"] = grid
    return doc


# Both grid forms with a length past any machine size run every time:
# random draws seldom set a range's stop.  So does a seed past Python's
# 4300-digit integer conversion limit, given as text: json.dumps cannot write it.
@hypothesis.example(doc=_with_m_grid({"start": 1, "stop": 10**400, "step": 1}))
@hypothesis.example(doc=_with_m_grid([1, 2, 10**400]))
@hypothesis.example(
    doc=json.dumps({**VALID_DOCS[0], "seed": 0}).replace('"seed": 0', '"seed": ' + "7" * 5001)
)
@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(doc=_corrupted_docs())
def test_parse_config_raises_only_config_error(doc):
    try:
        lb.parse_config(doc if isinstance(doc, str) else json.dumps(doc))
    except lb.ConfigError:
        pass


_FAULT_BASE = {
    "gateset": "pauli",
    "noise": {"type": "kraus", "operators": [_UNIT]},
    "state": {"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
    "detector": {"eigenvalues": [0.9, 0.5], "basis": _UNIT},
    "protocol": {"m_grid": [1, 2], "n_sequences": 2, "shots": 10, "variant": "loss"},
    "seed": 1,
}

# (path, value): each sets one field of _FAULT_BASE, or adds one key, and no
# two touch the same field, so any subset can be applied together.
FIELD_FAULTS = (
    (("gateset",), "haar"),
    (("seed",), -1),
    (("output_dir",), 3),
    (("noise", "x"), 1),
    (("noise", "operators", 0), [[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
    (("state", "matrix"), _UNIT),  # trace 2
    (("state", "x"), 1),
    (("detector", "eigenvalues", 1), 2),
    (("detector", "basis"), [[[1.0, 0.0]]]),
    (("protocol", "m_grid"), [0, 2]),
    (("protocol", "n_sequences"), 0),
    (("protocol", "shots"), -1),
    (("protocol", "variant"), "x"),
)


def _config_errors(faults) -> set:
    """The messages of _FAULT_BASE with the given FIELD_FAULTS applied (empty if it parses)."""
    doc = copy.deepcopy(_FAULT_BASE)
    for i in faults:
        path, value = FIELD_FAULTS[i]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(value)
    try:
        lb.parse_config(json.dumps(doc))
    except lb.ConfigError as exc:
        return set(exc.errors)
    return set()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(faults=st.sets(st.sampled_from(range(len(FIELD_FAULTS)))))
def test_config_faults_add_up(faults):
    alone = [_config_errors([i]) for i in faults]
    assert all(alone)
    assert _config_errors(faults) == set().union(*alone)


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def dataset_fields(draw):
    """DecayDataset arguments: valid, or with one field drawn from a wider
    range (any lengths or floats, any means or sems, counts below 1 or
    fractional) that is often invalid."""
    lengths = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=12, unique=True))
    n = len(lengths)
    sems = st.one_of(st.just(float("nan")), st.floats(min_value=0.0, allow_infinity=False))
    fields = dict(
        m_values=tuple(sorted(lengths)),
        means=draw(st.lists(finite, min_size=n, max_size=n)),
        sems=draw(st.lists(sems, min_size=n, max_size=n)),
        n_sequences=draw(st.integers(1, 10**6)),
        shots=draw(st.one_of(st.none(), st.integers(1, 10**6))),
    )
    flaw = draw(st.sampled_from([None, "m_values", "means", "sems", "n_sequences", "shots"]))
    if flaw == "m_values":
        entries = st.one_of(
            st.integers(-2, 10**6), st.integers(10**6 + 1, 10**401), st.floats(0.5, 10.0)
        )
        fields[flaw] = tuple(draw(st.lists(entries, min_size=n, max_size=n)))
    elif flaw in ("means", "sems"):
        fields[flaw][draw(st.integers(0, n - 1))] = draw(st.floats())
    elif flaw is not None:
        fields[flaw] = draw(st.one_of(st.integers(-3, 0), st.floats(0.5, 10.0**6)))
    return fields


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(fields=dataset_fields())
def test_csv_round_trip_is_exact(fields, tmp_path_factory):
    # Construction raises, or what to_csv writes reads back exactly.
    try:
        ds = lb.DecayDataset(**fields)
    except ValueError:
        return
    path = tmp_path_factory.mktemp("csv") / "decay.csv"
    ds.to_csv(path)
    back = lb.read_decay_csv(path)
    assert back.m_values == ds.m_values
    assert back.means.tobytes() == ds.means.tobytes()
    nan = np.isnan(ds.sems)
    assert np.array_equal(np.isnan(back.sems), nan)
    assert back.sems[~nan].tobytes() == ds.sems[~nan].tobytes()
    assert (back.n_sequences, back.shots) == (ds.n_sequences, ds.shots)


_MUTATIONS = (
    "drop", "extra", "token", "value", "length", "blank", "spelling", "float-spelling", "quote",
    "no-rows",
)
# Spellings of a finite mean or sem that Python's float reads: underscores,
# white space, Arabic-Indic and fullwidth digits.
_FINITE_SPELLINGS = ("0_0.0_5", " 0.25 ", "\t0.5", "\u0660.\u0660\u0665", "\uff10.\uff15", "1e-1_0")
# Infinities, which it reads too, and a doubled underscore, which it refuses.
_FLOAT_SPELLINGS = (*_FINITE_SPELLINGS, "infinity", "-Infinity", "1__0")


@st.composite
def decay_csv_texts(draw):
    """The text of a decay CSV: valid rows, then up to four mutations (a field
    dropped or added, a non-numeric token, nan, inf or -1 in a column, a
    repeated, lower or too long length, a blank line, another spelling of a
    count or of a mean or sem, a quoted field, no data rows)."""
    lengths = sorted(draw(st.lists(st.integers(1, 10**4), min_size=1, max_size=6, unique=True)))
    shots = draw(st.sampled_from(["exact", "200"]))
    rows = [
        [str(m), repr(draw(st.floats(-1.0, 1.0))), repr(draw(st.floats(0.0, 0.1))), "5", shots]
        for m in lengths
    ]
    for mutation in draw(st.lists(st.sampled_from(_MUTATIONS), max_size=4)):
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        if mutation == "no-rows":
            rows = []
        if mutation == "blank":
            rows.insert(i, [])
        if not rows or not rows[i]:
            continue
        row = rows[i]
        j = draw(st.integers(0, len(row) - 1))
        if mutation == "drop":
            del row[j]
        elif mutation == "extra":
            row.insert(draw(st.integers(0, len(row))), "1")
        elif mutation == "token":
            row[j] = draw(st.sampled_from(["x", "", "1e", "0x10", "1.5", "exact"]))
        elif mutation == "value":
            row[j] = draw(st.sampled_from(["nan", "inf", "-inf", "-1", "-1.0"]))
        elif mutation == "length":
            before = rows[i - 1][0] if i and rows[i - 1] else "1"
            row[0] = draw(st.sampled_from([before, str(lengths[0] - 1), "0", "1000001", "9" * 401]))
        elif mutation == "spelling":
            # The count columns are the last two while the row has 5 fields.
            row[-draw(st.sampled_from([1, 2]))] = draw(
                st.sampled_from(["05", "+5", " 5", "5.0", "0200", "200", "exact"])
            )
        elif mutation == "float-spelling":
            row[draw(st.sampled_from([1, 2])) % len(row)] = draw(st.sampled_from(_FLOAT_SPELLINGS))
        elif mutation == "quote":
            row[j] = f'"{row[j]}"'
    return "m,mean,sem,n_sequences,shots\n" + "".join(",".join(r) + "\n" for r in rows)


def _read_outcome(read, path):
    """The dataset's fields as bytes, or the ValueError's message."""
    try:
        ds = read(path)
    except ValueError as exc:
        return str(exc)
    return ds.m_values, ds.means.tobytes(), ds.sems.tobytes(), ds.n_sequences, ds.shots, ds.metadata


def _spelt_csv(means: tuple) -> str:
    rows = [f"{m},{mean},0_0.01,5,exact\n" for m, mean in enumerate(means, 1)]
    return "m,mean,sem,n_sequences,shots\n" + "".join(rows)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(text=decay_csv_texts())
# Every accepted spelling in one file, which the bulk path reads; a refused one.
@hypothesis.example(text=_spelt_csv(_FINITE_SPELLINGS))
@hypothesis.example(text=_spelt_csv(("0.5", "1__0")))
def test_csv_reader_equals_the_row_scan(text, tmp_path_factory):
    # The same dataset bytes, or the same path:line: message, as a reader
    # that checks one row at a time.
    path = tmp_path_factory.mktemp("csv") / "decay.csv"
    path.write_text(text, encoding="utf-8")
    assert _read_outcome(lb.read_decay_csv, path) == _read_outcome(reference_read_decay_csv, path)


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
    return lb.QuantumChannel(tuple(kraus * np.sqrt(survival / top)))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(channel=lossy_channels())
def test_loss_bound_holds_on_random_channels(channel):
    report = lb.prop1_check(channel)
    assert report.satisfied
    assert report.slack >= -ARITHMETIC_ATOL
    assert -1e-12 <= report.complement_survival <= 1.0 + 1e-12


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(channel=lossy_channels(), data=st.data())
def test_transfer_matrix_is_real_and_acts_as_the_channel(channel, data):
    dim = channel.dim
    # The definition, entry by entry: T[a, b] = Tr(E_a K(E_b)), before the
    # imaginary rounding residue is dropped.
    basis = hermitian_basis(dim)
    images = [_apply_kraus(channel.kraus, e) for e in basis]
    complex_t = np.array([[np.trace(e @ image) for image in images] for e in basis])
    assert np.max(np.abs(complex_t.imag)) <= 1e-15
    t = transfer_matrix(channel.kraus)
    assert t.dtype == np.float64
    assert np.max(np.abs(t - complex_t.real)) <= 1e-15
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    parts = np.array(data.draw(st.lists(entries, min_size=2 * dim * dim, max_size=2 * dim * dim)))
    rho = lb.DensityMatrix(hermitian_part((parts[0::2] + 1j * parts[1::2]).reshape(dim, dim)))
    image = coordinates(apply_channel(channel, rho).matrix)
    assert np.max(np.abs(t @ coordinates(rho.matrix) - image)) <= 1e-13


def _protocol_with_state(matrix):
    dim = len(matrix)
    return lb.ProtocolConfig(
        gateset=lb.GateSet((np.eye(dim),), ("I",)),
        noise=lb.QuantumChannel((np.eye(dim),)),
        rho0=lb.DensityMatrix(matrix),
        q_op=lb.MeasurementOperator(np.eye(dim)),
        m_grid=(1,),
        n_sequences=1,
        master_seed=0,
    )


def _raise_on_violation(matrix):
    violations = lb.validate_state(lb.DensityMatrix(matrix))
    if violations:
        raise ValueError(violations[0])


# Each matrix check, with a valid d x d input for it.
_MATRIX_CHECKS = {
    "GateSet": (lambda m: lb.GateSet((m,), ("U",)), np.eye),
    "QuantumChannel": (lambda m: lb.QuantumChannel((m,)), np.eye),
    "MeasurementOperator": (lambda m: lb.MeasurementOperator(m), np.eye),
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


@st.composite
def transformed_gate_sets(draw):
    """(set, the same set with a global phase per gate, V U W for common unitaries V and W,
    and its gates reordered): Pauli or Clifford, or a subset, each maybe embedded."""
    base = draw(st.sampled_from([lb.pauli_gateset, lb.clifford_gateset]))()
    if draw(st.booleans()):
        keep = sorted(draw(st.sets(st.integers(0, len(base) - 1), min_size=1)))
        base = lb.GateSet(tuple(base.gates[i] for i in keep), tuple(base.labels[i] for i in keep))
    if draw(st.booleans()):
        base = lb.embed_gateset(base, draw(st.floats(-math.pi, math.pi)))
    seeds = st.integers(0, 2**32 - 1)
    left, right = (lb.random_orthonormal_basis(base.dim, draw(seeds)) for _ in range(2))
    phases = st.floats(-math.pi, math.pi)
    order = draw(st.permutations(range(len(base))))
    gates = tuple(np.exp(1j * draw(phases)) * left @ base.gates[i] @ right for i in order)
    return base, lb.GateSet(gates, tuple(base.labels[i] for i in order))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(case=transformed_gate_sets())
def test_design_order_ignores_phases_common_unitaries_and_order(case):
    base, transformed = case
    assert transformed.design_order == base.design_order


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
    the amplitudes at each rate from the weighted normal equations in closed form."""
    low, high = analysis.RATE_BOUNDS
    t = -np.geomspace(-np.log(low), -np.log(high), points)
    m = np.array(ds.m_values, dtype=float)
    w = 1.0 / ds.sems
    b = w * ds.means
    if model == "loss":
        a = np.exp(np.outer(t, m - 1.0)) * w
    else:
        # The 2x2 system: projecting the constant column w out of the data
        # and of the rate column leaves a 1x1 system for the rate column.
        unit = w / np.sqrt(w @ w)
        a = np.expm1(np.outer(t, m)) * w
        a -= np.outer(a @ unit, unit)
        b = b - (b @ unit) * unit
    amplitude = (a @ b) / np.einsum("ij,ij->i", a, a)
    res = b - amplitude[:, None] * a
    return float(np.einsum("ij,ij->i", res, res).min())


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


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(case=decaying_datasets(), k=st.integers(-1000, 1000), unit=st.booleans())
def test_fits_do_not_depend_on_the_unit_of_the_means(case, k, unit):
    # Scaling every mean and sem by 2^k changes the data's unit: the rates,
    # convergence and evaluation count must not move, the amplitudes must
    # scale by 2^k exactly, and the stderrs and chi2/dof by their own factor
    # (chi2/dof by 2^2k under unit weights, which take zero sems).
    model, ds = case
    sems = np.zeros_like(ds.sems) if unit else ds.sems
    means = np.ldexp(ds.means, k)
    # Only data that scale exactly: no mean or sem rounded to a subnormal.
    hypothesis.assume((np.ldexp(means, -k) == ds.means).all())
    hypothesis.assume((np.ldexp(np.ldexp(sems, k), -k) == sems).all())
    fit = lb.fit_loss_decay if model == "loss" else lb.fit_rb_decay
    base = fit(lb.DecayDataset(ds.m_values, ds.means, sems, 30, None))
    scaled = fit(lb.DecayDataset(ds.m_values, means, np.ldexp(sems, k), 30, None))
    for name, value in vars(base).items():
        if name in ("converged", "n_iterations", "S_hat", "p_hat"):
            assert getattr(scaled, name) == value, name
        elif name.endswith("_hat"):
            assert getattr(scaled, name) == math.ldexp(value, k), name
        else:
            # A rate's stderr keeps its unit, and so does chi2/dof under absolute weights.
            shift = {"stderr_S": 0, "stderr_p": 0, "chi2_per_dof": 2 * k * unit}.get(name, k)
            with np.errstate(over="ignore"):
                expected = float(np.ldexp(value, shift))
            # Two subnormal steps of slack: a chi2/dof below the normal range is rounded twice.
            tol = dict(rel_tol=1e-9, abs_tol=2 * math.ulp(0.0))
            assert math.isclose(getattr(scaled, name), expected, **tol), name
    if model == "rb":
        assert lb.markovianity_tests(scaled).flags == lb.markovianity_tests(base).flags
