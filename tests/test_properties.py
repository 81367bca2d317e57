"""Property tests: the config parser's error contract, the CSV round trip, the
loss bound on random channels and the decay fits' global minimum."""

import copy
import json

import numpy as np
import pytest

import lossbench as lb
from lossbench import analysis

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
