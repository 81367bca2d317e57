"""Property tests: the config parser's error contract and the CSV round trip."""

import copy
import json

import numpy as np
import pytest

import lossbench as lb

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
