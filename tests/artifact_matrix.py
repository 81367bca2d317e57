"""Write every artifact of a fixed matrix of lossbench runs, for diffing two trees.

Usage::

    PYTHONPATH=src python tests/artifact_matrix.py OUT_DIR

The runs go through the ``lossbench`` command line of whichever package is
on PYTHONPATH, so the same script serves any tree: two trees write
byte-identical artifacts exactly when ``diff -r`` of their OUT_DIRs is empty.

Seven configs (bundled fig1, fig2 and saturation; a Pauli and a Clifford
benchmarking config, each exact and with 100 shots) at master seeds 0, 7 and
2^32 + 3 make 21 runs.  Each run directory OUT_DIR/<config>-<seed> holds 7
files: decay.csv and metadata.json from ``simulate``, fit-loss/fit.json and
fit-rb/fit.json with the stdout of their ``fit`` (fit-loss.out,
fit-rb.out), and the stdout of ``check-channel`` (check-channel.out).

Five more runs fit fixed decay CSVs that reach fitter paths the simulations
do not (see CSVS).  Each directory OUT_DIR/csv-<name> holds decay.csv, and
per model fit-<model>/fit.json (when the fit ran) and fit-<model>.out with
the fit's stdout, its stderr and its exit status: 24 files, since the
three-length CSV is rejected by the benchmarking model.  171 files in all.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

SEEDS = (0, 7, 2**32 + 3)


def _pauli_rb(shots):
    return {
        "gateset": "pauli",
        "noise": {"type": "loss", "alpha": 0.99, "level": 1},
        "state": "zero",
        "detector": {"eigenvalues": [0.87, 0.95], "basis_seed": 7},
        "protocol": {
            "m_grid": {"start": 5, "stop": 100, "step": 5},
            "n_sequences": 30,
            "shots": shots,
            "variant": "rb",
        },
        "seed": 42,
    }


def _clifford_rb(shots):
    # A Pauli channel of weight 3% after a small coherent Z rotation: four
    # complex Kraus operators on the 24 Cliffords.
    rotation = np.diag(np.exp([-0.05j, 0.05j]))
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    weights = (0.01, 0.012, 0.008)
    kraus = [np.sqrt(1.0 - sum(weights)) * rotation]
    kraus += [np.sqrt(w) * s @ rotation for w, s in zip(weights, paulis)]
    pairs = [np.stack([k.real, k.imag], axis=-1).tolist() for k in kraus]
    return {
        "gateset": "clifford",
        "noise": {"type": "kraus", "operators": pairs},
        "state": "zero",
        "detector": {"eigenvalues": [0.98, 0.03], "basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]},
        "protocol": {
            "m_grid": [1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64],
            "n_sequences": 30,
            "shots": shots,
            "variant": "rb",
        },
        "seed": 42,
    }


GENERATED = {
    "pauli-rb-exact": _pauli_rb("exact"),
    "pauli-rb-shots": _pauli_rb(100),
    "clifford-rb-exact": _clifford_rb("exact"),
    "clifford-rb-shots": _clifford_rb(100),
}
BUNDLED = ("fig1", "fig2", "saturation")

_RB_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64)

# Fixed decay CSVs for fitter paths that no simulated run reaches, each fitted
# with both models: name -> (lengths, means, sems, n_sequences).
CSVS = {
    # Zero sems: unit weights and residual-scaled stderrs, plateau test included.
    "unit-weights": (
        tuple(range(1, 11)),
        (0.9031, 0.8599, 0.8157, 0.7687, 0.7289, 0.6966, 0.6642, 0.63, 0.6025, 0.5695),
        (0.0,) * 10,
        30,
    ),
    # A single sequence writes NaN sems: unit weights as well.
    "nan-sems": (
        tuple(range(5, 61, 5)),
        (0.7245, 0.5857, 0.4755, 0.3973, 0.3193, 0.2634,
         0.2066, 0.1712, 0.1359, 0.1119, 0.0974, 0.0705),
        (math.nan,) * 12,
        1,
    ),
    # A flat benchmarking curve whose fitted p is the upper bound of RATE_BOUNDS.
    "flat-rb-at-bound": (
        _RB_GRID,
        (0.4974, 0.4993, 0.5067, 0.5026, 0.4934, 0.5, 0.4975, 0.5006,
         0.4936, 0.501, 0.5009, 0.5063, 0.5013, 0.502, 0.494, 0.509),
        (0.004,) * 16,
        40,
    ),
    # The loss fit's minimum sits where B0 reaches its clip at 1e300; three
    # lengths are too few for the benchmarking model, which rejects the CSV.
    "clip-binding": ((60, 70, 80), (0.5, 0.0, 0.0), (0.05,) * 3, 30),
    # Subnormal sems: chi^2 beyond the float range, stderrs near 1e-310.
    "subnormal-sems": (
        tuple(range(10, 101, 10)),
        (0.6071, 0.4488, 0.3294, 0.2434, 0.1794, 0.1335, 0.0969, 0.0727, 0.0533, 0.0401),
        tuple(1e-310 * (1.0 + i / 10.0) for i in range(10)),
        30,
    ),
}


# The runs work inside OUT_DIR, so relative PYTHONPATH entries are resolved first.
_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ),
)


def _lossbench(args, cwd, stdout=None, stderr=None, check=True):
    return subprocess.run(
        [sys.executable, "-m", "lossbench", *args],
        cwd=cwd,
        env=_ENV,
        stdout=stdout,
        stderr=stderr,
        text=True,
        check=check,
    )


def _write_csv(path, lengths, means, sems, n_sequences):
    rows = ["m,mean,sem,n_sequences,shots"]
    rows += [f"{m},{y!r},{e!r},{n_sequences},exact" for m, y, e in zip(lengths, means, sems)]
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def _fit_csv(out_dir, run, model):
    """Fit OUT_DIR/run/decay.csv; record stdout, stderr and the exit status."""
    fit = ["fit", os.path.join(run, "decay.csv"), "--model", model]
    fit += ["--out", os.path.join(run, f"fit-{model}")]
    proc = _lossbench(fit, out_dir, subprocess.PIPE, subprocess.PIPE, check=False)
    with open(os.path.join(out_dir, run, f"fit-{model}.out"), "w") as fh:
        fh.write(f"{proc.stdout}{proc.stderr}exit {proc.returncode}\n")


def write_matrix(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        configs = {name: name for name in BUNDLED}
        for name, doc in GENERATED.items():
            configs[name] = os.path.join(tmp, name + ".config")
            with open(configs[name], "w") as fh:
                json.dump(doc, fh)
        for name, config in configs.items():
            for seed in SEEDS:
                run = f"{name}-{seed}"
                simulate = ["simulate", config, "--seed", str(seed), "--out", run]
                _lossbench(simulate, out_dir, subprocess.DEVNULL)
                for model in ("loss", "rb"):
                    fit = ["fit", os.path.join(run, "decay.csv"), "--model", model]
                    with open(os.path.join(out_dir, run, f"fit-{model}.out"), "w") as fh:
                        _lossbench(fit + ["--out", os.path.join(run, f"fit-{model}")], out_dir, fh)
                with open(os.path.join(out_dir, run, "check-channel.out"), "w") as fh:
                    _lossbench(["check-channel", config, "--seed", str(seed)], out_dir, fh)
    for name, csv in CSVS.items():
        run = f"csv-{name}"
        os.makedirs(os.path.join(out_dir, run), exist_ok=True)
        _write_csv(os.path.join(out_dir, run, "decay.csv"), *csv)
        for model in ("loss", "rb"):
            _fit_csv(out_dir, run, model)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    write_matrix(sys.argv[1])
