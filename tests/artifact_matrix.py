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
"""

import json
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


# The runs work inside OUT_DIR, so relative PYTHONPATH entries are resolved first.
_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p
    ),
)


def _lossbench(args, cwd, stdout=None):
    subprocess.run(
        [sys.executable, "-m", "lossbench", *args], cwd=cwd, env=_ENV, stdout=stdout, check=True
    )


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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    write_matrix(sys.argv[1])
