"""lossbench benchmark: one run of one workload, result as the last stdout line.

Run from the root of a checkout (nothing needs building):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: leak-qutrit, rb-clifford, fit-batch, cli-cold (see workloads.py).
Inputs come from ``--seed`` only and are written under ``.perfbench/``.

--trace 0 times warm passes for S seconds, with no wrappers installed, and
reports the end-to-end metrics of BENCHMARK.json.  --trace 1 alternates
untraced and traced passes for S seconds and reports the per-layer metrics;
spans and counts are written to ``.perfbench/trace/``.  Both check every
pass's output and count each failed operation.

Times are reported in reference seconds.  On a shared host the CPU speed
can drift by a third within minutes (seen on a 2-vCPU Xeon VM), far more
than any bound a regression gate can use, so a fixed reference loop (``Reference``) is timed before the first
pass or set-up probe and after each one, and each pass or probe is scaled
by REF_NOMINAL_S / (mean of the two reference times beside it); rates use
the scaled times.  Per-layer times use the run's median reference time.
The reference runs no lossbench code, so a change to the program moves the
scaled figures as much as the wall times.  The wall-clock figures are in
the info line.

The line before the result is ``{"info": ...}``: sample count, tail
percentile, throughputs, wall-clock figures, failure messages, notes and
the machine.  ``report.py`` runs every workload and prints them as a table.
"""

import os

# Set before numpy loads; children inherit them.  run_protocol's n_workers
# is left unset, so load comes from this process and its children, one at
# a time.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")

SETUP_REPEATS = 4
REF_STEPS = 6000
REF_NOMINAL_S = 0.1
IMPORT_REPEATS = 3
REPLAY_REPEATS = 3
MIN_PASSES = 3

# Per-layer metrics whose values come from spans.replay, not from spans.
REPLAYED = (
    "core.stream_s",
    "core.streams",
    "protocol.sample_sequence_s",
    "gates.inverse_gate_s",
    "core.sample_clicks_s",
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def probe(args, env):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), *args],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def setup_seconds(wl, env, ref):
    """Median start-to-ready time of fresh processes, after one warm-up:
    (scaled, wall)."""
    scaled, wall = [], []
    before = ref.run()
    for i in range(SETUP_REPEATS + 1):
        start = time.monotonic()
        ready = probe(["setup", *wl.probe_args()], env)
        after = ref.run()
        if i:
            wall.append(ready - start)
            scaled.append(wall[-1] * ref.scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(wall)


def machine():
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            with open(os.path.join(base, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size")) as fh:
                caches[f"L{level}"] = fh.read().strip()
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "blas_threads": 1,
        "n_workers": None,
    }


class Reference:
    """A fixed loop of 3x3 complex products, timed between passes.

    It is the engine's kind of work (small numpy calls from a Python loop)
    without any lossbench code; its median time measures the host's speed
    during the run.
    """

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.gates = [
            numpy.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            for _ in range(4)
        ]
        self.kraus = numpy.sqrt(0.5) * numpy.eye(3, dtype=complex)
        self.times = []

    def run(self):
        start = time.perf_counter()
        k, x = self.kraus, numpy.eye(3, dtype=complex)
        for i in range(REF_STEPS):
            x = k @ x @ k.conj().T + k @ x @ k.conj().T
            u = self.gates[i & 3]
            x = u @ x @ u.conj().T
        self.times.append(time.perf_counter() - start)
        return self.times[-1]

    def scale(self, *times):
        """REF_NOMINAL_S over the mean of ``times``, or over the run's median."""
        return REF_NOMINAL_S / (sum(times) / len(times) if times else statistics.median(self.times))


class Runner:
    """Times passes and tallies attempted and failed operations."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None):
        wl = self.wl
        start = time.perf_counter()
        try:
            output = wl.run_pass(tracer)
        except Exception as exc:  # the whole pass failed
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"] * wl.ops_per_pass
        else:
            elapsed = time.perf_counter() - start
            problems = wl.check(output)
        self.attempted += wl.ops_per_pass
        self.failures += problems
        return elapsed


def tail(samples):
    """Highest integer percentile with at least ten samples beyond it.

    With fewer than 20 samples no percentile at or above the median has ten
    beyond it; the maximum is reported then, as percentile 100.
    """
    n = len(samples)
    if n < 20:
        return max(samples), 100
    pct = min(int(100.0 * (1.0 - 10.0 / n)), 99)
    return float(numpy.percentile(samples, pct)), pct


def untraced(wl, runner, seconds, ref):
    """Pass times after one warm-up pass: (scaled, wall)."""
    runner.one_pass()  # warm-up: caches and lazy imports
    scaled, wall = [], []
    before = ref.run()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(wall) < MIN_PASSES:
        wall.append(runner.one_pass())
        after = ref.run()
        scaled.append(wall[-1] * ref.scale(before, after))
        before = after
    return scaled, wall


def traced(wl, runner, seconds, env, ref):
    import spans

    tracer = spans.Tracer()
    for i in range(SETUP_REPEATS):
        tracer.request = f"setup{i}"
        tracer.install()
        try:
            wl.load()
        finally:
            tracer.uninstall()
    import_s = statistics.median(probe(["import-cli"], env) for _ in range(IMPORT_REPEATS))

    runner.one_pass()
    plain, timed = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(timed) < MIN_PASSES:
        # Alternate which side goes first, so drift favours neither.
        if len(timed) % 2:
            plain.append(runner.one_pass())
        tracer.request = len(timed)
        if wl.in_process:
            tracer.install()
        try:
            timed.append(runner.one_pass(tracer))
        finally:
            tracer.uninstall()
        if len(timed) % 2:
            plain.append(runner.one_pass())
        ref.run()

    replays = [{}]
    if wl.cfg is not None:
        replays = [spans.replay(wl.cfg) for _ in range(REPLAY_REPEATS)]

    os.makedirs(os.path.join(ROOT, ".perfbench", "trace"), exist_ok=True)
    tracer.dump(os.path.join(ROOT, ".perfbench", "trace", f"{wl.name}-{wl.seed}.json"))

    by_request = tracer.per_request()
    passes = [by_request[i] for i in range(len(timed))]
    setups = [by_request[f"setup{i}"] for i in range(SETUP_REPEATS)]

    def per_pass(name, rows=passes):
        return statistics.median(row.get(name, 0.0) for row in rows)

    def config_layer(name):
        # parse_config runs inside a pass only on cli-cold; elsewhere it is
        # set-up work.
        return per_pass(name) or per_pass(name, setups)

    steps = per_pass("protocol.gate_steps")
    run_s = per_pass("protocol.run_protocol")
    fits = per_pass("analysis.fits")
    metrics = {
        "cli.import_s": import_s,
        "cli.simulate_self_s": per_pass("cli.simulate.self"),
        "cli.fit_self_s": per_pass("cli.fit.self"),
        "config.parse_config_s": config_layer("config.parse_config"),
        "noise.build_s": config_layer("noise.build"),
        "protocol.run_protocol_s": run_s,
        "protocol.gate_steps": steps,
        "protocol.us_per_gate_step": 1e6 * run_s / steps if steps else 0.0,
        "protocol.to_csv_s": per_pass("protocol.to_csv"),
        "protocol.read_decay_csv_s": per_pass("protocol.read_decay_csv"),
        "protocol.csv_bytes": per_pass("protocol.csv_bytes"),
        "analysis.fit_loss_decay_s": per_pass("analysis.fit_loss_decay"),
        "analysis.fit_rb_decay_s": per_pass("analysis.fit_rb_decay"),
        "analysis.nfev": per_pass("analysis.nfev"),
        "analysis.converged_frac": per_pass("analysis.converged") / fits if fits else 0.0,
        "analysis.plateau_test_s": per_pass("analysis.plateau_test"),
        "analysis.prop1_check_s": per_pass("analysis.prop1_check"),
    }
    for name in REPLAYED:
        metrics[name] = statistics.median(r.get(name, 0.0) for r in replays)
    base = statistics.median(plain)
    metrics["trace.overhead_frac"] = (statistics.median(timed) - base) / base
    info = {"traced_passes": len(timed), "untraced_passes": len(plain), "replayed": list(REPLAYED)}
    return metrics, info


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lossbench", "__init__.py")):
        print(f"run.py: no lossbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("run.py: --seed must be nonnegative", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench", "work", f"{args.workload}-{args.seed}")
    os.makedirs(work, exist_ok=True)
    env = child_env()
    wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed, env)
    runner = Runner(wl)
    ref = Reference()
    info = {"workload": wl.name, "seed": args.seed, "machine": machine()}

    if args.trace:
        wl.load()
        metrics, extra = traced(wl, runner, args.seconds, env, ref)
        info.update(extra)
    else:
        setup_s, setup_wall = setup_seconds(wl, env, ref)
        wl.load()
        samples, wall = untraced(wl, runner, args.seconds, ref)
        if wl.in_process:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            peak_rss_mb = wl.peak_rss_mb
        tail_s, tail_pct = tail(samples)
        metrics = {
            "setup_s": setup_s,
            "pass_s.p50": statistics.median(samples),
            "pass_s.tail": tail_s,
            "fits_per_s": wl.fits_per_pass * len(samples) / sum(samples),
            "peak_rss_mb": peak_rss_mb,
        }
        info.update(
            {
                "passes": len(samples),
                "tail_percentile": tail_pct,
                "gate_steps_per_pass": wl.gate_steps_per_pass,
                "gate_steps_per_s": wl.gate_steps_per_pass * len(samples) / sum(samples),
                "wall": {
                    "setup_s": setup_wall,
                    "pass_s.p50": statistics.median(wall),
                    "pass_s.tail": tail(wall)[0],
                    "gate_steps_per_s": wl.gate_steps_per_pass * len(wall) / sum(wall),
                    "fits_per_s": wl.fits_per_pass * len(wall) / sum(wall),
                },
            }
        )

    section = spec()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        info["wall"] = dict(metrics)
        for m in section:
            if m["unit"] in ("s", "us"):
                metrics[m["name"]] *= ref.scale()
    failed = len(runner.failures)
    info.update(
        {
            "reference_scale": ref.scale(),
            "reference_runs": len(ref.times),
            "attempted": runner.attempted,
            "failed": failed,
            "error_rate": failed / runner.attempted,
            "failures": runner.failures[:10],
            "notes": wl.notes,
            "k_sigma": workloads.K_SIGMA,
        }
    )
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
