"""Run every workload once and print its metrics as a table.

  python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--json PATH]

One row per workload with every end-to-end metric, by name and unit:
setup_s, pass_s.p50, pass_s.tail (with its percentile and sample count),
gate_steps_per_s, fits_per_s, peak_rss_mb, and error_rate as failed over
attempted operations, after run.py has checked every pass.  ``--trace``
adds a traced run per workload and a per-layer table (metrics labelled
"replay" come from spans.replay).  ``--json`` also writes everything out.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("leak-qutrit", "rb-clifford", "fit-batch", "cli-cold")


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {out.returncode}\n{out.stderr}")
    *_, info_line, result_line = out.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", metavar="PATH")
    args = parser.parse_args(argv)

    collected = {}
    header = (
        f"{'workload':12} {'setup_s':>8} {'pass_s.p50':>10} {'pass_s.tail':>20} "
        f"{'gate_steps_per_s':>16} {'fits_per_s':>10} {'peak_rss_mb':>11} "
        f"{'error_rate':>16}  correct"
    )
    print("end to end, times in reference seconds (see run.py); wall-clock figures with --json")
    print("units: s, s, s, 1/s, 1/s, MB, failed/attempted")
    print(header)
    for workload in WORKLOADS:
        info, result = run(workload, args.seed, args.seconds, 0)
        collected[workload] = {"info": info, "end_to_end": result}
        m = {k: v["value"] for k, v in result["metrics"].items()}
        tail = f"{m['pass_s.tail']:.4f} p{info['tail_percentile']} n={info['passes']}"
        rate = f"{info['error_rate']:.3g} ({result['failed']}/{result['attempted']})"
        print(
            f"{workload:12} {m['setup_s']:8.4f} {m['pass_s.p50']:10.4f} {tail:>20} "
            f"{info['gate_steps_per_s']:16.1f} {m['fits_per_s']:10.2f} "
            f"{m['peak_rss_mb']:11.1f} {rate:>16}  {result['correct']}"
        )
        for failure in info["failures"]:
            print(f"  failed: {failure}")
        if info["notes"]:
            print(f"  notes: {json.dumps(info['notes'])}")
    print(f"machine: {json.dumps(info['machine'])}")

    if args.trace:
        layers = {}
        for workload in WORKLOADS:
            info, result = run(workload, args.seed, args.seconds, 1)
            collected[workload]["per_layer"] = result
            layers[workload] = result["metrics"]
        replayed = set(info["replayed"])
        print()
        print(f"{'per layer (traced run)':34} {'unit':6}" + "".join(f"{w:>13}" for w in WORKLOADS))
        for name, first in layers[WORKLOADS[0]].items():
            label = name + (" (replay)" if name in replayed else "")
            row = "".join(f"{layers[w][name]['value']:13.6g}" for w in WORKLOADS)
            print(f"{label:34} {first['unit']:6}{row}")

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(collected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
