"""Command-line front end.

Subcommands:
  simulate       run a config, write decay.csv and metadata.json
  fit            fit a decay.csv, write fit.json, print a summary line
  check-channel  print the worst-vs-average loss bound report for a config's noise

Exit codes: 0 when the pipeline ran (fit warnings and flags are data, not
failures), 1 for usage or config errors, 2 for I/O errors.

Each command imports the modules it runs, inside its function: every call
is a fresh process, so ``fit`` does not pay for the config, noise and gate
modules, nor ``simulate`` for the analysis.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from importlib import resources

from . import __version__

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2

# ``lossbench fit --model``: the analysis function that fits it and its
# parameters, rate first; fit.json holds ``{k}_hat`` and ``{k}_stderr`` for
# each parameter k.
_MODELS = {"loss": ("fit_loss_decay", ("S", "B0")), "rb": ("fit_rb_decay", ("p", "A", "B"))}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(code: int, message: str) -> int:
    print(f"lossbench: error: {message}", file=sys.stderr)
    return code


def _load_config_text(name: str) -> str:
    """Read a config from the filesystem as UTF-8, falling back to bundled configs."""
    from .protocol import _read_utf8

    if os.path.isfile(name):
        return _read_utf8(name)
    if os.sep not in name and "/" not in name:
        for candidate in (name, name + ".config"):
            ref = resources.files("lossbench").joinpath("configs", candidate)
            if ref.is_file():
                return ref.read_text(encoding="utf-8")
    raise FileNotFoundError(f"config not found: {name}")


def _parse_run_config(args):
    from .config import ConfigError, parse_config

    name = args.config
    try:
        text = _load_config_text(name)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(_fail(EXIT_USAGE, str(exc))) from None
    except OSError as exc:
        raise SystemExit(_fail(EXIT_IO, f"cannot read {name}: {exc}")) from None
    try:
        return parse_config(text, seed_override=args.seed)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"lossbench: config error: {line}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _write_text(path: str, content: str) -> None:
    with open(path, "w") as fh:
        fh.write(content)


def _json_dumps(obj) -> str:
    """``obj`` as RFC 8259 JSON: each non-finite float, which json writes as
    NaN or Infinity, is read back as ``null``."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(strict, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _cmd_simulate(args) -> int:
    from .protocol import run_protocol

    rc = _parse_run_config(args)
    out_dir = args.out or rc.output_dir or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot create {out_dir}: {exc}")

    ds = run_protocol(rc.protocol)
    metadata = {
        **ds.metadata,
        "tool": "lossbench",
        "version": __version__,
        "gateset": rc.gateset_name,
        "noise_type": rc.noise_type,
        "resolved_theta": rc.resolved_theta,
    }
    csv_path = os.path.join(out_dir, "decay.csv")
    meta_path = os.path.join(out_dir, "metadata.json")
    try:
        ds.to_csv(csv_path)
        _write_text(meta_path, _json_dumps(metadata))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write outputs: {exc}")
    print(f"wrote {csv_path} ({len(ds.m_values)} rows) and {meta_path}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    from . import analysis
    from .protocol import read_decay_csv

    try:
        ds = read_decay_csv(args.csv)
    except FileNotFoundError:
        return _fail(EXIT_USAGE, f"CSV not found: {args.csv}")
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {args.csv}: {exc}")

    fit_name, names = _MODELS[args.model]
    try:
        fit = getattr(analysis, fit_name)(ds)
        report = {k: getattr(fit, k) for k in ("chi2_per_dof", "converged", "n_iterations")}
        for k in names:
            report[f"{k}_hat"] = getattr(fit, f"{k}_hat")
            report[f"{k}_stderr"] = getattr(fit, f"stderr_{k}")
        if args.model == "loss":
            plateau = None
            if len(ds.m_values) >= analysis.PLATEAU_MIN_LENGTHS:
                plateau = analysis.plateau_test(ds, fit)
            report["flags"] = [analysis.FLAG_PLATEAU] if plateau and plateau.flagged else []
            report["plateau"] = None if plateau is None else asdict(plateau)
        else:
            report["flags"] = list(analysis.markovianity_tests(fit).flags)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    out_dir = args.out or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_text(os.path.join(out_dir, "fit.json"), _json_dumps(report))
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot write fit.json: {exc}")
    rate = names[0]
    print(
        f"{rate}_hat = {report[f'{rate}_hat']:.6f} +/- {report[f'{rate}_stderr']:.6f} "
        f"(chi2/dof = {fit.chi2_per_dof:.3f})"
    )
    return EXIT_OK


def _cmd_check_channel(args) -> int:
    from .analysis import prop1_check

    rc = _parse_run_config(args)
    report = prop1_check(rc.protocol.noise)
    print(_json_dumps({"dim": rc.protocol.noise.dim, **asdict(report)}), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lossbench",
        description="Randomized-sequence loss-rate characterization toolkit.",
    )
    parser.add_argument("--version", action="version", version=f"lossbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a config and write decay.csv")
    sim.add_argument("config", help="config path or bundled config name")
    sim.add_argument("--seed", type=int, help="override the config's master seed")
    sim.add_argument("--out", metavar="DIR", help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit a decay.csv and write fit.json")
    fit.add_argument("csv", help="dataset produced by simulate")
    fit.add_argument("--model", choices=tuple(_MODELS), default="loss")
    fit.add_argument("--out", metavar="DIR", help="output directory")
    fit.set_defaults(func=_cmd_fit)

    chk = sub.add_parser("check-channel", help="report the loss bound for a config's noise")
    chk.add_argument("config", help="config path or bundled config name")
    chk.add_argument("--seed", type=int, help="override the config's master seed")
    chk.set_defaults(func=_cmd_check_channel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
