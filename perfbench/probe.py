"""Fresh-process probes started by run.py; each prints one line and exits.

  probe.py setup MODULE config PATH SEED   import MODULE, then parse_config
  probe.py setup MODULE csvs DIR           import MODULE, then read every CSV
  probe.py import-cli                      seconds taken by `import lossbench.cli`
  probe.py cli TRACE_OUT ARGS...           run `lossbench ARGS` with spans on

``setup`` prints ``time.monotonic()`` at the moment the inputs are ready;
run.py subtracts the time it started the process, so interpreter start-up
is counted.  The imports are deferred so that nothing else is timed.
"""

import sys
import time


def _setup(module, kind, arg, seed=None):
    import importlib

    importlib.import_module(module)
    if kind == "config":
        from lossbench.config import parse_config

        with open(arg) as fh:
            parse_config(fh.read(), seed_override=int(seed))
    else:
        import os

        from lossbench.protocol import read_decay_csv

        for name in sorted(os.listdir(arg)):
            read_decay_csv(os.path.join(arg, name))
    return time.monotonic()


def _import_cli():
    start = time.perf_counter()
    import lossbench.cli  # noqa: F401

    return time.perf_counter() - start


def _traced_cli(trace_out, argv):
    import lossbench.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    main = tracer.wrap("cli." + argv[0].replace("-", "_"), lossbench.cli.main)
    try:
        return main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


def main(argv):
    mode = argv[0]
    if mode == "setup":
        print(repr(_setup(*argv[1:])))
        return 0
    if mode == "import-cli":
        print(repr(_import_cli()))
        return 0
    if mode == "cli":
        return _traced_cli(argv[1], argv[2:])
    print(f"probe.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
