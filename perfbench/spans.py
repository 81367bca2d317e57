"""Spans and counts recorded around calls into lossbench's layers.

Everything here lives outside the package.  ``Tracer.install`` swaps each
traced public function for a timing wrapper in every loaded ``lossbench``
module that bound it (``from .x import f`` copies the reference, so the
defining module alone is not enough) and ``uninstall`` puts the originals
back.  Spans and counts stay in memory until ``dump`` writes them out.

``run_protocol`` does not expose where its time goes, so ``replay`` calls
the public RNG, sampling, inversion and shot functions itself over the
same ``(master_seed, m_index, seq_index, tag)`` keys the engine draws.
"""

import functools
import json
import os
import sys
import time
from collections import defaultdict


def gate_steps(cfg) -> int:
    """Noise-then-gate applications in one ``run_protocol`` call.

    The benchmarking variant appends one inversion step per sequence.
    """
    extra = 1 if cfg.variant == "rb" else 0
    return sum(m + extra for m in cfg.m_grid) * cfg.n_sequences


def _count_gate_steps(tracer, args, result):
    tracer.count("protocol.gate_steps", gate_steps(args[0]))


def _count_written_bytes(tracer, args, result):
    tracer.count("protocol.csv_bytes", os.path.getsize(args[1]))


def _count_read_bytes(tracer, args, result):
    tracer.count("protocol.csv_bytes", os.path.getsize(args[0]))


def _count_fit(tracer, args, result):
    tracer.count("analysis.fits", 1)
    tracer.count("analysis.nfev", result.n_iterations)
    tracer.count("analysis.converged", int(result.converged))


# (defining module, attribute, span name, counter called after the span)
TARGETS = (
    ("lossbench.config", "parse_config", "config.parse_config", None),
    ("lossbench.noise", "basis_loss_channel", "noise.build", None),
    ("lossbench.noise", "coherent_leakage_error", "noise.build", None),
    ("lossbench.noise", "detector_model", "noise.build", None),
    ("lossbench.protocol", "run_protocol", "protocol.run_protocol", _count_gate_steps),
    ("lossbench.protocol", "DecayDataset.to_csv", "protocol.to_csv", _count_written_bytes),
    ("lossbench.protocol", "read_decay_csv", "protocol.read_decay_csv", _count_read_bytes),
    ("lossbench.analysis", "fit_loss_decay", "analysis.fit_loss_decay", _count_fit),
    ("lossbench.analysis", "fit_rb_decay", "analysis.fit_rb_decay", _count_fit),
    ("lossbench.analysis", "plateau_test", "analysis.plateau_test", None),
    ("lossbench.analysis", "prop1_check", "analysis.prop1_check", None),
)


class Tracer:
    """One span per call into a layer: (request, id, parent, name, start, end)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.request = None
        self._stack = []
        self._restore = []

    def call(self, name, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self.request, span_id, parent, name, start, end)

    def count(self, name, value):
        self.counts[(self.request, name)] += value

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self):
        """Wrap every target whose defining module is loaded."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "lossbench" or key.startswith("lossbench."))
        ]
        for module_name, attr, name, counter in TARGETS:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[method]
                setattr(cls, method, self.wrap(name, orig, counter))
                self._restore.append((cls, method, orig))
                continue
            orig = getattr(home, attr)
            traced = self.wrap(name, orig, counter)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, traced)
                    self._restore.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def merge(self, path, request):
        """Add the spans and counts another process dumped, under ``request``."""
        with open(path) as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for _, span_id, parent, name, start, end in data["spans"]:
            self.spans.append((
                request,
                span_id + offset,
                None if parent is None else parent + offset,
                name,
                start,
                end,
            ))
        for _, name, value in data["counts"]:
            self.counts[(request, name)] += value

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": [[req, name, value] for (req, name), value in self.counts.items()],
                },
                fh,
            )

    def per_request(self):
        """{request: {name: total seconds, name + ".self": self seconds, count: value}}.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for request, span_id, _, name, start, end in self.spans:
            out[request][name] += end - start
            out[request][name + ".self"] += end - start - child_time[span_id]
        for (request, name), value in self.counts.items():
            out[request][name] += value
        return out


def replay(cfg):
    """Seconds in the engine's per-task RNG draws, inversions and shot draws,
    keyed by per-layer metric name, plus the ``core.streams`` count.

    Mirrors ``protocol._run_one`` call for call; the shot draw uses the
    initial state, since ``sample_clicks`` costs the same for any state.
    """
    from lossbench import core, gates, protocol

    clock = time.perf_counter
    t = defaultdict(float)
    rb = cfg.variant == protocol.VARIANT_RB
    for mi, m in enumerate(cfg.m_grid):
        for si in range(cfg.n_sequences):
            t0 = clock()
            rng = core.stream(cfg.master_seed, mi, si, protocol._GATE_DRAWS)
            t1 = clock()
            indices = protocol.sample_sequence(cfg.gateset, m, rng)
            t2 = clock()
            t["core.stream_s"] += t1 - t0
            t["protocol.sample_sequence_s"] += t2 - t1
            t["core.streams"] += 1
            if rb:
                gates.inverse_gate(cfg.gateset, indices)
                t["gates.inverse_gate_s"] += clock() - t2
            if cfg.shots is not None:
                t0 = clock()
                rng = core.stream(cfg.master_seed, mi, si, protocol._SHOT_DRAWS)
                t1 = clock()
                core.sample_clicks(cfg.q_op, cfg.rho0, cfg.shots, rng)
                t["core.stream_s"] += t1 - t0
                t["core.sample_clicks_s"] += clock() - t1
                t["core.streams"] += 1
    return dict(t)
