"""Acceptance gate: one test per shipping criterion.

Each test records a single PASS/FAIL line (shown in the terminal summary)
and then asserts, so a red run names exactly the criterion that broke and
the measured values behind it.
"""

import json
import subprocess
import sys
from importlib import resources
from time import perf_counter

import numpy as np

import lossbench as lb
from conftest import record_criterion
from support import (
    depolarizing_channel,
    enumerate_average,
    exact_b_minus_a,
    random_density,
    random_lossy_channel,
    random_povm,
)


def bundled_config(name):
    return resources.files("lossbench").joinpath("configs", name).read_text()


def verdict(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    record_criterion(line)
    return line


def test_criterion_1_loss_rate_recovered_from_bundled_run():
    t0 = perf_counter()
    rc = lb.parse_config(bundled_config("fig1.config"))
    ds = lb.run_protocol(rc.protocol)
    fit = lb.fit_loss_decay(ds)
    elapsed = perf_counter() - t0

    d_hat = fit.B0_hat / fit.S_hat
    in_window = 0.988 <= fit.S_hat <= 0.992
    within_error = abs(fit.S_hat - 0.99005) <= 3 * fit.stderr_S
    detector_ok = abs(d_hat - 0.910) <= 0.02
    fast_enough = elapsed < 10.0
    ok = in_window and within_error and detector_ok and fast_enough
    line = verdict(
        1,
        ok,
        f"S_hat={fit.S_hat:.7f}+/-{fit.stderr_S:.2e}, D_hat={d_hat:.5f}, "
        f"{elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_2_sequence_average_identities():
    t0 = perf_counter()
    pauli = lb.pauli_gateset()
    worst = 0.0
    for i in range(20):
        channel = random_lossy_channel(2, 0.4, 100 + i)
        rho = random_density(2, 200 + i)
        q = random_povm(2, 300 + i)
        cfg = lb.ProtocolConfig(
            gateset=pauli,
            noise=channel,
            rho0=rho,
            q_op=q,
            m_grid=(1,),
            n_sequences=1,
            master_seed=0,
        )
        d_q = lb.average_response(q)
        s_rho = lb.state_survival(channel, rho)
        s_avg = lb.average_survival(channel)
        for m in range(1, 7):
            brute = enumerate_average(pauli, channel, rho, q, m)
            composed = lb.exact_sequence_average(cfg, m)
            formula = d_q * s_rho * rho.trace * s_avg ** (m - 1)
            worst = max(worst, abs(brute - composed), abs(brute - formula))
    elapsed = perf_counter() - t0

    ok = worst <= 1e-12 and elapsed < 30.0
    line = verdict(
        2, ok, f"worst deviation {worst:.2e} over 20 triples x m<=6, {elapsed:.1f}s"
    )
    assert ok, line


def test_criterion_3_worst_case_bound_and_its_saturation():
    min_slack = np.inf
    for dim in (2, 3, 4):
        for seed in range(1000):
            report = lb.prop1_check(random_lossy_channel(dim, 0.7, seed))
            min_slack = min(min_slack, report.slack)
            assert report.satisfied, f"dim={dim} seed={seed}: {report}"

    worst_saturation_gap = 0.0
    for alpha in np.linspace(0.05, 0.95, 10):
        ch = lb.basis_loss_channel(alpha=float(alpha), level=0, dim=2)
        report = lb.prop1_check(ch)
        worst_saturation_gap = max(worst_saturation_gap, abs(report.slack))

    ok = min_slack >= -1e-10 and worst_saturation_gap <= 1e-12
    line = verdict(
        3,
        ok,
        f"min slack {min_slack:.2e} over 3000 random channels, "
        f"max saturation gap {worst_saturation_gap:.2e}",
    )
    assert ok, line


def test_criterion_4_fit_uncertainty_coverage():
    m_grid = np.arange(5, 101, 5)
    hits = 0
    for i in range(100):
        s_true = (0.90, 0.99, 0.999)[i % 3]
        rng = lb.stream(4000, i)
        y = 0.91 * s_true ** (m_grid - 1.0) + rng.normal(0.0, 0.002, size=m_grid.size)
        ds = lb.DecayDataset(
            m_values=tuple(int(m) for m in m_grid),
            means=y,
            sems=np.full(m_grid.size, 0.002),
            n_sequences=30,
            shots=None,
        )
        fit = lb.fit_loss_decay(ds)
        if abs(fit.S_hat - s_true) <= 3 * fit.stderr_S:
            hits += 1

    ok = hits >= 95
    line = verdict(4, ok, f"{hits}/100 synthetic fits within 3 stderr of truth")
    assert ok, line


def test_criterion_5_benchmarking_agrees_with_loss_protocol():
    channel = depolarizing_channel(0.02)
    rho0 = lb.basis_state(2, 0)
    q_proj = lb.MeasurementOperator(np.diag([1.0, 0.0]))
    clifford = lb.clifford_gateset()

    rb_cfg = lb.ProtocolConfig(
        gateset=clifford,
        noise=channel,
        rho0=rho0,
        q_op=q_proj,
        m_grid=tuple(range(2, 61, 2)),
        n_sequences=30,
        master_seed=9,
        variant="rb",
    )
    rb_fit = lb.fit_rb_decay(lb.run_protocol(rb_cfg))

    m1_cfg = lb.ProtocolConfig(
        gateset=clifford,
        noise=channel,
        rho0=rho0,
        q_op=q_proj,
        m_grid=(1,),
        n_sequences=300,
        master_seed=13,
        variant="loss",
    )
    m1_ds = lb.run_protocol(m1_cfg)
    report = lb.markovianity_tests(rb_fit, (m1_ds.means[0], m1_ds.sems[0]))

    p_ok = abs(rb_fit.p_hat - 0.98) <= 1e-4
    offset_ok = report.b_minus_a >= -3.0 * report.b_minus_a_sigma
    intercept_ok = abs(report.b_minus_m1) <= 3.0 * report.b_minus_m1_sigma
    ok = p_ok and offset_ok and intercept_ok and report.flags == ()
    line = verdict(
        5,
        ok,
        f"p_hat={rb_fit.p_hat:.6f}, B-A={report.b_minus_a:.6f} "
        f"(exact {exact_b_minus_a(channel, rho0, q_proj):.6f}), "
        f"|B-m1|={abs(report.b_minus_m1):.2e}, flags={list(report.flags)}",
    )
    assert ok, line


def test_criterion_6_plateau_detection_on_bundled_configs():
    flagged = {}
    for name in ("fig2", "fig1"):
        rc = lb.parse_config(bundled_config(f"{name}.config"))
        ds = lb.run_protocol(rc.protocol)
        fit = lb.fit_loss_decay(ds)
        flagged[name] = lb.plateau_test(ds, fit).flagged

    ok = flagged["fig2"] is True and flagged["fig1"] is False
    line = verdict(
        6, ok, f"fig2 flagged={flagged['fig2']}, fig1 flagged={flagged['fig1']}"
    )
    assert ok, line


def test_criterion_7_reruns_are_byte_identical(tmp_path):
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "lossbench", *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    identical = True
    compared = []
    for name in ("saturation", "fig1"):
        dirs = [tmp_path / f"{name}-{i}" for i in (1, 2)]
        for out in dirs:
            cli("simulate", name, "--out", str(out))
            cli("fit", str(out / "decay.csv"), "--out", str(out))
        for artifact in ("decay.csv", "metadata.json", "fit.json"):
            same = (dirs[0] / artifact).read_bytes() == (dirs[1] / artifact).read_bytes()
            identical = identical and same
            compared.append(f"{name}/{artifact}: {'same' if same else 'DIFFERS'}")

    line = verdict(
        7,
        identical,
        "byte-identical across reruns" if identical else "; ".join(compared),
    )
    assert identical, line
