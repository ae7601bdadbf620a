"""Probes run in a fresh interpreter under a 2 GB address-space limit.

Each probe runs the CLI or a short program in a subprocess, with
``RLIMIT_AS`` set before it starts and every numpy RuntimeWarning an error.
A table sized from outside input must be refused before it is allocated,
and the long simulator and network calls must finish or be refused within
their time limit.
"""

import json
import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# the address space each probe may map: 2,000,000 KiB
LIMIT_BYTES = 2_000_000 * 1024


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def _run(args, timeout=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_limit_address_space,
    )


def _cli(*args, timeout=None):
    return _run(["-m", "cyclemax.cli", *map(str, args)], timeout)


def _program(code, timeout=None):
    return _run(["-c", textwrap.dedent(code)], timeout)


def _spec(tmp_path, name, lam, psi, **extra):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"lambda": lam, "mu": 1.0, "psi": psi, "phi": psi, **extra}))
    return path


MM1 = {"kind": "preset", "name": "mm1"}
MMINF = {"kind": "preset", "name": "mminf"}


def _refused(proc, code, error):
    assert proc.returncode == code, proc.stderr
    assert any(line.startswith(f"ERROR {error}") for line in proc.stderr.splitlines()), proc.stderr


@pytest.mark.parametrize(
    "command, spec",
    [
        (("cdf", "--nmax", "1000000000"), "half"),
        (("simulate", "--nmax", "1000000000"), "half"),
        (("network-reduce", "--nmax", "1000000000"), "net"),
        (("classify",), "cap"),
        (("cdf",), "cap"),
    ],
    ids=["cdf-nmax", "simulate-nmax", "network-reduce-nmax", "classify-cap", "cdf-cap"],
)
def test_a_table_past_the_level_ceiling_is_refused_before_it_is_allocated(tmp_path, command, spec):
    paths = {
        "half": ("--spec", _spec(tmp_path, "half", 0.5, MM1)),
        "cap": ("--spec", _spec(tmp_path, "cap", 0.5, MM1, cap=1_000_000_000)),
    }
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "mu0": 0.5,
        "stations": [{"kind": "ss", "mu": 1.0}, {"kind": "ss", "mu": 1.0}],
        "routing": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    }))
    paths["net"] = ("--in", net)
    _refused(_cli(command[0], *paths[spec], *command[1:]), 1, "NotApplicableError")


def test_a_record_of_one_cycle_is_refused_as_input(tmp_path):
    # b_1 = 0, so a record of one cycle has no ratio law
    _refused(_cli("simulate", "--spec", _spec(tmp_path, "half", 0.5, MM1), "--k", "1"), 2, "ValueError")


@pytest.mark.parametrize("table", ["tail", "compactness"])
@pytest.mark.parametrize("lam", ["1e-20", "1e300"])
def test_extreme_queues_answer_in_logs(tmp_path, lam, table):
    # a survival that underflows within the compactness grid (lambda 1e-20) and
    # a finite mass that 1 - b* rounds to 0 (lambda 1e300): no warning, exit 0
    spec = _spec(tmp_path, "mm1", float(lam), MM1)
    if table == "tail":
        proc = _cli("tail", "--spec", spec)
    else:
        proc = _cli("extremes", "--table", "compactness", "--format", "json", "--spec", spec)
    assert proc.returncode == 0, proc.stderr


def test_the_tail_function_reaches_heavy_traffic_and_factorial_knee_targets():
    # the heavy-traffic knots (51,200 levels) are the weight table alone, at 8 bytes a
    # level: the call peaks below 1.5 MiB and grows no cumulative table of the law
    proc = _program("""
        import math
        import tracemalloc
        from cyclemax import gumbel_bounds, mm1, mminf, norming_constants
        heavy = mm1(0.999, 1)
        tracemalloc.start()
        gb = gumbel_bounds(heavy, 0, 10**15)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.5 * 2**20, peak
        assert heavy._law_tables.log_S.size == 0
        for gb in (gb, gumbel_bounds(mminf(300, 1), 0, 1000)):
            assert math.isfinite(gb.y_lower) and math.isfinite(gb.y_upper), gb
        nc = norming_constants(mminf(800, 1), "Numeric", [1000])
        assert all(math.isfinite(v) for v in nc.a + nc.b), nc
    """)
    assert proc.returncode == 0, proc.stderr


def test_the_norming_table_refuses_a_root_past_the_level_ceiling(tmp_path):
    # lambda = 1 - 1e-12 lies in the critical band, where the default kind is Numeric
    spec = _spec(tmp_path, "heavy", 0.999999999999, MM1)
    _refused(_cli("extremes", "--table", "norming", "--spec", spec), 2, "OutOfRangeError")


@pytest.mark.parametrize("command", ["classify", "norming", "tail"])
def test_an_infinite_server_pool_whose_terms_rise_past_the_first_sum_answers(tmp_path, command):
    # the series terms of mminf(2e4) still rise at 10^4: summed on by doubling
    spec = _spec(tmp_path, "mminf", 2e4, MMINF)
    if command == "norming":
        proc = _cli("extremes", "--table", "norming", "--spec", spec)
    else:
        proc = _cli(command, "--spec", spec)
    assert proc.returncode == 0, proc.stderr
    if command == "tail":  # probed past the peak of the terms, near its limit 1
        assert json.loads(proc.stdout)["empirical_value"] > 0.5


def test_an_infinite_server_pool_whose_terms_rise_past_the_budget_is_refused(tmp_path):
    proc = _cli("classify", "--spec", _spec(tmp_path, "mminf", 1e6, MMINF))
    _refused(proc, 1, "NotApplicableError")
    assert len(proc.stderr.splitlines()) == 1


def test_block_tables_grow_with_the_levels_reached_not_the_horizon():
    proc = _program("""
        from cyclemax import SimConfig, mminf, simulate_cycles
        assert simulate_cycles(mminf(2, 1), SimConfig(cycles=10**5, escape_horizon=1 << 20)).cycles == 10**5
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_chain_with_a_run_is_charged_one_jump_a_cycle():
    # each M/M/8 cycle is one uniform, so 4e5 of them fit the jump budget
    proc = _program("""
        import time
        from cyclemax import SimConfig, mms, simulate_cycles
        start = time.perf_counter()
        assert simulate_cycles(mms(8, 5.6, 1), SimConfig(cycles=4 * 10**5)).cycles == 4 * 10**5
        assert time.perf_counter() - start < 1.0
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_chain_with_a_run_reads_its_head_not_the_horizon():
    # at horizon 2^20 an M/M/3 call reads levels 0..2 of its weights, which
    # grow to their least table of 64 levels, and allocates little besides
    # its 10^5 maxima (0.8 MB)
    proc = _program("""
        import time
        import tracemalloc
        from cyclemax import SimConfig, mms, simulate_cycles
        spec = mms(3, 2.1, 1)
        tracemalloc.start()
        start = time.perf_counter()
        assert simulate_cycles(spec, SimConfig(cycles=10**5, escape_horizon=1 << 20)).cycles == 10**5
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert seconds < 1.0, seconds
        assert peak < 2 * 2**20, peak
        assert spec._law_tables.log_w.size <= 64, spec._law_tables.log_w.size
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_transient_walk_keeps_its_tables_within_the_cell_cap():
    proc = _program("""
        from cyclemax import BirthDeathSpec, SimConfig, TableSequence, simulate_cycles
        spec = BirthDeathSpec(TableSequence([1.0, 2.0], 1.0, poly_degree=2), TableSequence([1.0], 1.0), 1.5, 1.0)
        assert simulate_cycles(spec, SimConfig(cycles=50, escape_horizon=1 << 16)).cycles == 50
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "stations, mu0, cfg",
    [('Station("is", 1.0), Station("is", 1.0)', 20.0, "SimConfig(seed=1, cycles=10)"),
     ('Station("ss", 1.0), Station("ss", 1.0)', 1.5, "SimConfig(seed=1, cycles=1000, escape_horizon=10**5)")],
    ids=["infinite-server-tandem", "overloaded-tandem"],
)
def test_a_network_with_too_long_cycles_is_refused_by_its_charge(stations, mu0, cfg):
    proc = _program(f"""
        from cyclemax import NetworkSpec, SimConfig, Station, simulate_network_cycles
        from cyclemax.errors import NotApplicableError
        net = NetworkSpec({mu0}, ({stations}), ((0, 1, 0), (0, 0, 1), (1, 0, 0)))
        try:
            simulate_network_cycles(net, {cfg})
        except NotApplicableError as exc:
            print(exc)
        else:
            raise SystemExit("the network was not refused")
    """, timeout=10)
    assert proc.returncode == 0, proc.stderr


def test_network_cycles_past_the_event_table_finish_with_the_per_event_step():
    # 8 stations, totals above 7: past the event table's cell cap
    proc = _program("""
        import numpy as np
        from cyclemax import NetworkSpec, SimConfig, Station, simulate_network_cycles
        routing = np.eye(9, k=1)
        routing[8, 0] = 1.0
        net = NetworkSpec(0.5, (Station("ss", 1.0),) * 8, routing)
        sample = simulate_network_cycles(net, SimConfig(seed=1, cycles=2000))
        assert sample.cycles == 2000 and sample.maxima.max() > net._event_table.totals + 1
    """, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_critical_power_tail_reads_its_limit_from_the_record(tmp_path):
    # psi(n) = (n + 1)^2 to n = 63 and 64^2 (n / 63)^2 past it: S(inf) is summed
    # to one term past the table and closed with the record's Hurwitz sum
    table = {"kind": "table", "values": [(n + 1.0) ** 2 for n in range(64)], "tail_ratio": 1.0, "poly_degree": 2}
    spec = _spec(tmp_path, "power", 1.0, table)
    tail = _cli("tail", "--spec", spec)
    cdf = _cli("cdf", "--nmax", "1", "--format", "json", "--spec", spec)
    assert tail.returncode == 0 and cdf.returncode == 0, tail.stderr + cdf.stderr
    assert abs(json.loads(tail.stdout)["limit_constant"] - 0.60801733987711128) <= 1e-12
    assert abs(json.loads(cdf.stdout)["cdf"][0]["conditional_cdf"] - 0.51022665119242494) <= 1e-12


def test_declared_tails_just_outside_the_critical_band_answer_from_their_record(tmp_path):
    lam = 1.000001
    near = _spec(tmp_path, "near", lam, MM1)
    tail = _cli("tail", "--spec", near)
    cdf = _cli("cdf", "--nmax", "1", "--format", "json", "--spec", near)
    mms3 = {"kind": "preset", "name": "mms", "s": 3}
    verdict = _cli("classify", "--spec", _spec(tmp_path, "near-mms", 3.00003, mms3))
    for proc in (tail, cdf, verdict):
        assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(tail.stdout)["limit_constant"] - (1.0 - 1.0 / lam)) <= 1e-12
    assert abs(json.loads(cdf.stdout)["cdf"][0]["conditional_cdf"] - lam / (lam + 1.0)) <= 1e-12
    assert json.loads(verdict.stdout)["verdict"] == "Transient"
