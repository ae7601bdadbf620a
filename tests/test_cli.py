import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cyclemax import (
    NetworkSpec,
    SimConfig,
    Station,
    Verdict,
    classify,
    load_spec,
    mm1,
    mminf,
    mms,
    norton_reduce,
    save_network,
    save_spec,
    simulate_cycles,
    spec_to_dict,
)
from cyclemax.cli import main


@pytest.fixture
def half_spec(tmp_path):
    path = tmp_path / "half.json"
    save_spec(mm1(0.5, 1.0, label="half"), path)
    return str(path)


@pytest.fixture
def pool_net(tmp_path):
    net = NetworkSpec(
        mu0=0.25,
        stations=(Station("ss", 1.0), Station("ms", 1.0, s=2), Station("is", 0.5)),
        routing=(
            (0.0, 0.5, 0.3, 0.2),
            (0.2, 0.1, 0.4, 0.3),
            (0.5, 0.2, 0.1, 0.2),
            (0.6, 0.2, 0.1, 0.1),
        ),
    )
    path = tmp_path / "net.json"
    save_network(net, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert all(len(r) == len(rows[0]) for r in rows)
    return rows


def test_classify_reports_regime(capsys, half_spec):
    code, out, _ = run(capsys, "classify", "--spec", half_spec)
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "half"
    assert doc["rho"] == 0.5
    assert doc["verdict"] == "PositiveRecurrent"
    assert doc["B_star"] == 0.0
    assert doc["beta"] == 1.0


def test_cdf_csv_table(capsys, half_spec):
    code, out, _ = run(capsys, "cdf", "--spec", half_spec, "--nmax", "5", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "cdf", "conditional_cdf", "failure_rate", "blocking_prob"]
    assert len(rows) == 6
    assert float(rows[1][1]) == pytest.approx(2.0 / 3.0)
    # each level's cdf value round-trips against the library
    for r in rows[1:]:
        n = int(r[0])
        assert float(r[1]) == pytest.approx(1.0 - 1.0 / (2.0 ** (n + 1) - 1.0), rel=1e-12)


def test_cdf_json_structure(capsys, half_spec):
    code, out, _ = run(capsys, "cdf", "--spec", half_spec, "--nmax", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc["cdf"]] == [1, 2, 3]
    assert doc["cdf"][0]["cdf"] == pytest.approx(2.0 / 3.0)


def test_tail_json_only(capsys, half_spec):
    code, out, _ = run(capsys, "tail", "--spec", half_spec)
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "Subcritical"
    assert doc["limit_constant"] == pytest.approx(0.5)

    code2, _, err = run(capsys, "tail", "--spec", half_spec, "--format", "csv")
    assert code2 == 2
    assert "ERROR" in err


def test_tail_takes_no_probe_depth(capsys, half_spec):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "tail", "--spec", half_spec, "--nmax", "400")
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["cdf", "simulate", "network-reduce"])
def test_table_commands_refuse_levels_past_the_table_ceiling(capsys, half_spec, pool_net, command):
    # 2^40 levels would ask numpy for 8 TiB before the first value is computed
    source = ["--in", pool_net] if command == "network-reduce" else ["--spec", half_spec]
    code, out, err = run(capsys, command, *source, "--nmax", str(1 << 40))
    assert code == 1
    assert out == ""
    assert err == (
        "ERROR NotApplicableError: --nmax 1099511627776 lies beyond the 1048576 levels a table may hold\n"
    )


@pytest.mark.parametrize("command", ["classify", "cdf"])
def test_commands_refuse_a_cap_past_the_table_ceiling(capsys, tmp_path, command):
    path = tmp_path / "cap.json"
    save_spec(mm1(0.5, 1.0, cap=10**9), path)
    code, out, err = run(capsys, command, "--spec", str(path))
    assert code == 1
    assert out == ""
    assert err == "ERROR NotApplicableError: cap 1000000000 lies beyond the 1048576 levels a table may hold\n"


def test_extremes_norming_table(capsys, half_spec):
    code, out, _ = run(capsys, "extremes", "--spec", half_spec, "--table", "norming", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["k", "a_k", "b_k"]
    assert float(rows[1][1]) == pytest.approx(1.0 / math.log(2.0))

    code2, out2, _ = run(capsys, "extremes", "--spec", half_spec, "--table", "norming", "--k", "100,1000", "--format", "json")
    doc = json.loads(out2)
    assert [row["k"] for row in doc["norming"]] == [100, 1000]


def test_extremes_envelope_and_compactness(capsys, half_spec):
    code, out, _ = run(capsys, "extremes", "--spec", half_spec, "--table", "envelope", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["x", "lower", "upper"]
    assert all(float(r[1]) <= float(r[2]) for r in rows[1:])

    code2, out2, _ = run(capsys, "extremes", "--spec", half_spec, "--table", "compactness", "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["verdict"] == "Compact"


def test_simulate_against_exact(capsys, half_spec):
    code, out, _ = run(capsys, "simulate", "--spec", half_spec, "--reps", "4000", "--seed", "7", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["n", "empirical_cdf", "exact_cdf", "abs_err"]
    assert all(float(r[3]) < 0.05 for r in rows[1:])


def test_simulate_of_a_recurrent_chain_divides_by_the_returned_cycles(capsys, half_spec):
    code, out, err = run(capsys, "simulate", "--spec", half_spec, "--reps", "4000", "--seed", "7")
    assert code == 0 and err == ""
    maxima = np.sort(simulate_cycles(mm1(0.5, 1.0), SimConfig(seed=7, cycles=4000)).maxima)
    emp = np.searchsorted(maxima, np.arange(1, 21), side="right") / len(maxima)
    assert [r[1] for r in parse_csv(out)[1:]] == [str(x) for x in emp.tolist()]


def test_simulate_counts_escapes_above_every_level(capsys, tmp_path):
    # pytest turns every RuntimeWarning into an error (pyproject.toml)
    path = tmp_path / "up.json"
    save_spec(mm1(2.0, 1.0), path)
    code, out, err = run(capsys, "simulate", "--spec", str(path), "--reps", "20000", "--seed", "1", "--nmax", "4")
    assert code == 0 and "escaped" in err
    for n, emp, exact, _ in parse_csv(out)[1:]:
        f = float(exact)  # the unconditional law: half the cycles escape
        assert abs(float(emp) - f) <= 3.0 * math.sqrt(f * (1.0 - f) / 20000)


def test_simulate_where_every_cycle_escapes(capsys, tmp_path):
    path = tmp_path / "away.json"
    save_spec(mm1(1000.0, 1.0), path)
    code, out, err = run(capsys, "simulate", "--spec", str(path), "--reps", "5", "--seed", "1", "--nmax", "1200")
    assert code == 0 and "5 of 5 cycles escaped" in err
    rows = parse_csv(out)[1:]
    assert [int(r[0]) for r in rows] == list(range(1, 1000))  # no row at or past the horizon
    assert all(float(r[1]) == 0.0 for r in rows) and "nan" not in out


def test_simulate_k_max_table(capsys, half_spec):
    code, out, _ = run(capsys, "simulate", "--spec", half_spec, "--k", "1000", "--reps", "200", "--seed", "1", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert rows[0] == ["k", "mean_ratio", "median_ratio", "q05", "q95"]
    assert 0.8 < float(rows[1][1]) < 1.2


def test_simulate_refuses_a_single_cycle_record(capsys, half_spec):
    # b_1 = log 1 / log 2 = 0, so Y^(1) / b_1 has no law to summarise
    code, out, err = run(capsys, "simulate", "--spec", half_spec, "--k", "1")
    assert code == 2 and out == ""
    assert err.splitlines() == ["ERROR ValueError: k must be an integer of at least 2, got 1"]


def test_network_reduce_round_trips(capsys, pool_net, tmp_path):
    out_path = tmp_path / "induced.json"
    code, out, err = run(capsys, "network-reduce", "--in", pool_net, "--nmax", "120", "--out", str(out_path))
    assert code == 0
    induced = load_spec(out_path)
    assert induced.lam == 0.25
    assert induced.mu == 1.0


def test_network_reduce_keeps_the_tail_of_tied_loads(capsys, tmp_path):
    # two unit single servers in tandem: loads 2 and 2, so the reduction
    # carries an N^1 tail, which the file keeps as poly_degree
    net = NetworkSpec(
        mu0=0.5,
        stations=(Station("ss", 1.0), Station("ss", 1.0)),
        routing=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    )
    path = tmp_path / "tandem.json"
    save_network(net, path)
    out_path = tmp_path / "induced.json"
    code, out, err = run(capsys, "network-reduce", "--in", str(path), "--nmax", "400", "--out", str(out_path))
    assert code == 0 and err == ""
    assert json.loads(out_path.read_text())["psi"]["poly_degree"] == 1
    induced = load_spec(out_path)
    assert induced == norton_reduce(net, 400).induced
    code, out, err = run(capsys, "extremes", "--spec", str(out_path), "--table", "norming", "--k", "1000,1000000")
    assert code == 0 and err == ""
    rows = parse_csv(out)
    assert [r[0] for r in rows[1:]] == ["1000", "1000000"]
    assert [round(float(r[2]), 2) for r in rows[1:]] == [13.75, 24.55]  # LambertW b_k, as in process


@pytest.mark.parametrize("mu0, warned", [(1.5, True), (0.5, False)], ids=["overloaded", "stable"])
def test_network_reduce_warns_once_when_the_induced_chain_escapes(capsys, tmp_path, mu0, warned):
    # the unit tandem at mu0 = 1.5 returns with probability 0.268, its induced
    # chain with 0.393: the reduced spec is written as before, with one warning
    net = NetworkSpec(
        mu0=mu0,
        stations=(Station("ss", 1.0), Station("ss", 1.0)),
        routing=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    )
    path = tmp_path / "tandem.json"
    save_network(net, path)
    code, out, err = run(capsys, "network-reduce", "--in", str(path), "--nmax", "40")
    assert code == 0
    assert json.loads(out) == spec_to_dict(norton_reduce(net, 40).induced)
    warning = (
        "WARNING: the network is overloaded: the induced chain is transient, "
        "and its escape probability is not the network's"
    )
    assert err.splitlines() == ([warning] if warned else [])


def test_a_declared_critical_tail_prints_its_exponent_as_a_float(capsys, tmp_path):
    path = tmp_path / "mms2.json"
    save_spec(mms(2, 2.0, 1.0), path)
    code, out, _ = run(capsys, "tail", "--spec", str(path))
    assert code == 0
    lines = [line.strip() for line in out.splitlines()]
    assert '"p_exponent": 0.0,' in lines and '"limit_constant": 2.0,' in lines


def test_the_critical_twin_reduction_is_null_recurrent(capsys, tmp_path):
    # two unit single servers in parallel at load 1 each: the induced weights
    # grow like n 0.5^n at rho = 2, so sum 1/n decides, and it diverges
    net = NetworkSpec(
        mu0=2.0,
        stations=(Station("ss", 1.0), Station("ss", 1.0)),
        routing=((0.0, 0.5, 0.5), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
    )
    path, out_path = tmp_path / "twin.json", tmp_path / "induced.json"
    save_network(net, path)
    code, _, err = run(capsys, "network-reduce", "--in", str(path), "--out", str(out_path))
    assert code == 0 and err == ""
    assert classify(load_spec(out_path)).verdict is Verdict.NULL_RECURRENT
    assert classify(norton_reduce(net).induced).verdict is Verdict.NULL_RECURRENT
    code, out, err = run(capsys, "classify", "--spec", str(out_path))
    assert code == 0 and err == ""
    assert json.loads(out)["verdict"] == "NullRecurrent"


def test_network_reduce_refuses_tied_loads_at_level_zero(capsys, tmp_path):
    # the N^1 tail of two unit single servers in tandem runs on from the
    # last aggregate, so level 0 alone is refused
    net = NetworkSpec(
        mu0=0.5,
        stations=(Station("ss", 1.0), Station("ss", 1.0)),
        routing=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    )
    path = tmp_path / "tandem.json"
    save_network(net, path)
    code, out, err = run(capsys, "network-reduce", "--in", str(path), "--nmax", "0")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "ERROR ValueError: n_max for a bottleneck of multiplicity 2 must be an integer of at least 1, got 0"
    ]


@pytest.mark.parametrize("argv", [["tail"], ["extremes", "--table", "norming"]], ids=["tail", "norming"])
def test_an_infinite_server_pool_peaking_past_the_first_terms_classifies(capsys, tmp_path, argv):
    # rho^n / n! still rises at n = 10,000 for lam = 2e4; the series sum runs on
    path = tmp_path / "pool.json"
    save_spec(mminf(2e4, 1.0), path)
    code, out, err = run(capsys, *argv, "--spec", str(path))
    assert code == 0 and err == "" and out


def test_verify_fast_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fast", "--seed", "42")
    assert code == 0
    assert "PASS" in out
    assert "FAIL " not in out.replace("XFAIL", "")


def test_output_file_flag(capsys, half_spec, tmp_path):
    target = tmp_path / "table.csv"
    code, _, _ = run(capsys, "cdf", "--spec", half_spec, "--nmax", "4", "--format", "csv", "--out", str(target))
    assert code == 0
    rows = parse_csv(target.read_text())
    assert len(rows) == 5


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "classify", "--spec", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("ERROR")


def test_malformed_spec_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lambda": "fast"}')
    code, _, err = run(capsys, "classify", "--spec", str(bad))
    assert code == 2
    assert "ERROR" in err


def test_supercritical_norming_exits_one(capsys, tmp_path):
    path = tmp_path / "over.json"
    save_spec(mm1(2.0, 1.0), path)
    code, out, err = run(capsys, "extremes", "--spec", str(path), "--table", "norming")
    assert code == 1
    assert out == ""
    assert err.startswith("ERROR NotSubcriticalError:")


def test_extremes_takes_no_depth(capsys, half_spec):
    with pytest.raises(SystemExit) as exit_info:
        main(["extremes", "--spec", half_spec, "--table", "norming", "--nmax", "400"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --nmax 400" in capsys.readouterr().err


def test_norming_past_the_deepest_knot_exits_two(capsys, tmp_path):
    # lambda = 1 - 1e-12 lies in the critical band, so the default kind is Numeric;
    # its b_1000 lies near level 6.9e12
    path = tmp_path / "heavy.json"
    save_spec(mm1(1.0 - 1e-12, 1.0), path)
    code, out, err = run(capsys, "extremes", "--spec", str(path), "--table", "norming")
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR OutOfRangeError: the root of target ")
    assert err.endswith(" lies beyond the 1048576 levels a table may hold\n")
    assert err.count("\n") == 1


def test_tail_of_a_capped_chain_exits_one(capsys, tmp_path):
    path = tmp_path / "capped.json"
    save_spec(mm1(0.5, 1.0, cap=5), path)
    code, out, err = run(capsys, "tail", "--spec", str(path))
    assert code == 1
    assert out == ""
    assert err == "ERROR NotApplicableError: finite chains have no tail regime\n"


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, timeout=60, capture_output=True, text=True)


def test_import_leaves_scipy_unloaded():
    assert _fresh_python("import sys, cyclemax.cli; sys.exit('scipy' in sys.modules)").returncode == 0


_CORE = {"cyclemax", "cyclemax.bdp", "cyclemax.errors"}
_LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'cyclemax')"


def test_import_loads_only_the_chain_core():
    proc = _fresh_python(f"import json, sys, cyclemax; print(json.dumps({_LOADED}))")
    assert set(json.loads(proc.stdout)) == _CORE


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["classify"], set()),
        (["cdf", "--nmax", "5"], {"distribution"}),
        (["tail"], {"distribution"}),
        (["extremes", "--k", "1000"], {"distribution", "extremes"}),
        (["simulate", "--reps", "200", "--nmax", "5"], {"distribution", "simulate"}),
    ],
    ids=["classify", "cdf", "tail", "extremes", "simulate"],
)
def test_a_command_imports_only_its_layers(half_spec, tmp_path, argv, layers):
    code = f"import json, sys, cyclemax.cli; print(json.dumps([cyclemax.cli.main(sys.argv[1:]), {_LOADED}]))"
    proc = _fresh_python(code, *argv, "--spec", half_spec, "--out", str(tmp_path / "out"))
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code == 0
    assert set(loaded) == _CORE | {"cyclemax.cli"} | {f"cyclemax.{m}" for m in layers}


def test_simulate_with_k_leaves_numpy_ma_unloaded(half_spec, tmp_path):
    # np.median and np.quantile import numpy.ma for their NaN check
    code = (
        "import json, sys, cyclemax.cli; "
        "print(json.dumps([cyclemax.cli.main(sys.argv[1:]), 'numpy.ma' in sys.modules]))"
    )
    argv = ["simulate", "--k", "1000,100000", "--reps", "200", "--spec", half_spec, "--out", str(tmp_path / "out")]
    assert json.loads(_fresh_python(code, *argv).stdout) == [0, False]


def test_networks_and_network_reduce_leave_the_simulator_unloaded(pool_net, tmp_path):
    proc = _fresh_python(f"import json, sys, cyclemax.networks; print(json.dumps({_LOADED}))")
    assert set(json.loads(proc.stdout)) == _CORE | {"cyclemax.networks"}
    code = f"import json, sys, cyclemax.cli; print(json.dumps([cyclemax.cli.main(sys.argv[1:]), {_LOADED}]))"
    proc = _fresh_python(code, "network-reduce", "--in", pool_net, "--nmax", "120", "--out", str(tmp_path / "out"))
    exit_code, loaded = json.loads(proc.stdout)
    assert exit_code == 0 and set(loaded) == _CORE | {"cyclemax.cli", "cyclemax.networks"}


_PUBLIC = """
    BirthDeathSpec CallableSequence CapExceededError Classification CoincidentLoadsError
    CompactnessReport ConvergenceRow CycleMaxDistribution CycleMaxError CycleSample ESCAPED
    EscapedCycleError FactorialInverseSequence FitFailedError GumbelBounds KindMismatchError
    MultiServerSequence NetworkSpec NoMonotoneTailError NonSeparableError NormingConstants
    NormingKind NortonReduction NotApplicableError NotIrreducibleError NotPositiveRecurrentError
    NotStableError NotSubcriticalError NotTransientError OnesSequence OutOfRangeError
    PalmUndefinedError SimConfig SingularSystemError SpecFormatError Station TableSequence Tail
    TailAsymptotics TailFunction TailRegime Verdict aggregate_constants as_limit_constant
    blocking_prob build_tail_function classify compactness_diagnostic conditional_cdf_transient
    cycle_max_cdf default_norming_kind dual_process duality_check empirical_cdf failure_rate
    gumbel_bounds harrison_closed_form invert_tail ks_two_sample lambert_w lattice_constants
    load_network load_spec mm1 mminf mms network_beta network_from_dict network_to_dict
    norming_constants norton_reduce palm_distribution partial_limit_envelope sample_maxima
    save_network save_spec simulate_cycle simulate_cycles simulate_network_cycles solve_traffic
    spec_from_dict spec_to_dict station_loads stationary_distribution stirling_tail tail_asymptotics
    verify_as_convergence
""".split()


def test_the_package_lists_and_star_imports_every_public_name():
    code = (
        "import json, cyclemax\n"
        "star = {}\n"
        "exec('from cyclemax import *', star)\n"
        "print(json.dumps([[n for n in names if not n.startswith('_')] for names in (dir(cyclemax), star)]))"
    )
    listed, bound = json.loads(_fresh_python(code).stdout)
    assert len(_PUBLIC) == 87
    assert sorted(listed) == sorted(bound) == sorted(_PUBLIC)


def test_an_unknown_package_name_raises_attribute_error():
    import cyclemax

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cyclemax.no_such_name
    with pytest.raises(ImportError):
        from cyclemax import no_such_name  # noqa: F401


def test_network_reduce_refuses_tables_past_the_float_range(capsys, tmp_path):
    # loads 2 and 2.5: Psi(N) passes the float range near N = 770
    net = NetworkSpec(
        mu0=0.1,
        stations=(Station("ss", 0.5), Station("ss", 0.4)),
        routing=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    )
    path = tmp_path / "heavy.json"
    save_network(net, path)
    out_path = tmp_path / "induced.json"
    code, out, err = run(capsys, "network-reduce", "--in", str(path), "--nmax", "1000", "--out", str(out_path))
    assert code == 2
    assert err.startswith("ERROR SpecFormatError:") and "overflow" in err
    assert not out_path.exists()
    code, out, _ = run(capsys, "network-reduce", "--in", str(path), "--nmax", "700")
    assert code == 0
    values = json.loads(out)["psi"]["values"]
    assert len(values) == 701 and all(isinstance(v, float) for v in values)


def test_network_reduce_names_the_overflow_of_coincident_loads(capsys, tmp_path):
    # two single servers of rate 0.5 in tandem: loads 2 and 2, so the
    # reduction carries an N^1 tail, which the file keeps
    net = NetworkSpec(
        mu0=0.1,
        stations=(Station("ss", 0.5), Station("ss", 0.5)),
        routing=((0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),
    )
    path = tmp_path / "tied.json"
    save_network(net, path)
    out_path = tmp_path / "induced.json"
    code, out, err = run(capsys, "network-reduce", "--in", str(path), "--nmax", "1100", "--out", str(out_path))
    assert code == 2
    assert err.splitlines() == ["ERROR SpecFormatError: table values overflow the linear file representation"]
    assert not out_path.exists()
    code, out, err = run(capsys, "network-reduce", "--in", str(path), "--nmax", "400", "--out", str(out_path))
    assert code == 0 and err == ""
    assert load_spec(out_path).psi.poly_degree == 1


def test_null_table_value_exits_two(capsys, tmp_path):
    bad = tmp_path / "null.json"
    bad.write_text(json.dumps({
        "lambda": 0.25, "mu": 1.0,
        "psi": {"kind": "table", "values": [1.0, None], "tail_ratio": 0.5},
        "phi": {"kind": "table", "values": [1.0, 0.5], "tail_ratio": 0.5},
    }))
    code, out, err = run(capsys, "classify", "--spec", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("ERROR SpecFormatError:")
