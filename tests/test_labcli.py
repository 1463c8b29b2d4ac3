import csv
import io
import json

import pytest

from gclab import branching, labcli
from gclab.census import Conjunction, MaxDegreeBall, RootDegree
from gclab.distributions import Distribution
from gclab.errors import SpecParseError, UnboundedRadius


def write_spec(tmp_path, name, masses):
    path = tmp_path / name
    path.write_text(json.dumps({"masses": masses}))
    return str(path)


@pytest.fixture
def mixture_spec(tmp_path):
    return write_spec(tmp_path, "mixture.json", [[1, 0.5], [3, 0.5]])


@pytest.fixture
def regular3_spec(tmp_path):
    return write_spec(tmp_path, "reg3.json", [[3, 1.0]])


def read_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


# ---------------------------------------------------------------------------
# property spec parsing


def test_parse_property_specs():
    assert labcli.parse_property_spec("root_degree:3") == RootDegree(3)
    assert labcli.parse_property_spec("max_degree_ball:4,2") == MaxDegreeBall(4, 2)
    combo = labcli.parse_property_spec("root_degree:1 & max_degree_ball:3,1")
    assert isinstance(combo, Conjunction) and len(combo.parts) == 2


def test_parse_property_rejects_unknown_and_unbounded():
    with pytest.raises(SpecParseError):
        labcli.parse_property_spec("root_degree:a")
    with pytest.raises(SpecParseError):
        labcli.parse_property_spec("no_such_thing:1")
    with pytest.raises(UnboundedRadius):
        labcli.parse_property_spec("component_infinite")


# ---------------------------------------------------------------------------
# analyze


def test_analyze_mixture(mixture_spec, capsys):
    assert labcli.main(["analyze", "--dist", mixture_spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mean_degree"] == 2.0
    assert report["rho"] == pytest.approx(22 / 27, abs=1e-9)
    assert report["p_c"] == pytest.approx(2 / 3, abs=1e-12)
    assert report["rho_k"][1] == pytest.approx(1 / 8, abs=1e-12)
    assert report["giant_degree_fractions"]["3"] == pytest.approx(13 / 27, abs=1e-9)
    assert report["caveat"] is None


def test_analyze_solves_the_survival_equation_once(monkeypatch, tmp_path, capsys):
    solve, calls = branching.solve_x_plus, []
    monkeypatch.setattr(branching, "solve_x_plus", lambda dist: calls.append(dist) or solve(dist))
    spec = write_spec(tmp_path, "uniform.json", [[d, 0.05] for d in range(1, 21)])
    assert labcli.main(["analyze", "--dist", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert len(report["giant_degree_fractions"]) == 20


def test_analyze_regular3(regular3_spec, capsys):
    assert labcli.main(["analyze", "--dist", regular3_spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rho"] == pytest.approx(1.0, abs=1e-12)
    assert report["p_c"] == 0.5


def test_analyze_degenerate_two_cycles(tmp_path, capsys):
    spec = write_spec(tmp_path, "twos.json", [[2, 1.0]])
    assert labcli.main(["analyze", "--dist", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["x_plus"] is None and report["rho"] is None
    assert "degrees >= 3" in report["caveat"]
    assert report["p_c"] == pytest.approx(1.0)


def test_analyze_zero_mean(tmp_path, capsys):
    spec = write_spec(tmp_path, "zero.json", [[0, 1.0]])
    assert labcli.main(["analyze", "--dist", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rho"] is None and report["caveat"] is not None


# ---------------------------------------------------------------------------
# giant


def test_giant_forced_matching(tmp_path, capsys):
    spec = write_spec(tmp_path, "ones.json", [[1, 1.0]])
    code = labcli.main(
        ["giant", "--dist", spec, "--n", "2000", "--trials", "3", "--seed", "7"]
    )
    assert code == 0
    rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 3
    for row in rows:
        assert float(row["L1_over_n"]) == 2 / 2000
        assert float(row["N2_over_n"]) == 1.0
        assert row["pred_N2_over_n"] == "1.0"


def test_giant_mixture_records(mixture_spec, capsys):
    code = labcli.main(
        [
            "giant", "--dist", mixture_spec, "--n", "20000", "--trials", "2",
            "--seed", "3", "--format", "json",
        ]
    )
    assert code == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 2
    for rec in records:
        assert "runtime_ms" not in rec
        assert rec["predicted"]["L1_over_n"] == pytest.approx(22 / 27, abs=1e-9)
        assert abs(rec["observed"]["L1_over_n"] - 22 / 27) <= 0.03
        assert set(rec["observed"]) <= set(rec["predicted"])


# ---------------------------------------------------------------------------
# sweep


def test_sweep_full_retention_matches_giant(mixture_spec, capsys):
    labcli.main(
        ["giant", "--dist", mixture_spec, "--n", "5000", "--trials", "2", "--seed", "11"]
    )
    giant_rows = read_csv(capsys.readouterr().out)
    labcli.main(
        [
            "sweep", "--dist", mixture_spec, "--n", "5000", "--trials", "2",
            "--seed", "11", "--p", "1.0",
        ]
    )
    sweep_rows = read_csv(capsys.readouterr().out)
    for g_row, s_row in zip(giant_rows, sweep_rows):
        assert s_row["L1_over_n"] == g_row["L1_over_n"]
        assert s_row["L2_over_n"] == g_row["L2_over_n"]


def test_sweep_zero_retention(mixture_spec, capsys):
    labcli.main(
        [
            "sweep", "--dist", mixture_spec, "--n", "1000", "--trials", "1",
            "--seed", "2", "--p", "0.0",
        ]
    )
    rows = read_csv(capsys.readouterr().out)
    assert float(rows[0]["L1_over_n"]) == 1 / 1000
    assert float(rows[0]["pred_L1_over_n"]) == 0.0


@pytest.mark.parametrize(
    "masses, want",
    [([[2, 1.0]], ""), ([[1, 0.5], [2, 0.5]], "0.0")],
)
def test_giant_and_sweep_agree_on_laws_inside_0_1_2(tmp_path, capsys, masses, want):
    # On {2: 1} the largest cycle holds a random, non-vanishing share, so
    # there is no limit to print; with mass on degree 1 the law is strictly
    # subcritical and the limit is 0.
    spec = write_spec(tmp_path, "law.json", masses)
    for argv in (["giant"], ["sweep", "--p", "1.0"]):
        assert labcli.main(argv + ["--dist", spec, "--n", "200", "--seed", "1"]) == 0
        for row in read_csv(capsys.readouterr().out):
            assert row["pred_L1_over_n"] == want


def test_sweep_brackets_threshold(regular3_spec, capsys):
    labcli.main(
        [
            "sweep", "--dist", regular3_spec, "--n", "30000", "--trials", "1",
            "--seed", "4", "--p", "0.4,0.5,0.6",
        ]
    )
    rows = read_csv(capsys.readouterr().out)
    l1 = {float(r["p"]): float(r["L1_over_n"]) for r in rows}
    assert l1[0.4] <= 0.05
    assert l1[0.6] >= 0.5


def test_sweep_rejects_bad_grid(mixture_spec):
    assert labcli.main(
        ["sweep", "--dist", mixture_spec, "--n", "100", "--p", "0.5,1.5"]
    ) == 2


# ---------------------------------------------------------------------------
# local census


def test_local_census_absent_degree(mixture_spec, capsys):
    code = labcli.main(
        [
            "local-census", "--dist", mixture_spec, "--n", "5000", "--seed", "9",
            "--property", "root_degree:5", "--format", "json",
        ]
    )
    assert code == 0
    (rec,) = json.loads(capsys.readouterr().out)
    assert rec["observed"]["whole_fraction"] == 0.0
    assert rec["predicted"]["whole_fraction"] == 0.0
    assert rec["predicted"]["giant_fraction"] == 0.0


def test_local_census_degree_three(mixture_spec, capsys):
    code = labcli.main(
        [
            "local-census", "--dist", mixture_spec, "--n", "30000", "--seed", "1",
            "--property", "root_degree:3", "--format", "json",
        ]
    )
    assert code == 0
    (rec,) = json.loads(capsys.readouterr().out)
    assert abs(rec["observed"]["whole_fraction"] - 0.5) <= 0.02
    assert abs(rec["observed"]["giant_fraction"] - 13 / 27) <= 0.02
    assert rec["predicted"]["giant_fraction"] == pytest.approx(13 / 27, abs=1e-9)


def test_local_census_prints_the_exact_limit(mixture_spec, capsys):
    spec = "max_degree_ball:3,2&component_at_least:2"
    assert labcli.main(["local-census", "--dist", mixture_spec, "--n", "2000", "--property", spec]) == 0
    first, header, row = capsys.readouterr().out.splitlines()
    columns = "n,seed,property,whole_fraction,giant_fraction,pred_whole_fraction,pred_giant_fraction"
    assert first == "# gclab local-census v2 columns: " + columns
    assert header == columns
    assert read_csv("\n".join([header, row]))[0]["pred_whole_fraction"] == "1.0"


def test_local_census_large_component_spec(mixture_spec, capsys):
    # Trees grown to size 60 used to take gigabytes; the series takes 60 terms.
    code = labcli.main(
        [
            "local-census", "--dist", mixture_spec, "--n", "2000",
            "--property", "component_exactly:60", "--format", "json",
        ]
    )
    assert code == 0
    (rec,) = json.loads(capsys.readouterr().out)
    mixture = Distribution([(1, 0.5), (3, 0.5)])
    assert rec["predicted"]["whole_fraction"] == branching.rho_k_table(mixture, 60).rho_k[59]
    assert set(rec["params"]) == {"n", "seed", "property"}
    assert set(rec["predicted"]) == {"whole_fraction", "giant_fraction"}


@pytest.mark.parametrize("spec", ["component_exactly:201", "component_at_least:202", "max_degree_ball:3,1001"])
def test_local_census_refuses_specs_past_the_caps(mixture_spec, capsys, spec):
    argv = ["local-census", "--dist", mixture_spec, "--n", "100", "--property", spec]
    assert labcli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# output contracts


def test_byte_identical_outputs(mixture_spec, tmp_path):
    args = [
        "giant", "--dist", mixture_spec, "--n", "3000", "--trials", "2", "--seed", "5",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    labcli.main(args + ["--out", str(out_a)])
    labcli.main(args + ["--out", str(out_b)])
    assert out_a.read_bytes() == out_b.read_bytes()
    out_ja, out_jb = tmp_path / "a.json", tmp_path / "b.json"
    labcli.main(args + ["--format", "json", "--out", str(out_ja)])
    labcli.main(args + ["--format", "json", "--out", str(out_jb)])
    assert out_ja.read_bytes() == out_jb.read_bytes()


def test_csv_quotes_property_spec_with_comma(mixture_spec, capsys):
    spec = "max_degree_ball:3,2"
    code = labcli.main(
        [
            "local-census", "--dist", mixture_spec, "--n", "2000", "--seed", "1",
            "--property", spec,
        ]
    )
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = read_csv("\n".join(lines))
    assert len(rows) == 1
    assert None not in rows[0]  # DictReader files surplus fields under None
    assert len(rows[0]) == len(header)
    assert rows[0]["property"] == spec


def test_csv_header_is_versioned(mixture_spec, capsys):
    labcli.main(["giant", "--dist", mixture_spec, "--n", "100", "--trials", "1"])
    first_line = capsys.readouterr().out.splitlines()[0]
    assert first_line.startswith("# gclab giant v1 columns:")


def test_exit_code_on_bad_spec(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert labcli.main(["analyze", "--dist", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert labcli.main(["analyze", "--dist", str(bad)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["giant", "--n", "0"],
        ["local-census", "--property", "root_degree:3", "--n", "0"],
        ["sweep", "--p", "0.5", "--trials", "0"],
        ["giant", "--trials", "-1"],
        ["giant", "--kmax", "0"],
        ["analyze", "--kmax", "-3"],
        ["giant", "--seed", "-1"],
        ["sweep", "--p", "0.5", "--seed", "-1"],
        ["giant", "--simple", "--max-attempts", "0"],
    ],
)
def test_exit_code_on_out_of_range_flags(mixture_spec, capsys, argv):
    assert labcli.main(argv + ["--dist", mixture_spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["local-census", "--property", "root_degree:3", "--samples", "5"],
        ["local-census", "--property", "root_degree:3", "--trials", "3"],
    ],
)
def test_argparse_refuses_flags_local_census_lacks(mixture_spec, argv):
    with pytest.raises(SystemExit) as exc:
        labcli.main(argv + ["--dist", mixture_spec])
    assert exc.value.code == 2


def test_positive_flags_are_parser_dests():
    # _check_flags skips a name no subcommand has, so a stale one would
    # check nothing without any error.
    parser = labcli.build_parser()
    dests = set()
    for argv in (
        ["analyze"],
        ["giant"],
        ["sweep", "--p", "0.5"],
        ["local-census", "--property", "root_degree:1"],
    ):
        dests |= set(vars(parser.parse_args(argv + ["--dist", "law.json"])))
    assert set(labcli._POSITIVE_FLAGS) <= dests


@pytest.mark.parametrize(
    "masses", [[[1.5, 1.0]], [[True, 1.0]], [[1, True]], [[1, "1.0"]], [[1000000000, 1.0]]]
)
def test_exit_code_on_inexact_spec_numbers(tmp_path, capsys, masses):
    spec = write_spec(tmp_path, "inexact.json", masses)
    assert labcli.main(["analyze", "--dist", spec]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_exit_code_on_unbounded_property(mixture_spec):
    code = labcli.main(
        [
            "local-census", "--dist", mixture_spec, "--n", "100",
            "--property", "component_infinite",
        ]
    )
    assert code == 2


def test_exit_code_on_exhausted(tmp_path):
    spec = write_spec(tmp_path, "twos.json", [[2, 1.0]])
    code = labcli.main(
        [
            "giant", "--dist", spec, "--n", "1", "--trials", "1", "--seed", "0",
            "--simple", "--max-attempts", "20",
        ]
    )
    assert code == 3
