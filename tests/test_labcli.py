import csv
import io
import json
import os
import subprocess
import sys

import pytest

import gclab
from gclab import branching, census, configuration, labcli
from gclab.census import Conjunction, MaxDegreeBall, RootDegree, components
from gclab.configuration import (
    MultiGraph,
    conf_distance,
    sample_degree_sequence,
    sample_pairing,
    to_multigraph,
)
from gclab.distributions import Distribution, thin
from gclab.errors import SpecParseError, UnboundedRadius
from gclab.percolation import ColoredGraph, split


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


def test_analyze_degenerate_two_cycles(tmp_path, mixture_spec, capsys):
    spec = write_spec(tmp_path, "twos.json", [[2, 1.0]])
    assert labcli.main(["analyze", "--dist", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["x_plus"] is None and report["rho"] is None
    assert "degrees >= 3" in report["caveat"]
    assert report["p_c"] == pytest.approx(1.0)
    # Every report has the same keys, whichever branch filled them in.
    for other in (mixture_spec, write_spec(tmp_path, "zero.json", [[0, 1.0]])):
        assert labcli.main(["analyze", "--dist", other]) == 0
        assert set(json.loads(capsys.readouterr().out)) == set(report)


def test_analyze_zero_mean(tmp_path, capsys):
    spec = write_spec(tmp_path, "zero.json", [[0, 1.0]])
    assert labcli.main(["analyze", "--dist", spec]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rho"] == 0.0 and report["rho_k"][0] == 1.0 and report["caveat"] is not None


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


def test_sweep_matches_split_reference():
    # Recompute each record from the red half of split, red being the rows
    # whose mark in the trial's one draw lies below p, with a fresh census
    # and degree count. The grid is unsorted and repeats a p.
    dist = Distribution([(1, 0.3), (2, 0.2), (4, 0.3), (6, 0.2)])
    n, seed, p_grid = 2000, 7, [0.8, 0.4, 0.0, 1.0, 0.4, 0.55]
    records = iter(labcli.cmd_percolation_sweep(dist, n, p_grid, trials=2, seed=seed))
    for trial in range(2):
        rng = labcli.trial_rng(seed, trial)
        graph = to_multigraph(sample_pairing(sample_degree_sequence(dist, n, rng), rng))
        marks = labcli.trial_rng(seed, trial, 1).random(graph.num_edges)
        for p in p_grid:
            red_graph, _, dred, _ = split(ColoredGraph(graph, marks < p))
            cen = components(red_graph)
            record = next(records)
            assert (record.params["trial"], record.params["p"]) == (trial, p)
            assert record.observed["L1_over_n"] == cen.largest / n
            assert record.observed["L2_over_n"] == cen.second_largest / n
            assert record.observed["conf_distance_red"] == conf_distance(dred, thin(dist, p))
    assert next(records, None) is None


def test_sweep_rows_depend_on_p_alone(mixture_spec, capsys):
    # An unsorted grid with a repeated p gives each p the row a run at that
    # p alone gives.
    argv = ["sweep", "--dist", mixture_spec, "--n", "3000", "--trials", "2", "--seed", "13"]
    grid = ["0.7", "0.3", "0.5", "0.5"]
    assert labcli.main(argv + ["--p", ",".join(grid)]) == 0
    rows = read_csv(capsys.readouterr().out)
    assert len(rows) == 2 * len(grid)
    for p in set(grid):
        assert labcli.main(argv + ["--p", p]) == 0
        alone = read_csv(capsys.readouterr().out)
        for trial in range(2):
            for index, q in enumerate(grid):
                if q == p:
                    assert rows[trial * len(grid) + index] == alone[trial]


def test_sweep_largest_component_grows_with_p(regular3):
    # The graphs of one trial are nested, so L1 can only grow with p.
    p_grid = [0.9, 0.2, 0.5, 0.45, 0.55, 0.35, 0.65, 0.1, 1.0]
    records = labcli.cmd_percolation_sweep(regular3, 3000, p_grid, trials=3, seed=21)
    for trial in range(3):
        curve = sorted(
            (r.params["p"], r.observed["L1_over_n"]) for r in records if r.params["trial"] == trial
        )
        l1 = [value for _, value in curve]
        assert l1 == sorted(l1)
        assert l1[0] < l1[-1]


def test_sweep_takes_one_census_per_distinct_p(monkeypatch, mixture):
    # Each census grows from the previous p's parent array, through the
    # module attribute that a tracer replaces.
    calls = []

    def counting(graph, start=None):
        result = components(graph, start=start)
        calls.append((start, result))
        return result

    monkeypatch.setattr(census, "components", counting)
    labcli.cmd_percolation_sweep(mixture, 500, [0.6, 0.2, 0.6, 1.0, 0.0], trials=3, seed=3)
    assert len(calls) == 3 * 4
    for trial in range(3):
        starts = [start for start, _ in calls[4 * trial : 4 * trial + 4]]
        results = [result for _, result in calls[4 * trial : 4 * trial + 4]]
        assert starts[0] is None
        assert all(start is result.parent for start, result in zip(starts[1:], results[:-1]))


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
    [
        ([[2, 1.0]], ""),
        ([[1, 0.5], [2, 0.5]], "0.0"),
        ([[0, 1.0]], "0.0"),
        ([[1, 1.0]], "0.0"),
        ([[0, 0.5], [2, 0.5]], ""),
    ],
)
def test_giant_and_sweep_agree_on_laws_inside_0_1_2(tmp_path, capsys, masses, want):
    # On {0, 2} the largest cycle holds a random, non-vanishing share, so
    # there is no limit to print; with mass on degree 1, or with no edges,
    # extinction is sure and the limit is 0. Every command says the same.
    spec = write_spec(tmp_path, "law.json", masses)
    for argv in (["giant"], ["sweep", "--p", "1.0"]):
        assert labcli.main(argv + ["--dist", spec, "--n", "200", "--seed", "1"]) == 0
        for row in read_csv(capsys.readouterr().out):
            assert row["pred_L1_over_n"] == want
    argv = ["local-census", "--dist", spec, "--n", "200", "--property", "root_degree:1"]
    assert labcli.main(argv) == 0
    assert read_csv(capsys.readouterr().out)[0]["pred_giant_fraction"] == want
    assert labcli.main(["analyze", "--dist", spec]) == 0
    assert json.loads(capsys.readouterr().out)["rho"] == (float(want) if want else None)


def test_giant_predicts_small_components_without_edges(tmp_path, capsys):
    spec = write_spec(tmp_path, "zero.json", [[0, 1.0]])
    assert labcli.main(["giant", "--dist", spec, "--n", "200", "--trials", "1", "--kmax", "3"]) == 0
    (row,) = read_csv(capsys.readouterr().out)
    assert [row[f"pred_N{k}_over_n"] for k in (1, 2, 3)] == ["1.0", "0.0", "0.0"]
    assert row["N1_over_n"] == "1.0"


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


@pytest.mark.parametrize("seed, bumped", [(7, 4), (9, 2)])
@pytest.mark.parametrize("spec", ["root_degree:3&max_degree_ball:3,2&component_at_least:2", "max_degree_ball:2,1"])
def test_local_census_reads_the_degrees_it_drew(monkeypatch, mixture, seed, bumped, spec):
    # Odd n on the mixture: the parity bump leaves the last vertex at degree
    # 2 or 4. The op decides the degree and ball clauses from the degrees of
    # its draw, never counting them from the rows, and its fractions match
    # property_mask on the same trial's graph.
    n = 20001
    graph = labcli._trial_graph(mixture, n, seed, 0)
    assert graph.degrees()[-1] == bumped
    mask = census.property_mask(graph, labcli.parse_property_spec(spec))
    whole, giant = int(mask.sum()), int((mask & components(graph).giant_mask()).sum())

    def refuse(self):
        raise AssertionError("the degrees were counted from the rows")

    monkeypatch.setattr(MultiGraph, "degrees", refuse)
    observed = labcli.cmd_local_census(mixture, n, spec, seed).observed
    assert observed == {"whole_fraction": whole / n, "giant_fraction": giant / n}
    assert all(type(value) is float for value in observed.values())


@pytest.mark.parametrize(
    "spec", ["component_exactly:201", "component_at_least:202", "max_degree_ball:3,1001", "max_degree_ball:1,-1"]
)
def test_local_census_refuses_specs_past_the_caps(mixture_spec, capsys, spec):
    argv = ["local-census", "--dist", mixture_spec, "--n", "100", "--property", spec]
    assert labcli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--n", "100000", "--trials", "1", "--p", "0.3,0.5,0.7"],
        ["giant", "--n", "100000", "--trials", "1"],
        ["local-census", "--n", "100000", "--property", "root_degree:1"],
    ],
)
def test_graphs_past_the_size_cap_are_refused_before_any_draw(tmp_path, capsys, monkeypatch, argv):
    # n * E(D) is ~5e8 stubs here, gigabytes of pairing. Drawing nothing
    # shows the refusal comes first, so nothing large is ever allocated.
    def draw(*args, **kwargs):
        raise AssertionError("degrees were drawn")

    monkeypatch.setattr(configuration, "sample", draw)
    spec = write_spec(tmp_path, "wide.json", [[1, 0.5], [10000, 0.5]])
    assert labcli.main(argv + ["--dist", spec]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "MAX_GRAPH_ELEMENTS" in captured.err


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


@pytest.mark.parametrize("argv", [["analyze"], ["giant", "--n", "200", "--trials", "1"]])
def test_kmax_is_capped_at_the_component_size_cap(mixture_spec, capsys, argv):
    cap = branching.MAX_COMPONENT_SIZE
    assert labcli.main(argv + ["--dist", mixture_spec, "--kmax", str(cap)]) == 0
    assert capsys.readouterr().err == ""
    assert labcli.main(argv + ["--dist", mixture_spec, "--kmax", str(cap + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --kmax") and captured.err.count("\n") == 1


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


def test_import_loads_no_test_only_dependency():
    # The benchmark's setup_s counts this import; importing scipy.sparse
    # takes ~0.35 s on a 2-core x86 host.
    src = os.path.dirname(os.path.dirname(gclab.__file__))
    probe = (
        "import sys, gclab, gclab.labcli; "
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx', 'hypothesis'}))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
