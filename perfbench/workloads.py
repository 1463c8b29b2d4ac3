"""The benchmark's workloads: one op each, the inputs it draws, and its checks.

Op i of a run uses master seed ``workload_seed + i``. Every op returns the
text a user would get (CSV for the CLI paths) and leaves evidence in
``self.evidence`` -- return values captured at layer boundaries, or kept by
the op itself -- for ``check`` to verify after the op's timer has stopped.
Every reference a check compares against comes from the degree law alone
(closed forms) or from an independent numpy computation, never from the
function under test.
"""

from __future__ import annotations

import csv
import json

import numpy as np

MIXTURE = {"masses": [[1, 0.5], [3, 0.5]]}
REG3 = {"masses": [[3, 1.0]]}

# Survival probability of the mixture's two-stage tree: the offspring law is
# {0: 1/4, 2: 3/4}, so extinction y solves y = 1/4 + 3/4 y^2, y = 1/3, and
# rho = 1 - (y/2 + y^3/2) = 22/27.
RHO_MIXTURE = 22 / 27
# Predictions come from an exact fixed point; allow solver round-off only.
PREDICTION_TOL = 1e-9
# |L1/n - rho| at n = 10^6 on the mixture: seven standard deviations of
# L1/n in an independent numpy/scipy simulation (sd 0.00086 over 150 runs,
# extremes -0.0020 and +0.0030).
GIANT_TOL_MIXTURE_1M = 0.006
# |L1/n - rho| for reg3 percolation at n = 10^5, by retention p. Set from
# an independent numpy/scipy simulation (random stub matching, bond
# percolation, scipy connected components): sd 0.00005, 0.00075, 0.0123,
# 0.0018, with extremes over 500/4000/4000/500 runs of +0.00054, +0.0085,
# -0.051, +-0.0054. Near p_c (0.45 and 0.55 lie about 2.3 window widths
# n^(-1/3) from it) the tails are heavy: past the 1-in-1000 quantile they
# thin about fourfold per 0.0014 at 0.45 and per 0.01 at 0.55, so 0.02 and
# 0.1 put a false failure below about 1e-7 per op.
L1_TOL_REG3_1E5 = {0.3: 0.002, 0.45: 0.02, 0.55: 0.1, 0.7: 0.015}
SWEEP_GRID = [0.3, 0.45, 0.5, 0.55, 0.7]
LOCAL_SPEC = "max_degree_ball:3,2&component_at_least:2"


def reg3_rho(p: float) -> float:
    """Giant fraction of p-percolated 3-regular graphs, in closed form.

    Retained degrees are Binomial(3, p) and offspring Binomial(2, p), so the
    extinction probability solves y = (1 - p + p y)^2: y = ((1 - p)/p)^2
    above p = 1/2 and y = 1 at or below it.
    """
    y = ((1.0 - p) / p) ** 2 if p > 0.5 else 1.0
    return 1.0 - (1.0 - p + p * y) ** 3


class MalformedOutput(Exception):
    """The CLI's output text does not have the shape of its format."""


def parse_csv(text: str) -> list[dict]:
    """Rows of the CLI's CSV; every row must have exactly the header's fields."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# gclab"):
        raise MalformedOutput("CSV lacks the '# gclab' header line")
    header, *rows = csv.reader(lines[1:])
    for number, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise MalformedOutput(
                f"CSV row {number} has {len(row)} fields but the header has "
                f"{len(header)}: {lines[1 + number]!r}"
            )
    return [dict(zip(header, row)) for row in rows]


def parse_json_records(text: str, experiment: str) -> list[dict]:
    """Records of the CLI's JSON output, flattened to the CSV's column names."""
    rows = []
    for rec in json.loads(text):
        if rec.get("experiment") != experiment:
            raise MalformedOutput(f"JSON record is a {rec.get('experiment')!r} record, not {experiment!r}")
        row = {**rec["params"], **rec["observed"]}
        row.update({f"pred_{key}": value for key, value in rec["predicted"].items()})
        rows.append(row)
    return rows


def simple_by_keys(edges: np.ndarray, n: int) -> bool:
    """No loop and no repeated key u*n+v (edges are stored as (min, max))."""
    if (edges[:, 0] == edges[:, 1]).any():
        return False
    keys = edges[:, 0] * n + edges[:, 1]
    return np.unique(keys).size == keys.size


def loops_and_multi_pairs(edges: np.ndarray, n: int) -> tuple[int, int]:
    """Loops, and pairs of parallel non-loop edges, of a multigraph."""
    loop = edges[:, 0] == edges[:, 1]
    keys = edges[~loop, 0] * n + edges[~loop, 1]
    _, counts = np.unique(keys, return_counts=True)
    return int(loop.sum()), int((counts * (counts - 1) // 2).sum())


def janson_means(dist) -> tuple[float, float]:
    """Poisson means nu/2 (loops) and nu^2/4 (parallel pairs), nu = E D(D-1)/E D."""
    s = dist.support.astype(np.float64)
    nu = float(np.dot(s * (s - 1.0), dist.probs) / np.dot(s, dist.probs))
    return nu / 2.0, nu * nu / 4.0


def check_evidence(evidence: list) -> list[str]:
    """Checks shared by every workload, one per kind of captured evidence."""
    errors = []
    for tag, args, result in evidence:
        if tag == "components":
            graph = args[0]
            total = int(result.sizes.sum())
            if total != graph.n:
                errors.append(f"component sizes sum to {total}, not n={graph.n}")
        elif tag == "split":
            base = args[0].base.degrees()
            red, blue = result[2].degrees, result[3].degrees
            if not np.array_equal(red + blue, base):
                errors.append("red + blue degrees differ from the base degrees")
        elif tag == "simple":
            if not simple_by_keys(result.edges, result.n):
                errors.append("sample_simple returned a graph with a loop or a repeated pair")
    return errors


def near(errors: list, what: str, value: float, want: float, tol: float) -> None:
    if not abs(value - want) <= tol:
        errors.append(f"{what} = {value!r}, want {want!r} +- {tol}")


class Workload:
    """One op, its checks, and which layer boundaries to capture."""

    name = ""
    law = MIXTURE
    capture = (("census", "components"), ("percolation", "split"))
    count_loops = True  # count loops/parallel pairs of to_multigraph outputs
    trace_ops_per_s = 1.0  # traced-run op count per --seconds (untraced + traced)

    def __init__(self, gclab):
        self.lab = gclab
        self.dist = gclab.distributions.from_json_doc(self.law)
        self.evidence = []

    def op(self, seed: int, small: bool = False) -> str:
        raise NotImplementedError

    def check(self, text: str) -> list[str]:
        errors = check_evidence(self.evidence)
        self.evidence.clear()
        try:
            return errors + self.check_output(text)
        except MalformedOutput as exc:
            return errors + [str(exc)]

    def check_output(self, text: str) -> list[str]:
        return []


class NearCritical(Workload):
    name = "near-critical"
    law = REG3
    n = 100_000
    trace_ops_per_s = 0.17

    def op(self, seed, small=False):
        cli = self.lab.labcli
        grid = [0.3, 0.7] if small else SWEEP_GRID
        records = cli.cmd_percolation_sweep(
            self.dist, 1000 if small else self.n, grid, trials=1, seed=seed
        )
        return cli.records_to_csv(records)

    def check_output(self, text):
        errors = []
        rows = parse_csv(text)
        if [float(r["p"]) for r in rows] != SWEEP_GRID:
            return [f"sweep rows cover p={[r['p'] for r in rows]}, want {SWEEP_GRID}"]
        for row in rows:
            p = float(row["p"])
            if p not in L1_TOL_REG3_1E5:
                continue  # p = p_c: see branching.rho_at_pc in the trace
            rho = reg3_rho(p)
            near(errors, f"L1_over_n at p={p}", float(row["L1_over_n"]), rho, L1_TOL_REG3_1E5[p])
            near(errors, f"pred_L1_over_n at p={p}", float(row["pred_L1_over_n"]), rho, PREDICTION_TOL)
        return errors


class LocalLimit(Workload):
    """The census op with the CLI's ``--format json`` output.

    JSON, not CSV: ``records_to_csv`` writes the property spec unquoted, and
    the spec's comma breaks every CSV row (see ``LocalLimitCSV``).
    """

    name = "local-limit"
    n = 1_000_000
    samples = 20_000
    trace_ops_per_s = 0.15

    def op(self, seed, small=False):
        cli = self.lab.labcli
        n, samples = (1000, 200) if small else (self.n, self.samples)
        record = cli.cmd_local_census(self.dist, n, LOCAL_SPEC, seed, samples)
        return self.serialize([record])

    def serialize(self, records) -> str:
        return self.lab.labcli.records_to_json(records)

    def rows(self, text: str) -> list[dict]:
        return parse_json_records(text, "local-census")

    def check_output(self, text):
        # Mixture degrees are 1 or 3, so in the limit tree every vertex has
        # degree <= 3 and the root has a neighbour: the property has
        # probability exactly 1. In the graph only the vertex whose degree
        # was bumped to fix the parity can fail it, together with the at
        # most 1 + 4 + 4*2 = 13 vertices within distance 2 of it.
        errors = []
        (row,) = self.rows(text)
        if row["property"] != LOCAL_SPEC:
            errors.append(f"property column reads {row['property']!r}, want {LOCAL_SPEC!r}")
        near(errors, "pred_whole_fraction", float(row["pred_whole_fraction"]), 1.0, 0.0)
        whole = float(row["whole_fraction"])
        if whole < 1.0 - 13 / self.n:
            errors.append(f"whole_fraction = {whole!r}, want >= 1 - 13/n")
        near(errors, "giant_fraction", float(row["giant_fraction"]), RHO_MIXTURE, GIANT_TOL_MIXTURE_1M)
        return errors


class LocalLimitCSV(LocalLimit):
    """The same op with the CLI's default CSV output; not gated.

    Every op fails at the commit this benchmark was written against: the
    spec ``max_degree_ball:3,2&...`` is written unquoted, so the row has one
    field more than the header. It passes once ``records_to_csv`` quotes.
    """

    name = "local-limit-csv"

    def serialize(self, records):
        return self.lab.labcli.records_to_csv(records)

    def rows(self, text):
        return parse_csv(text)


class TinyGraphs(Workload):
    name = "tiny-graphs"
    capture = ()
    count_loops = False
    sequences = ([1, 1, 1, 1], [2, 2, 1, 1], [2, 2, 2, 2])
    draws = 8  # red/blue draws per sequence per op
    switchings = 8
    switch_n = 150
    trace_ops_per_s = 20.0

    def __init__(self, gclab):
        super().__init__(gclab)
        census = gclab.census
        self.seqs = [gclab.configuration.DegreeSequence(s) for s in self.sequences]
        self.prop = census.Conjunction((census.RootDegree(3), census.MaxDegreeBall(3, 1)))

    def op(self, seed, small=False):
        cfg, census, perc = self.lab.configuration, self.lab.census, self.lab.percolation
        rng = np.random.default_rng(seed)
        keep = self.evidence.append
        out = []
        for ds in self.seqs:
            for _ in range(self.draws):
                graph = cfg.to_multigraph(cfg.sample_pairing(ds, rng))
                simple = cfg.is_simple(graph)
                colored = perc.color_edges(graph, 0.5, rng)
                split = perc.split(colored)
                cc = census.components(split[0])
                keep(("draw", (graph,), simple))
                keep(("split", (colored,), split))
                keep(("components", (split[0],), cc))
                out.append((simple, split[2].degrees.tolist(), cc.sizes.tolist()))
        ds = cfg.sample_degree_sequence(self.dist, self.switch_n, rng)
        pairing = cfg.sample_pairing(ds, rng)
        for _ in range(self.switchings):
            i, j = rng.choice(pairing.pairs.shape[0], size=2, replace=False)
            pairing = cfg.apply_switching(pairing, int(i), int(j))
            graph = cfg.to_multigraph(pairing)
            cc = census.components(graph)
            mask = census.property_mask(graph, self.prop, cc)
            keep(("switch", (graph, ds), None))
            keep(("components", (graph,), cc))
            out.append((cc.largest, int(mask.sum())))
        simple_graph = cfg.sample_simple(ds, rng, 200)
        keep(("simple", (ds,), simple_graph))
        out.append(simple_graph.edges.tolist())
        return repr(out)

    def check(self, text):
        errors = []
        for tag, args, result in self.evidence:
            graph = args[0]
            if tag == "draw" and result != simple_by_keys(graph.edges, graph.n):
                errors.append(f"is_simple says {result} for edges {graph.edges.tolist()}")
            elif tag == "switch" and not np.array_equal(graph.degrees(), args[1].degrees):
                errors.append("a switching changed the degree sequence")
        return errors + super().check(text)


WORKLOADS = {w.name: w for w in (NearCritical, LocalLimit, LocalLimitCSV, TinyGraphs)}
