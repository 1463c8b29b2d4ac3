"""Command-line lab: seeded experiments comparing simulation to theory.

Subcommands
-----------
analyze        closed-form report for a distribution spec (no simulation)
giant          giant/small-component fractions vs. their predicted limits
sweep          percolation curve over a retention-probability grid
local-census   local property counts vs. their exact limit-tree probability

Every stochastic run records its seed; per-trial generators are spawned as
``SeedSequence(entropy=master_seed, spawn_key=(trial, ...))``, a keyed hash
of the master seed, so results do not depend on scheduling or parallelism.
Serialized output is byte-identical across repeated runs with equal flags.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import branching, census, configuration, distributions, percolation
from .census import (
    ComponentSizeAtLeast,
    ComponentSizeExactly,
    Conjunction,
    LocalProperty,
    MaxDegreeBall,
    RootDegree,
)
from .distributions import Distribution
from .errors import (
    DegenerateDistribution,
    Exhausted,
    GCLabError,
    NoThreshold,
    SpecParseError,
    UnboundedRadius,
)

DEGENERATE_CAVEAT = (
    "degrees only 0 and 2 (no mass on degree 1 or on degrees >= 3): the offspring "
    "law is Z = 1, every component is a cycle or a lone vertex, and the largest "
    "cycle holds a random share of the vertices, so survival quantities have no limit"
)


@dataclass
class ExperimentRecord:
    """One seeded run: what was measured next to what theory predicts."""

    experiment: str
    params: dict
    observed: dict
    predicted: dict


def trial_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent substream for one trial; stable under any scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    )


def parse_property_spec(text: str) -> LocalProperty:
    """Parse a property spec like ``root_degree:3`` or ``max_degree_ball:4,2``.

    Conjunctions join clauses with ``&``. Properties without a finite radius
    (anything asking about infinite components) are rejected.
    """
    clauses = [c.strip() for c in text.split("&") if c.strip()]
    if not clauses:
        raise SpecParseError("empty property spec")
    parts = [_parse_property_clause(c) for c in clauses]
    return parts[0] if len(parts) == 1 else Conjunction(tuple(parts))


def _parse_property_clause(clause: str) -> LocalProperty:
    name, _, arg = clause.partition(":")
    name = name.strip().lower()
    if name in ("component_infinite", "component_at_least_infinity"):
        raise UnboundedRadius("infinite-component predicates have no finite radius")
    try:
        if name == "root_degree":
            return RootDegree(int(arg))
        if name == "component_exactly":
            return ComponentSizeExactly(int(arg))
        if name == "component_at_least":
            return ComponentSizeAtLeast(int(arg))
        if name == "max_degree_ball":
            delta_text, t_text = arg.split(",")
            return MaxDegreeBall(int(delta_text), int(t_text))
    except (ValueError, TypeError) as exc:
        raise SpecParseError(f"bad property arguments in {clause!r}") from exc
    raise SpecParseError(f"unknown property {name!r}")


# ---------------------------------------------------------------------------
# analyze


def _survival(law: Distribution) -> branching.SurvivalSolution | None:
    """The survival fixed point of degree law ``law``, or None on {0, 2},
    where L1/n and the giant's shares have no limit; so
    ``getattr(_survival(law), "rho", None)`` is the limit of L1/n or None."""
    try:
        return branching.solve_x_plus(law)
    except DegenerateDistribution:
        return None


def cmd_analyze(dist: Distribution, k_max: int = 20) -> dict:
    """Closed-form summary: moments, survival, small-tree masses, threshold."""
    report: dict = {
        "mean_degree": distributions.mean(dist),
        "supercriticality": distributions.supercriticality(dist),
        "truncated_mass": dist.truncated_mass,
        "caveat": None,
        "mean_offspring": None,
        "x_plus": None,
        "rho": None,
        "rho_k": None,
        "p_c": None,
        "giant_degree_fractions": None,
        "rho_k_tail": None,
        "solver_iterations": None,
        "solver_residual": None,
    }
    if report["mean_degree"] <= 0.0:
        report["caveat"] = "E(D) = 0: no edges and no offspring law; every vertex is isolated"
    else:
        report["mean_offspring"] = distributions.mean(distributions.offspring(dist))
    table = branching.rho_k_table(dist, k_max)
    report["rho_k"] = [float(x) for x in table.rho_k]
    report["rho_k_tail"] = table.tail
    try:
        report["p_c"] = branching.critical_percolation(dist)
    except NoThreshold:
        pass
    solution = _survival(dist)
    if solution is None:
        report["caveat"] = DEGENERATE_CAVEAT
        return report
    report["x_plus"] = solution.x_plus
    report["rho"] = solution.rho
    report["solver_iterations"] = solution.iterations
    report["solver_residual"] = solution.residual
    report["giant_degree_fractions"] = {str(d): share for d, share in solution.giant_shares.items()}
    return report


# ---------------------------------------------------------------------------
# giant


def _trial_graph(
    dist: Distribution,
    n: int,
    seed: int,
    trial: int,
    simple: bool = False,
    max_attempts: int = 200,
    with_degrees: bool = False,
) -> configuration.MultiGraph | tuple[configuration.MultiGraph, np.ndarray]:
    """The graph of one trial, from the substream keyed by the trial alone:
    its degrees, then a pairing of them (``simple``: the first simple one).
    The degree sequence dies at return, so a census runs beside the graph
    alone; ``with_degrees`` returns (graph, its degree array) instead, for a
    caller that reads the degrees and drops them before its census."""
    rng = trial_rng(seed, trial)
    ds = configuration.sample_degree_sequence(dist, n, rng)
    if simple:
        graph = configuration.sample_simple(ds, rng, max_attempts)
    else:
        graph = configuration.sample_multigraph(ds, rng)
    return (graph, ds.degrees) if with_degrees else graph


def cmd_giant(
    dist: Distribution,
    n: int,
    trials: int,
    seed: int,
    simple: bool = False,
    max_attempts: int = 200,
    k_small: int = 10,
) -> list[ExperimentRecord]:
    """Sample graphs, take the component census, and pair it with the limits."""
    predicted_rho = getattr(_survival(dist), "rho", None)
    predicted_rho_k = [float(x) for x in branching.rho_k_table(dist, k_small).rho_k]
    records = []
    for trial in range(trials):
        cen = census.components(_trial_graph(dist, n, seed, trial, simple, max_attempts))
        observed = {
            "L1_over_n": cen.largest / n,
            "L2_over_n": cen.second_largest / n,
        }
        predicted = {"L1_over_n": predicted_rho, "L2_over_n": 0.0}
        for k in range(1, k_small + 1):
            observed[f"N{k}_over_n"] = cen.vertices_in_components_of_size(k) / n
            predicted[f"N{k}_over_n"] = predicted_rho_k[k - 1]
        del cen  # else it would live on beside the next trial's draw
        records.append(
            ExperimentRecord(
                experiment="giant",
                params={"n": n, "trial": trial, "seed": seed, "simple": simple},
                observed=observed,
                predicted=predicted,
            )
        )
    return records


# ---------------------------------------------------------------------------
# percolation sweep


def cmd_percolation_sweep(
    dist: Distribution,
    n: int,
    p_grid: list[float],
    trials: int,
    seed: int,
) -> list[ExperimentRecord]:
    """Percolate one graph per trial over the whole grid of retention probs.

    The graph stream is keyed by the trial alone (so the p = 1 column matches
    ``giant`` runs with the same master seed). Each edge gets one uniform
    mark from the substream keyed by (trial, 1), and the graph at p keeps
    the rows marked below p, so a row depends on (seed, trial, p) alone and
    a repeated p repeats its row. The distinct p are visited in ascending
    order, and each census grows from the last by the rows that enter at p.
    ``conf_distance_red`` is the configuration distance from the retained
    degrees to thin(dist, p): its concentration is what reduces the
    percolated graph to a configuration draw on the thinned law.
    """
    for p in p_grid:
        distributions.check_probability(p)
    grid = sorted(set(p_grid))
    thinned = {p: distributions.thin(dist, p) for p in grid}
    # Only the floats are kept: a solution alive through the censuses moved
    # glibc's heap into about 1,200 more page faults per op at n = 10^5.
    predictions = {p: getattr(_survival(law), "rho", None) for p, law in thinned.items()}
    records = []
    for trial in range(trials):
        # Each array goes once its last reader is done: the graph once the
        # levels are cut, each level once the census and the degrees have
        # read it, and each census once L1 and L2 are read, so only its
        # parent array, grown in place by the next, outlives it.
        levels = percolation.retention_levels(
            _trial_graph(dist, n, seed, trial), grid, trial_rng(seed, trial, 1)
        )
        levels.reverse()
        parent, degrees, observed = None, np.zeros(n, dtype=np.int64), {}
        for p in grid:
            level = levels.pop()
            cen = census.components(level, start=parent)
            parent, l1, l2 = cen.parent, cen.largest, cen.second_largest
            del cen
            # The retained degrees grow by the level's row ends, a loop's twice.
            np.add.at(degrees, level.edges.ravel(), 1)
            del level
            distance = configuration.conf_distance(degrees, thinned[p])
            observed[p] = (l1 / n, l2 / n, distance)
        for p in p_grid:
            l1, l2, distance = observed[p]
            records.append(
                ExperimentRecord(
                    experiment="sweep",
                    params={"n": n, "trial": trial, "seed": seed, "p": p},
                    observed={
                        "L1_over_n": l1,
                        "L2_over_n": l2,
                        "conf_distance_red": distance,
                    },
                    predicted={
                        "L1_over_n": predictions[p],
                        "L2_over_n": 0.0,
                        "conf_distance_red": None,
                    },
                )
            )
    return records


# ---------------------------------------------------------------------------
# local census


def cmd_local_census(
    dist: Distribution,
    n: int,
    property_spec: str,
    seed: int,
    samples=None,
) -> ExperimentRecord:
    """Count a local property over one sampled graph and in its giant only.

    The exact limit-tree prediction comes first, so a spec past its caps is
    refused before any sampling. Nothing reads ``samples``; perfbench's
    local-limit op still passes it positionally, and it goes with that call.
    """
    prop = parse_property_spec(property_spec)
    predicted_whole = branching.limit_probability(dist, prop)
    solution = _survival(dist) if isinstance(prop, RootDegree) else None
    predicted_giant = None if solution is None else solution.giant_shares.get(prop.d, 0.0)
    graph, degrees = _trial_graph(dist, n, seed, 0, with_degrees=True)
    mask = census.degree_and_ball_mask(graph, prop, degrees)
    del degrees  # else they would sit beside the census
    whole, giant = census.property_counts(graph, prop, mask)
    return ExperimentRecord(
        experiment="local-census",
        params={"n": n, "seed": seed, "property": property_spec},
        observed={
            "whole_fraction": whole / n,
            "giant_fraction": giant / n,
        },
        predicted={
            "whole_fraction": predicted_whole,
            "giant_fraction": predicted_giant,
        },
    )


# ---------------------------------------------------------------------------
# serialization

# Header version and params columns per kind; the version counts column changes.
_CSV_LAYOUT = {
    "giant": (1, ["trial", "seed", "n", "simple"]),
    "sweep": (1, ["p", "trial", "seed", "n"]),
    "local-census": (2, ["n", "seed", "property"]),
}


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records: list[ExperimentRecord]) -> str:
    """Fixed, versioned CSV: params columns, then observed, then predicted."""
    if not records:
        return "# gclab v1 empty\n"
    kind = records[0].experiment
    version, param_cols = _CSV_LAYOUT[kind]
    obs_cols = list(records[0].observed)
    pred_cols = [f"pred_{c}" for c in records[0].predicted]
    columns = param_cols + obs_cols + pred_cols
    out = io.StringIO()
    out.write(f"# gclab {kind} v{version} columns: {','.join(columns)}\n")
    # Minimal quoting: only fields holding a comma or a quote, such as the
    # property spec max_degree_ball:3,2, are quoted.
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        row = [_format_value(rec.params.get(c)) for c in param_cols]
        row += [_format_value(rec.observed.get(c)) for c in obs_cols]
        row += [_format_value(rec.predicted.get(c[5:])) for c in pred_cols]
        writer.writerow(row)
    return out.getvalue()


def records_to_json(records: list[ExperimentRecord]) -> str:
    return json.dumps([asdict(r) for r in records], sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gclab",
        description="Configuration-model giant-component laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dist", required=True, help="path to a JSON distribution spec")
        p.add_argument("--n", type=int, default=100_000, help="number of vertices")
        p.add_argument("--seed", type=int, default=0, help="master seed (u64)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_analyze = sub.add_parser("analyze", help="closed-form report, no simulation")
    p_analyze.add_argument("--dist", required=True)
    p_analyze.add_argument("--kmax", type=int, default=20)
    p_analyze.add_argument("--out", default=None)

    p_giant = sub.add_parser("giant", help="giant/small component experiment")
    common(p_giant)
    p_giant.add_argument("--trials", type=int, default=5)
    p_giant.add_argument("--simple", action="store_true", help="reject until simple")
    p_giant.add_argument("--max-attempts", type=int, default=200)
    p_giant.add_argument("--kmax", type=int, default=10, help="small-component range")

    p_sweep = sub.add_parser("sweep", help="percolation sweep over a p grid")
    common(p_sweep)
    p_sweep.add_argument("--trials", type=int, default=1)
    p_sweep.add_argument(
        "--p",
        required=True,
        help="comma-separated retention probabilities, e.g. 0.4,0.5,0.6",
    )

    p_local = sub.add_parser("local-census", help="local property count experiment")
    common(p_local)
    p_local.add_argument(
        "--property",
        required=True,
        help="root_degree:D | component_exactly:K | component_at_least:K | "
        "max_degree_ball:DELTA,T (join clauses with &)",
    )
    return parser


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise SpecParseError(f"bad probability grid {text!r}") from exc
    if not grid:
        raise SpecParseError("empty probability grid")
    return grid


# Size flags that must be >= 1; whichever of them a subcommand has.
_POSITIVE_FLAGS = ("n", "trials", "kmax", "max_attempts")


def _check_flags(args) -> None:
    """Refuse sizes below 1, a --kmax past MAX_COMPONENT_SIZE (the
    small-component series is quadratic in it) and negative seeds before
    any work starts."""
    for name in _POSITIVE_FLAGS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            flag = "--" + name.replace("_", "-")
            raise SpecParseError(f"{flag} must be >= 1, got {value}")
    kmax = getattr(args, "kmax", None)
    if kmax is not None and kmax > branching.MAX_COMPONENT_SIZE:
        raise SpecParseError(
            f"--kmax must be <= MAX_COMPONENT_SIZE = {branching.MAX_COMPONENT_SIZE}, got {kmax}"
        )
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise SpecParseError(f"--seed must be >= 0, got {seed}")


def run(args) -> int:
    _check_flags(args)
    dist = distributions.load_spec(args.dist)
    if args.command == "analyze":
        report = cmd_analyze(dist, args.kmax)
        _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)
        return 0
    if args.command == "giant":
        records = cmd_giant(
            dist,
            args.n,
            args.trials,
            args.seed,
            simple=args.simple,
            max_attempts=args.max_attempts,
            k_small=args.kmax,
        )
    elif args.command == "sweep":
        records = cmd_percolation_sweep(
            dist, args.n, _parse_grid(args.p), args.trials, args.seed
        )
    elif args.command == "local-census":
        records = [cmd_local_census(dist, args.n, args.property, args.seed)]
    else:  # pragma: no cover - argparse enforces the choices
        raise SpecParseError(f"unknown command {args.command!r}")
    text = records_to_csv(records) if args.format == "csv" else records_to_json(records)
    _emit(text, args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except Exhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GCLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
