"""One workload run in a fresh interpreter: the measuring side of run.py.

Usage (run.py starts it; it is not meant to be started by hand):
    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE

Prints one JSON object for run.py; failed checks go to standard error.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, ROOT, Patches, Tracer, capture
from workloads import REG3, WORKLOADS, janson_means, loops_and_multi_pairs

# The four counts that must repeat exactly for a given seed and --seconds.
EXACT_COUNTS = (
    "configuration.sample_simple.attempts",
    "branching.solve_x_plus.iterations",
    "census.components.calls",
    "distributions.sample.calls",
)
MAX_ERRORS_SHOWN = 5


def import_gclab(root: Path):
    """Import gclab from ROOT/src and refuse any other copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import gclab

    for layer in LAYERS:
        importlib.import_module(f"gclab.{layer}")
    where = Path(gclab.__file__).resolve()
    if not where.is_relative_to(src.resolve() / "gclab"):
        raise SystemExit(f"gclab imported from {where}, not from {src}")
    return gclab


def environment(gclab) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "gclab_file": gclab.__file__,
    }


class Run:
    """Op loop with correctness accounting; latencies in seconds.

    Every op that returns has its latency kept, also when a check fails for
    it; failures are counted apart, so a wrong answer never looks faster.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.latencies = []
        self.attempted = 0
        self.failed_ops = set()
        self.errors = []
        self.first_output = None

    def one(self, i: int, timed_call, repeat: bool = False):
        """Run op i through timed_call(op) -> (text, seconds); check it."""
        if not repeat:
            self.attempted += 1
        try:
            text, seconds = timed_call(lambda: self.workload.op(self.seed + i))
            problems = self.workload.check(text)
        except Exception:  # an op that raises is a failed op, not a crash
            self.workload.evidence.clear()
            self.fail(i, [traceback.format_exc(limit=3)])
            return None
        if not repeat:
            self.latencies.append(seconds)
        if problems:
            self.fail(i, problems)
        if i == 0 and not repeat:
            self.first_output = text
        return text

    def fail(self, i: int, problems: list[str]) -> None:
        self.failed_ops.add(i)
        self.errors.extend(f"op {i}: {p}" for p in problems)

    def rerun_first(self, timed_call) -> None:
        """Op 0 again, untimed, after everything else: its output must not change."""
        text = self.one(0, timed_call, repeat=True)
        if text is not None and text != self.first_output:
            self.fail(0, ["re-running op 0 gave different output"])

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def plain(op):
    start = perf_counter()
    result = op()
    return result, perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That is the 11th-largest latency, at percentile 100*(N-10)/N; with ten
    ops or fewer no percentile qualifies and the maximum is reported.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], f"max of {n} ops"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} ops"


@contextmanager
def capturing(workload):
    """Capture the workload's evidence at layer boundaries, untimed."""
    patches = Patches()
    for module, attr in workload.capture:
        capture(patches, getattr(workload.lab, module), attr, workload.evidence, attr)
    try:
        yield
    finally:
        patches.undo()


def warm_up(workload, seed: int) -> None:
    """A small op first, so lazy imports and caches are not timed."""
    with capturing(workload):
        workload.op(seed, small=True)
    workload.evidence.clear()


def end_to_end(workload, seed: int, seconds: float) -> dict:
    warm_up(workload, seed)
    run = Run(workload, seed)
    deadline = perf_counter() + seconds
    i = 0
    with capturing(workload):
        while i == 0 or perf_counter() < deadline:
            run.one(i, plain)
            i += 1
        run.rerun_first(plain)
    lat = run.latencies
    if not lat:
        raise SystemExit("no op completed: " + "; ".join(run.errors[:MAX_ERRORS_SHOWN]))
    tail_s, tail_note = tail(lat)
    ms = 1000.0
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * ms, "ms"),
        "op_tail_ms": (tail_s * ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "op_tail_ms": tail_note,
        "ops_per_s": "returned ops / summed op latency (checks excluded)",
        "error_rate": f"{run.failed / run.attempted:.6g} ({run.failed} failed of {run.attempted} attempted)",
    }
    return run, metrics, notes


def traced_run(workload, gclab, seed: int, seconds: float) -> tuple:
    """Ops 0..k-1, each untraced and then traced; op 0 traced again at the end.

    Alternating the two passes op by op keeps drift in the machine's speed
    out of the tracing overhead. The op set is fixed by --seconds, so every
    count repeats exactly for a given seed.
    """
    k = max(1, round(seconds * workload.trace_ops_per_s))
    stats = Counter()
    max_residual = [0.0]

    def keep(tag):
        return lambda args, result, parent: workload.evidence.append((tag, args, result))

    def solver(args, result, parent):
        stats["iterations"] += result.iterations
        max_residual[0] = max(max_residual[0], result.residual)

    def graph_made(args, result, parent):
        if workload.count_loops:
            loops, pairs = loops_and_multi_pairs(result.edges, result.n)
            stats["graphs"] += 1
            stats["loops"] += loops
            stats["multi_pairs"] += pairs

    def trees(args, result, parent):
        stats["tree_samples"] += args[2]

    observers = {f"{m}.{a}": keep(a) for m, a in workload.capture}
    observers.update(
        {
            "branching.solve_x_plus": solver,
            "configuration.to_multigraph": graph_made,
            "branching.tree_property_probability": trees,
        }
    )
    tracer = Tracer(observers)
    op_counts = {}

    def timed(op):
        before = stats.copy()
        tracer.install(gclab)
        try:
            result, op_seconds = tracer.run_op(op)
        finally:
            tracer.uninstall()
        counts = tracer.fold(op_seconds)
        counts.update({f"stat:{key}": v for key, v in (stats - before).items()})
        op_counts.setdefault("first", counts)
        op_counts["last"] = counts
        return result, op_seconds

    warm_up(workload, seed)
    untraced, traced = Run(workload, seed), Run(workload, seed)
    for i in range(k):
        with capturing(workload):
            untraced.one(i, plain)
        traced.one(i, timed)
    with capturing(workload):
        untraced.rerun_first(plain)
    traced.rerun_first(timed)
    if op_counts.get("first") != op_counts.get("last"):
        traced.fail(0, ["op 0 traced twice gave different call counts"])
    rho_at_pc = gclab.branching.rho(
        gclab.distributions.thin(gclab.distributions.from_json_doc(REG3), 0.5)
    )
    overhead = sum(traced.latencies) / sum(untraced.latencies) if untraced.latencies else 0.0
    metrics = layer_metrics(tracer, stats, max_residual[0], rho_at_pc, overhead)
    loops_mean, pairs_mean = janson_means(workload.dist)
    notes = {
        "traced_ops": f"{k} (ops 0..{k - 1} untraced and traced in turn, then op 0 again)",
        "janson": f"loops/graph {metrics['configuration.loops_per_graph'][0]:.4g} vs nu/2 = "
        f"{loops_mean:.4g}; parallel pairs/graph "
        f"{metrics['configuration.multi_edges_per_graph'][0]:.4g} vs nu^2/4 = {pairs_mean:.4g}",
        "self_sum": self_sum_note(tracer, overhead),
        "exact_counts": {name: metrics[name][0] for name in EXACT_COUNTS},
    }
    return Merged(untraced, traced), metrics, notes


class Merged:
    """Failure accounting of the untraced and traced passes together."""

    def __init__(self, *runs):
        self.failed = sum(r.failed for r in runs)
        self.attempted = sum(r.attempted for r in runs)
        self.errors = [e for r in runs for e in r.errors]


def self_sum_note(tracer: Tracer, overhead: float) -> str:
    layers = sum(tracer.layer_self_s(layer) for layer in LAYERS)
    share = layers / tracer.op_s if tracer.op_s else 0.0
    return (
        f"layer self times sum to {100 * share:.2f}% of the traced op time; the rest "
        f"({100 * (1 - share):.2f}%) is benchmark glue and wrapper cost outside spans "
        f"(tracing overhead {100 * (overhead - 1):.1f}%)"
    )


def layer_metrics(tr: Tracer, stats: Counter, max_residual: float, rho_at_pc: float, overhead: float) -> dict:
    per_op = 1000.0 / tr.ops

    def self_ms(name):
        return (tr.self_s[name] * per_op, "ms")

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{layer}.self_ms": (tr.layer_self_s(layer) * per_op, "ms") for layer in LAYERS}
    m["bench.self_ms"] = self_ms(ROOT)
    m["trace.op_ms"] = (tr.op_s * per_op, "ms")
    for fn in (
        "sample_degree_sequence",
        "sample_pairing",
        "to_multigraph",
        "is_simple",
        "adjacency_csr",
        "apply_switching",
    ):
        m[f"configuration.{fn}.self_ms"] = self_ms(f"configuration.{fn}")
    calls = tr.layer_calls("configuration")
    m["configuration.calls"] = (calls, "count")
    m["configuration.us_per_call"] = (1e6 * ratio(tr.layer_self_s("configuration"), calls), "us")
    attempts = tr.nested[("configuration.sample_simple", "configuration.is_simple")]
    m["configuration.sample_simple.attempts"] = (attempts, "count")
    m["configuration.sample_simple.accept_ratio"] = (
        ratio(tr.calls["configuration.sample_simple"], attempts),
        "ratio",
    )
    m["configuration.loops_per_graph"] = (ratio(stats["loops"], stats["graphs"]), "count")
    m["configuration.multi_edges_per_graph"] = (ratio(stats["multi_pairs"], stats["graphs"]), "count")
    comp = "census.components"
    m[f"{comp}.self_ms"] = self_ms(comp)
    m[f"{comp}.calls"] = (tr.calls[comp], "count")
    m[f"{comp}.us_per_call"] = (1e6 * ratio(tr.total_s[comp], tr.calls[comp]), "us")
    m["census.property_mask.self_ms"] = self_ms("census.property_mask")
    for fn in ("color_edges", "split", "thinned_sequence_distance"):
        m[f"percolation.{fn}.self_ms"] = self_ms(f"percolation.{fn}")
    m["branching.solve_x_plus.self_ms"] = self_ms("branching.solve_x_plus")
    m["branching.solve_x_plus.iterations"] = (stats["iterations"], "count")
    m["branching.solve_x_plus.max_residual"] = (max_residual, "1")
    m["branching.rho_at_pc"] = (rho_at_pc, "1")
    tpp = "branching.tree_property_probability"
    m[f"{tpp}.self_ms"] = self_ms(tpp)
    m["branching.sample_truncated_tree.self_ms"] = self_ms("branching.sample_truncated_tree")
    m["branching.tree_samples_per_s"] = (ratio(stats["tree_samples"], tr.total_s[tpp]), "1/s")
    m["branching.rho_k_table.self_ms"] = self_ms("branching.rho_k_table")
    m["distributions.sample.calls"] = (tr.calls["distributions.sample"], "count")
    m["distributions.sample.self_ms"] = self_ms("distributions.sample")
    m["distributions.thin.self_ms"] = self_ms("distributions.thin")
    cmd_s = sum(s for name, s in tr.self_s.items() if name.startswith("labcli.cmd_"))
    m["labcli.cmd.self_ms"] = (cmd_s * per_op, "ms")
    serialize_s = tr.self_s["labcli.records_to_csv"] + tr.self_s["labcli.records_to_json"]
    m["labcli.serialize.self_ms"] = (serialize_s * per_op, "ms")
    m["tracing_overhead"] = (overhead, "ratio")
    return m


def main(argv: list[str]) -> int:
    root, name, seed, seconds, trace = Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    gclab = import_gclab(root)
    workload = WORKLOADS[name](gclab)
    if trace:
        run, metrics, notes = traced_run(workload, gclab, seed, seconds)
    else:
        run, metrics, notes = end_to_end(workload, seed, seconds)
    for err in run.errors[:MAX_ERRORS_SHOWN]:
        print(f"CHECK FAILED {err}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "environment": environment(gclab),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
