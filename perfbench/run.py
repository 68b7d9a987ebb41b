"""Benchmark of the dichromat CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's fixed query set (see workloads.py) through
``dichromat.cli.main`` in round-robin rounds until the next round would
overrun ``--seconds`` (a plain run does at least two rounds, a traced
run one).  Every query sample runs in a
fresh worker process, one at a time: a closed loop with one query in
flight.  Every answer is checked (checks.py) and repeated samples must
print byte-identical stdout.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are

    query_s      per query, the median sample's wall time around
                 cli.main (stdout capture included, import excluded),
                 summed over the query set
    peak_rss_mb  largest peak RSS of any worker (MB = 2**20 bytes)
    setup_s      median over the run's workers of the time from spawning
                 the interpreter to ``import dichromat.cli`` done

With ``--trace 1`` each round runs every query twice, untraced and
traced, and the metrics are the per-layer ones named by
`per_layer_names`; a per-query breakdown goes to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKER = HERE / "worker.py"
MIN_ROUNDS = 2
WORKER_TIMEOUT_S = 150

# per-layer metric -> unit; `_s` self time, `_calls` count, `_mb`/`_rows`
# size of returned objects.  Ladder names are added from workloads.SIZES.
SPAN_METRICS = (
    "dp.achievable_set", "dp.node_profile", "dp.leaf_profile", "dp.witness",
    "tree.count_dichromatic", "bounds.verify", "metric.region_graph",
    "metric.width_lower_bound", "metric.iso_profile_lower_bound",
    "sweepout.generate_trace", "sweepout.validate_trace",
    "sweepout.find_special_slice", "sweepout.induce_coloring", "sweepout.certify",
    "sweepout.trace_write_csv", "sweepout.trace_read_csv",
)
CALL_METRICS = ("dp.achievable_set", "dp.node_profile", "dp.leaf_profile",
                "tree.count_dichromatic")
SIZE_METRICS = {"dp.table_mb": "MB", "sweepout.trace_mb": "MB", "sweepout.trace_rows": "count"}


@dataclass
class Sample:
    code: int
    stdout: str
    elapsed: float
    setup: float
    rss_mb: float
    trace: dict | None = None
    ladder: dict | None = None
    error: str = ""


@dataclass
class QueryStats:
    plain: list[Sample] = field(default_factory=list)
    traced: list[Sample] = field(default_factory=list)

    def median(self, traced: bool) -> Sample | None:
        """The median successful sample by wall time (the lower of the two
        middle ones for an even count), or None."""
        ok = sorted((s for s in (self.traced if traced else self.plain) if s.code == 0),
                    key=lambda s: s.elapsed)
        return ok[(len(ok) - 1) // 2] if ok else None


def spawn(request: dict) -> Sample:
    """Run one request in a fresh worker and wait for it to end."""
    env = {k: v for k, v in os.environ.items() if k != "DICHROMAT_MAX_M"}
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(ROOT)], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        out, err = proc.communicate(json.dumps(request), timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = "", f"no answer within {WORKER_TIMEOUT_S}s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if ready != "ready\n" or proc.returncode != 0 or not lines:
        return Sample(-1, "", 0.0, setup, 0.0, error=f"worker failed: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return Sample(
        code=result["code"], stdout=result["stdout"], elapsed=result["elapsed"],
        setup=setup, rss_mb=result["rss_mb"], trace=result.get("trace"),
        ladder=result.get("ladder"), error=err.strip()[-2000:],
    )


def csv_path(query) -> Path:
    return OUT / f"roundtrip-m{query.m}.csv"


def request_for(query, traced: bool, keep_csv: bool = False) -> dict:
    """The worker request for one sample; ``keep_csv`` saves a round
    trip's CSV text for the checks."""
    if query.kind == "csv":
        request = {"kind": "csv", "m": query.m, "trace": traced}
        if keep_csv:
            OUT.mkdir(exist_ok=True)
            request["path"] = str(csv_path(query))
        return request
    return {"kind": "cli", "argv": list(query.argv), "trace": traced}


def per_layer_names(size: str) -> dict[str, str]:
    names = {f"{span}_s": "s" for span in SPAN_METRICS}
    names.update({f"{span}_calls": "count" for span in CALL_METRICS})
    for span, depths in workloads.SIZES[size]["ladders"].items():
        names.update({f"{span}.m{m}_s": "s" for m in depths})
    names.update(SIZE_METRICS)
    names.update({
        "dp.max_disjoint_pairs_s": "s",
        "cli.main_s": "s",
        "cli.self_s": "s",
        "bench.tracing_overhead_s": "s",
    })
    return names


def layer_metrics(queries, stats: dict[str, QueryStats], ladder: dict, size: str) -> tuple[dict, list]:
    """Per-layer values from each query's median traced sample, plus the
    per-query breakdown they were summed from."""
    values = dict.fromkeys(per_layer_names(size), 0.0)
    breakdown = []
    for q in queries:
        sample = stats[q.name].median(traced=True)
        if sample is None or stats[q.name].median(traced=False) is None:
            continue
        tr = sample.trace
        for span in SPAN_METRICS:
            values[f"{span}_s"] += tr["self_s"].get(span, 0.0)
        for span in CALL_METRICS:
            values[f"{span}_calls"] += tr["calls"].get(span, 0)
        for name in SIZE_METRICS:
            values[name] = max(values[name], tr["sizes"].get(name, 0.0))
        values["dp.max_disjoint_pairs_s"] += tr["probe_s"]
        values["cli.main_s"] += tr["total_s"].get("cli.main", 0.0)
        values["cli.self_s"] += sum(v for k, v in tr["self_s"].items() if k.startswith("cli."))
        breakdown.append({"query": q.name, "elapsed": sample.elapsed, **tr})
        values["bench.tracing_overhead_s"] += (
            sample.elapsed - stats[q.name].median(traced=False).elapsed)
    values.update(ladder)
    return values, breakdown


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", log=print) -> dict:
    """Measure and check one workload; return the result object."""
    queries = workloads.build(workload, seed, size)
    stats = {q.name: QueryStats() for q in queries}
    attempted = failed = rounds = 0
    start = perf_counter()
    ladder = {}
    if trace:
        ladder = spawn({"kind": "ladder", "ladders": workloads.SIZES[size]["ladders"]}).ladder or {}
    rounds_start = perf_counter()
    while True:
        for q in queries:
            for traced in ((False, True) if trace else (False,)):
                sample = spawn(request_for(q, traced, keep_csv=rounds == 0 and not traced))
                attempted += 1
                if sample.code != 0:
                    failed += 1
                    log(f"# FAILED {q.name} (exit {sample.code}): {sample.error}")
                (stats[q.name].traced if traced else stats[q.name].plain).append(sample)
        rounds += 1
        now = perf_counter()
        next_round_end = now - start + (now - rounds_start) / rounds
        if rounds >= (1 if trace else MIN_ROUNDS) and next_round_end > seconds:
            break

    measured = perf_counter() - start
    correct = True
    ctx = checks.Context(root=ROOT)
    for q in queries:
        samples = [s for s in stats[q.name].plain + stats[q.name].traced if s.code == 0]
        if not samples:
            continue
        try:
            checks.check_repeats(q, [s.stdout for s in samples])
            checks.check(q, samples[0].stdout, ctx, csv_path(q))
        except checks.CheckError as exc:
            correct = False
            log(f"# CHECK FAILED {exc}")

    for q in queries:
        ok = [s for s in stats[q.name].plain if s.code == 0]
        if ok:
            times = [s.elapsed for s in ok]
            log(f"# {q.name}: n={len(times)} median={stats[q.name].median(False).elapsed:.4f}s "
                f"fastest={min(times):.4f}s slowest={max(times):.4f}s "
                f"rss={max(s.rss_mb for s in ok):.1f}MB")
    log(f"# {workload} seed={seed}: {rounds} rounds in {measured:.1f}s, "
        f"checks {perf_counter() - start - measured:.1f}s")

    if trace:
        values, breakdown = layer_metrics(queries, stats, ladder, size)
        OUT.mkdir(exist_ok=True)
        detail = OUT / f"trace-{workload}-seed{seed}.json"
        detail.write_text(json.dumps({"workload": workload, "seed": seed, "queries": breakdown,
                                      "ladder": ladder}, indent=1, sort_keys=True))
        units = per_layer_names(size)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    else:
        medians = [st.median(traced=False) for st in stats.values()]
        plain = [s for st in stats.values() for s in st.plain]
        metrics = {
            "query_s": {"value": sum(s.elapsed for s in medians if s), "unit": "s"},
            "peak_rss_mb": {"value": max(s.rss_mb for s in plain), "unit": "MB"},
            "setup_s": {"value": statistics.median(s.setup for s in plain), "unit": "s"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if not (ROOT / "src" / "dichromat" / "__init__.py").is_file():
        print(f"dichromat: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
