"""Self-test of the benchmark at tiny sizes (every depth at most 4).

    python3 perfbench/selftest.py

1. Runs all four workloads to their end at the tiny size, untraced and
   traced, and requires correct answers, no failed query and every metric.
2. Feeds the checks deliberately corrupted answers (a profile entry raised
   by one, a flipped witness colour, an inflated disjoint_count, ...) and
   requires each corruption to be rejected.

Exits 0 when everything holds and prints one line per step.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import run
import workloads
import checks

SEED = 7


def _json_edit(edit):
    def mutate(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return mutate


def _raise_csv_entry(text: str) -> str:
    lines = text.splitlines()
    i, v = lines[2].split(",")
    lines[2] = f"{i},{int(v) + 1}"
    return "\n".join(lines) + "\n"


def _raise_json_profile(doc: dict) -> None:
    doc["profile"][1][1] += 1


def _flip_dot_colour(text: str) -> str:
    """Paint the first white node black."""
    return re.sub(r"^  (\d+);$", r"  \1 [fillcolor=black, fontcolor=white];", text, count=1,
                  flags=re.M)


def _unbold_dot_edge(text: str) -> str:
    return text.replace(" [style=bold, penwidth=2.5]", "", 1)


def _bump(key: str, amount):
    def edit(doc: dict) -> None:
        doc[key] += amount
    return edit


def _set(key: str, value):
    def edit(doc: dict) -> None:
        doc[key] = value
    return edit


def _drop_member(doc: dict) -> None:
    doc["members"].pop(len(doc["members"]) // 2)
    doc["cardinality"] -= 1


def _drop_sandwich(doc: dict) -> None:
    doc["sandwich_pairs"].pop()


# (workload, query-name pattern, mutation, what it corrupts)
CORRUPTIONS = [
    ("profiles", r"^profile --kind node", _raise_csv_entry, "node profile entry raised by one"),
    ("profiles", r"^profile --kind leaf", _json_edit(_raise_json_profile), "leaf profile entry raised by one"),
    ("profiles", r"^export-dot .* b=", _flip_dot_colour, "one witness colour flipped"),
    ("profiles", r"^export-dot .* t=", _unbold_dot_edge, "one dichromatic edge not bold"),
    ("profiles", r"thm27", _json_edit(_bump("computed", 1)), "thm27 computed value raised"),
    ("profiles", r"cor25", _json_edit(_set("holds", False)), "cor25 reported as failing"),
    ("profiles", r"^width-bound", _json_edit(_set("paper_bound", "9/5")), "width paper bound changed"),
    ("profiles", r"^width-bound", _json_edit(_bump("certified_bound", 1)), "width certified bound raised"),
    ("profiles", r"^iso-bound", _json_edit(_bump("L_star", 1e-6)), "iso L* moved past the root"),
    ("profiles", r"^iso-bound", _json_edit(_set("bracket_width", 1e-6)), "iso bracket wider than 1e-9"),
    ("bsets", r"^bset -m 4", _json_edit(_drop_member), "one bset member dropped"),
    ("bsets", r"^bset -m 3", _json_edit(_set("extra", 1)), "bset output breaks the schema"),
    ("bsets", r"lemma22", _json_edit(_bump("computed", 0.5)), "lemma22 ratio changed"),
    ("sweep-dense", r"dfs-fill$", _json_edit(_bump("disjoint_count", 1)), "disjoint_count inflated"),
    ("sweep-dense", r"bfs-fill$", _json_edit(_bump("t0", -1)), "t0 moved one step early"),
    ("sweep-dense", r"uniform$", _json_edit(_drop_sandwich), "one sandwich pair dropped"),
    ("sweep-dense", r"^csv", _json_edit(_set("read", "0" * 64)), "round trip returning another array"),
    ("sweep-wide", r"random-monotone", _json_edit(_bump("certified_area", 1)), "certified area inflated"),
    ("sweep-wide", r"random-monotone", _json_edit(_bump("steps", 1)), "step count changed"),
]


def _answers(workload: str) -> tuple[list, dict[str, str]]:
    queries = workloads.build(workload, SEED, "tiny")
    answers = {}
    for q in queries:
        sample = run.spawn(run.request_for(q, traced=False, keep_csv=True))
        if sample.code != 0:
            raise SystemExit(f"FAIL {workload}: {q.name} exited {sample.code}: {sample.error}")
        answers[q.name] = sample.stdout
    return queries, answers


def _rejects(queries, answers: dict[str, str], target, mutate) -> bool:
    """Check every answer in workload order, the target one corrupted;
    True when some check raises."""
    ctx = checks.Context(root=run.ROOT)
    try:
        for q in queries:
            text = mutate(answers[q.name]) if q is target else answers[q.name]
            checks.check(q, text, ctx, run.csv_path(q))
    except checks.CheckError as exc:
        print(f"  rejected: {exc}")
        return True
    return False


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = run.run_workload(workload, SEED, 0, trace, size="tiny", log=lambda _: None)
            expected = set(run.per_layer_names("tiny")) if trace else {"query_s", "peak_rss_mb", "setup_s"}
            good = (result["correct"] and result["failed"] == 0
                    and set(result["metrics"]) == expected)
            ok &= good
            print(f"{'ok' if good else 'FAIL'} run {workload} trace={int(trace)}: "
                  f"attempted={result['attempted']} failed={result['failed']}")

    for workload in workloads.WORKLOADS:
        queries, answers = _answers(workload)
        good = not _rejects(queries, answers, None, None)
        ok &= good
        print(f"{'ok' if good else 'FAIL'} {workload}: untouched answers pass")
        for name, pattern, mutate, what in CORRUPTIONS:
            if name != workload:
                continue
            target = next(q for q in queries if re.search(pattern, q.name))
            caught = _rejects(queries, answers, target, mutate)
            ok &= caught
            print(f"{'ok' if caught else 'FAIL'} {workload}: {what} is rejected")
        csv_query = next((q for q in queries if q.kind == "csv"), None)
        if csv_query is not None:
            path = run.csv_path(csv_query)
            shutil.copy(path, path.with_suffix(".bak"))
            lines = path.read_text().splitlines()
            step, entry, _ = lines[-1].split(",")
            lines[-1] = f"{step},{entry},1.0"
            path.write_text("\n".join(lines) + "\n")
            caught = _rejects(queries, answers, None, None)
            shutil.move(path.with_suffix(".bak"), path)
            ok &= caught
            print(f"{'ok' if caught else 'FAIL'} {workload}: one CSV volume changed is rejected")

    q = workloads.Query("repeat", "cli", ("bset",))
    try:
        checks.check_repeats(q, ["a\n", "a\n", "b\n"])
        caught = False
    except checks.CheckError:
        caught = True
    ok &= caught
    print(f"{'ok' if caught else 'FAIL'} repeated samples that differ are rejected")
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
