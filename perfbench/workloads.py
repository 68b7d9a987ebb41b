"""The benchmark's workloads: fixed sets of CLI queries at the default caps.

Every workload exists in two sizes.  ``full`` is what the benchmark
measures; ``tiny`` keeps every depth at or below 4 so the self-test can
run all four workloads in seconds and compare against brute force.

Free inputs (extra witness indices, ``d`` values, random-monotone seeds)
are drawn from the benchmark's ``--seed``; everything else is fixed, so
the same seed always yields the same query list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("profiles", "bsets", "sweep-dense", "sweep-wide")

# Exact rational parameters of the sweep-wide workload (the README example),
# relative to the checkout root, which is every worker's working directory.
WIDE_PARAMS = Path(Path(__file__).resolve().parent.name, "params", "wide.params").as_posix()

# b*, the smallest black count at the node-profile peak, at the depths the
# profiles workload uses; it is only a witness index here, not a check.
B_STAR = {3: 2, 14: 2641}

SIZES = {
    "full": {
        "profile_m": 14,
        # bset -m 8 (5-7 s a sample, 2-4 samples a run) spread 29% between
        # runs on a shared host; its cost stays measured by the m=8 ladder
        "bset_ms": (7, 6, 5),
        "lemma22_m": 7,
        "dense_m": 8,
        "csv_m": 5,
        "wide_m": 14,
        "ladders": {
            "dp.achievable_set": (5, 6, 7, 8),
            "dp.node_profile": (11, 12, 13, 14),
            "dp.leaf_profile": (11, 12, 13, 14),
        },
    },
    "tiny": {
        "profile_m": 3,
        "bset_ms": (4, 3, 2),
        "lemma22_m": 3,
        "dense_m": 3,
        "csv_m": 2,
        "wide_m": 4,
        "ladders": {
            "dp.achievable_set": (1, 2, 3, 4),
            "dp.node_profile": (1, 2, 3, 4),
            "dp.leaf_profile": (1, 2, 3, 4),
        },
    },
}


@dataclass(frozen=True)
class Query:
    """One query of a workload.

    ``kind`` is ``cli`` (``argv`` goes to ``dichromat.cli.main``) or
    ``csv`` (a write/read round trip of an ``m``-deep dfs-fill trace).
    """

    name: str
    kind: str
    argv: tuple[str, ...] = ()
    m: int = 0


def a_of_m(m: int) -> int:
    """Closed form of the leaf-profile peak index: round(2**m / 3)."""
    return (2 ** m + (1 if m % 2 else -1)) // 3


def _cli(*argv: object) -> Query:
    args = tuple(str(a) for a in argv)
    return Query(name=" ".join(args), kind="cli", argv=args)


def _profiles(rng: random.Random, size: dict) -> list[Query]:
    m = size["profile_m"]
    n = 2 ** (m + 1) - 1
    queries = [
        _cli("profile", "--kind", "node", "-m", m),
        _cli("profile", "--kind", "leaf", "-m", m, "--format", "json"),
    ]
    for which in ("thm27", "lipschitz_node", "lipschitz_leaf", "cor25"):
        queries.append(_cli("verify", "--which", which, "-m", m))
    queries.append(_cli("width-bound", "-m", m))
    queries.append(_cli("iso-bound", "-m", m))
    queries.append(_cli("export-dot", "-m", m, "--witness", f"b={B_STAR[m]}"))
    queries.append(_cli("export-dot", "-m", m, "--witness", f"t={a_of_m(m)}"))
    queries.append(_cli("export-dot", "-m", m, "--witness", f"b={rng.randint(1, n)}"))
    queries.append(_cli("export-dot", "-m", m, "--witness", f"t={rng.randint(0, 2 ** m)}"))
    return queries


def _bsets(rng: random.Random, size: dict) -> list[Query]:
    queries = [_cli("bset", "-m", m, "-d", rng.randint(1, 2 * m)) for m in size["bset_ms"]]
    queries.append(_cli("verify", "--which", "lemma22", "-m", size["lemma22_m"]))
    return queries


def _sweep_dense(rng: random.Random, size: dict) -> list[Query]:
    m = size["dense_m"]
    queries = [
        _cli("sweepout", "-m", m, "--strategy", strategy)
        for strategy in ("dfs-fill", "bfs-fill", "uniform")
    ]
    m_csv = size["csv_m"]
    queries.append(Query(name=f"csv round trip dfs-fill -m {m_csv}", kind="csv", m=m_csv))
    return queries


def _sweep_wide(rng: random.Random, size: dict) -> list[Query]:
    m = size["wide_m"]
    return [
        _cli("sweepout", "-m", m, "--strategy", "random-monotone",
             "--seed", rng.randrange(2 ** 31), "--params", WIDE_PARAMS)
        for _ in range(3)
    ]


_BUILDERS = {
    "profiles": _profiles,
    "bsets": _bsets,
    "sweep-dense": _sweep_dense,
    "sweep-wide": _sweep_wide,
}


def build(workload: str, seed: int, size: str = "full") -> list[Query]:
    """The query list of ``workload`` for ``seed``; names are unique."""
    rng = random.Random(f"{workload}:{seed}")
    queries = _BUILDERS[workload](rng, SIZES[size])
    names = [q.name for q in queries]
    if len(set(names)) != len(names):
        # two seeded indices collided with a fixed one; keep the list whole
        queries = [
            Query(f"{q.name} #{i}", q.kind, q.argv, q.m) for i, q in enumerate(queries)
        ]
    return queries
