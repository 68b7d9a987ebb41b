"""One query sample in a fresh interpreter.

``python3 perfbench/worker.py <root>`` imports ``dichromat`` from
``<root>/src``, writes ``ready`` on stdout, then reads one JSON request
from stdin, answers it and writes one JSON result line.  The parent times
the span from process start to ``ready`` as set-up time.

Requests::

    {"kind": "cli", "argv": [...], "trace": bool}
        run dichromat.cli.main(argv) with stdout captured
    {"kind": "csv", "m": M, "path": FILE or absent, "trace": bool}
        generate an M-deep dfs-fill trace and round-trip it through CSV
        text; save the text to FILE if given
    {"kind": "ladder", "ladders": {"dp.node_profile": [11, 12], ...}}
        time one cold call of each function at each depth

With ``trace`` set, every public function of the layer modules is wrapped
in every namespace that binds it, and the result carries per-span self
time, call counts and the sizes of returned tables and traces.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import json
import resource
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("tree", "dp", "bounds", "metric", "sweepout", "cli")
MIB = 2 ** 20


class Tracer:
    """Self time, calls and returned sizes per ``<layer>.<function>`` span."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.sizes: defaultdict[str, float] = defaultdict(float)
        self.certificates: list = []
        self._child_time: list[float] = []

    def install(self) -> None:
        import dichromat

        modules = [importlib.import_module(f"dichromat.{name}") for name in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for namespace in (*modules, dichromat):
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(namespace, name, wrappers[obj])

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.self_s[span] += elapsed - children
                self.total_s[span] += elapsed
                self.calls[span] += 1
            self._record(span, result)
            return result

        return traced

    def _record(self, span: str, result) -> None:
        if span in ("dp.node_profile", "dp.leaf_profile"):
            arrays = [result.min_d, *getattr(result, "witness_seed", ())]
            self.sizes["dp.table_mb"] += sum(a.nbytes for a in arrays) / MIB
        elif span in ("sweepout.generate_trace", "sweepout.trace_read_csv"):
            steps = getattr(result, "steps", None)
            if steps is not None and hasattr(steps, "nbytes"):
                self.sizes["sweepout.trace_mb"] += steps.nbytes / MIB
                self.sizes["sweepout.trace_rows"] += steps.shape[0]
        elif span == "sweepout.certify":
            self.certificates.append(result)

    def probe_max_disjoint_pairs(self) -> float:
        """Seconds of dp.max_disjoint_pairs on every coloring certify
        produced; call after `report`, since the probe's own spans land in
        the tracer too."""
        from dichromat import dp

        start = perf_counter()
        for certificate in self.certificates:
            dp.max_disjoint_pairs(certificate.coloring)
        return perf_counter() - start

    def report(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "sizes": dict(self.sizes),
        }


def _peak_rss_mb() -> float:
    """Peak resident set of this process image.  ru_maxrss would also
    count the parent's pages, which Linux carries across fork and exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_cli(argv: list[str]) -> tuple[int, str, float]:
    from dichromat import cli

    buf = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue(), perf_counter() - start


def _run_csv(m: int, path: str | None) -> tuple[int, str, float]:
    """Generate a default-params dfs-fill trace and round-trip it through
    CSV text in memory, so that no file-system writeback lands in a later
    sample.  stdout carries the shape and digests of the array before and
    after and the digest of the CSV text; with ``path`` the text is saved
    there after timing, for the parent's own parse.
    """
    from dichromat import metric, sweepout

    start = perf_counter()
    trace = sweepout.generate_trace("dfs-fill", m, metric.BlockParams.default())
    buf = io.StringIO()
    sweepout.trace_write_csv(trace, buf)
    text = buf.getvalue()
    back = sweepout.trace_read_csv(io.StringIO(text), trace.graph, trace.step_bound)
    elapsed = perf_counter() - start
    if path:
        Path(path).write_text(text)
    out = json.dumps({
        "shape": list(trace.steps.shape),
        "written": hashlib.sha256(trace.steps.tobytes()).hexdigest(),
        "read": hashlib.sha256(back.steps.tobytes()).hexdigest(),
        "read_shape": list(back.steps.shape),
        "step_bound": trace.step_bound,
        "csv": hashlib.sha256(text.encode()).hexdigest(),
    }, sort_keys=True)
    return 0, out + "\n", elapsed


def _run_ladders(ladders: dict[str, list[int]]) -> dict[str, float]:
    """One cold call per depth; the feasible-pairs cache is per depth, so
    calls at rising depths in one process stay cold."""
    from dichromat import dp

    calls = {
        "dp.achievable_set": lambda m: dp.achievable_set(m, 1),
        "dp.node_profile": dp.node_profile,
        "dp.leaf_profile": dp.leaf_profile,
    }
    times = {}
    for span, depths in ladders.items():
        for m in depths:
            start = perf_counter()
            calls[span](m)
            times[f"{span}.m{m}_s"] = perf_counter() - start
    return times


def main(argv: list[str]) -> int:
    src = (Path(argv[1]) / "src").resolve()
    sys.path.insert(0, str(src))
    import dichromat.cli  # noqa: F401  (the set-up every CLI call pays)

    if src not in Path(dichromat.cli.__file__).resolve().parents:
        print(f"dichromat was imported from outside {src}", file=sys.stderr)
        return 2
    out = sys.stdout
    out.write("ready\n")
    out.flush()

    request = json.loads(sys.stdin.read())
    tracer = Tracer() if request.get("trace") else None
    if tracer:
        tracer.install()
    result: dict = {}
    if request["kind"] == "cli":
        code, stdout, elapsed = _run_cli(request["argv"])
    elif request["kind"] == "csv":
        code, stdout, elapsed = _run_csv(request["m"], request.get("path"))
    else:
        code, stdout, elapsed = 0, "", 0.0
        result["ladder"] = _run_ladders(request["ladders"])
    result.update(
        code=code,
        stdout=stdout,
        elapsed=elapsed,
        rss_mb=_peak_rss_mb(),
    )
    if tracer:
        result["trace"] = tracer.report()
        result["trace"]["probe_s"] = tracer.probe_max_disjoint_pairs()
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
