"""Outside-in layer tracer for the winspell benchmark.

Run as a child process in place of ``python -m winspell``:

    python3 bench/layertrace.py SRC_DIR SPANS_FILE RUN_ID -- <winspell arguments>

It imports winspell from SRC_DIR, wraps every function in ``LAYERS`` under
each name a winspell module binds it to (so ``features.collect_stats``
calling ``find_occurrences`` nests correctly), calls ``winspell.cli.main``
inside a root span, and writes the spans, one JSON array per line:
``[run_id, span_id, parent_id, name, start, end, counts]``, then one
object ``{"run": run_id, "wall": seconds}`` with main's wall time measured
outside the root span. Spans stay in memory until main returns. The exit
code is main's.

The library itself is not changed: all timing happens at the boundaries of
the listed public functions, and everything outside them is the root span's
self time (``cli.main.self_s``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT_SPAN = "cli.main"


def _network_state(args, kwargs):
    network = args[0] if args else kwargs["network"]
    return [
        (cloud.examples_seen, sum(c.mistakes for c in cloud.classifiers))
        for cloud in network.clouds
    ]


def _network_counts(before, args, kwargs, result):
    network = args[0] if args else kwargs["network"]
    presentations = mistakes = 0
    for (seen, wrong), cloud in zip(before, network.clouds):
        presentations += (cloud.examples_seen - seen) * len(cloud.classifiers)
        mistakes += sum(c.mistakes for c in cloud.classifiers) - wrong
    connections = sum(len(c.weights) for cloud in network.clouds for c in cloud.classifiers)
    return {"presentations": presentations, "mistakes": mistakes, "connections": connections}


def _file_bytes(index):
    def count(before, args, kwargs, result):
        return {"bytes": os.path.getsize(args[index])}
    return count


def _len_of(name):
    def count(before, args, kwargs, result):
        return {name: len(result)}
    return count


def _find_counts(before, args, kwargs, result):
    return {"sentences_scanned": len(args[0]), "occurrences": len(result)}


def _stats_counts(before, args, kwargs, result):
    return {"features_counted": len(result.counts)}


def _prune_counts(before, args, kwargs, result):
    return {"features_retained": len(result), "features_considered": len(args[0].counts)}


# (module, function, counts before the call, counts after it). Every name
# must exist: a refactor that renames or removes one stops the traced run
# instead of silently dropping a layer.
LAYERS = (
    ("corpus", "load_corpus", None, None),
    ("corpus", "tokenize", None, None),
    ("corpus", "find_occurrences", None, _find_counts),
    ("features", "generate_features", None, _len_of("features_out")),
    ("features", "collect_stats", None, _stats_counts),
    ("features", "prune", None, _prune_counts),
    ("features", "extract_active", None, _len_of("active")),
    ("bayes", "train_bayes", None, None),
    ("bayes", "classify_bayes", None, None),
    ("bayes", "save_model", None, _file_bytes(1)),
    ("bayes", "load_model", None, _file_bytes(0)),
    ("winnow", "train_network", _network_state, _network_counts),
    ("winnow", "classify_winnow", None, None),
    ("winnow", "save_network", None, _file_bytes(1)),
    ("winnow", "load_network", None, _file_bytes(0)),
    ("evaluation", "split_corpus", None, None),
    ("evaluation", "evaluate_systems", None, None),
    ("evaluation", "train_system_model", None, None),
)


class Tracer:
    """Span recorder for one process: a stack of open span ids and the list
    of closed spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = [0]
        self.next_id = 1

    def wrap(self, name, fn, before, after):
        perf_counter = time.perf_counter

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(span_id)
            span = [self.run_id, span_id, parent, name, perf_counter(), 0.0, None]
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                self.stack.pop()
                self.spans.append(span)
            if after:
                span[6] = after(state, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Rebind every LAYERS function in every loaded module of ``package``."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module_name, fn_name, before, after in LAYERS:
            home = sys.modules.get(f"{package.__name__}.{module_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                raise SystemExit(
                    f"trace: layer function {package.__name__}.{module_name}.{fn_name} "
                    "does not exist; update bench/layertrace.py LAYERS"
                )
            wrapper = self.wrap(f"{module_name}.{fn_name}", original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def run_root(self, fn, *args):
        """Call ``fn`` as the root span; returns (result, wall seconds measured
        outside the span)."""
        outer = time.perf_counter()
        result = self.wrap(ROOT_SPAN, fn, None, None)(*args)
        return result, time.perf_counter() - outer


def summarize(spans) -> dict:
    """Per span name: calls, self seconds and summed counts. Raises
    ValueError if a span does not lie inside its parent.

    ``features.extract_active`` additionally gets ``generated``: the
    ``features_out`` of the ``generate_features`` calls it made.
    """
    by_key = {(s[0], s[1]): s for s in spans}
    child_time: dict = {}
    for run_id, span_id, parent, name, start, end, _counts in spans:
        if parent:
            p = by_key[(run_id, parent)]
            if not (p[4] <= start <= end <= p[5]):
                raise ValueError(f"span {name} lies outside its parent {p[3]}")
            child_time[(run_id, parent)] = child_time.get((run_id, parent), 0.0) + end - start
    out: dict = {}
    for run_id, span_id, parent, name, start, end, counts in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time.get((run_id, span_id), 0.0)
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        if name == "features.generate_features" and parent:
            if by_key[(run_id, parent)][3] == "features.extract_active":
                caller = out.setdefault("features.extract_active", {"calls": 0, "self_s": 0.0})
                caller["generated"] = caller.get("generated", 0) + counts["features_out"]
    return out


def read_spans(path: Path) -> tuple[list, float]:
    """The spans of one traced command and its wall time."""
    with open(path, encoding="utf-8") as fh:
        *spans, tail = [json.loads(line) for line in fh]
    return spans, tail["wall"]


def _main(argv) -> int:
    src, spans_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: layertrace.py SRC_DIR SPANS_FILE RUN_ID -- ARGS...")
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import winspell
    import winspell.cli

    if not Path(winspell.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"trace: imported winspell from {winspell.__file__}, not {src}")
    tracer = Tracer(run_id)
    tracer.install(winspell)
    code, wall = tracer.run_root(winspell.cli.main, cli_args)
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
        fh.write(json.dumps({"run": run_id, "wall": wall}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
