"""winspell benchmark: seeded synthetic inputs, three workloads, one client.

    python3 bench/run.py --workload eval-winnow --seed 0 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it measures the winspell package in
the checkout's ``src/`` and refuses to run without it. Commands run as
``python3 -m winspell`` (timed ones under ``bench/speedprobe.py``, traced ones
under ``bench/layertrace.py``, both calling ``winspell.cli.main``) with an
absolute PYTHONPATH and a fixed working directory, ``.bench_work/<workload>/``,
one at a time: a closed loop with a single client, each command starting when
the previous one ends.

``--trace 0`` generates the inputs (and, for classify-stream, trains the
models) at least three times, reporting the median as ``setup_s``; runs the
workload's timed commands twice untimed (warm-up, output checks and
``peak_rss_mb``); then repeats them until ``--seconds`` have passed and
reports the end-to-end metrics listed in BENCHMARK.json.

The times of ``--trace 0`` (``wall_s``, ``occurrences_per_s`` and
``setup_s``) are wall times scaled to a reference CPU speed by
``bench/speedprobe.py``, which times a short probe every 5 ms inside each
measured process: the host's vCPUs change speed by up to a factor of two
within seconds, which unscaled wall times cannot tell apart from a change in
the program. Unscaled walls are printed and kept in ``result.json``; the
per-layer times of ``--trace 1`` are unscaled.

``--trace 1`` alternates untraced repetitions with repetitions run under
``bench/layertrace.py``, which times each layer from outside, and reports the
per-layer metrics. Traced repetitions alternate two PYTHONHASHSEED values;
their counts must repeat exactly.

Every repetition's outputs are checked: exit codes, byte-identical outputs
across repetitions (and between traced and untraced runs), what the inputs
imply about them (planted occurrence counts, learners beating the baseline),
and, for seed 0, digests recorded in ``bench/reference.json``. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Each run also writes ``.bench_work/<workload>/result.json`` with every sample
and the digests of its outputs (``details.snapshot``). After a deliberate
change to the program's output, record the union of the snapshots of a seed-0
``--trace 0`` and ``--trace 1`` run as that workload's entry in
``bench/reference.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory

from gen import generate  # noqa: E402
from layertrace import LAYERS, ROOT_SPAN, read_spans, summarize  # noqa: E402
from speedprobe import SpeedProbe, scaled  # noqa: E402

REFERENCE_SEED = 0
MIN_SETUPS = 3
MIN_SETUP_SECONDS = 3.0
# Untimed repetitions before the timed ones: they warm the file cache, give
# the output checks their first snapshot and measure peak memory without the
# speed probe's table in the process.
WARMUP_REPS = 2
# Every run ends well inside the three minutes one run may take.
RUN_DEADLINE_S = 165.0
UNTRACED_HASH_SEED = "0"
TRACED_HASH_SEEDS = ("101", "202")


class SetupError(Exception):
    """The workload could not be prepared; no metric can be measured."""


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _env(hash_seed: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed, PYTHONIOENCODING="utf-8")
    return env


class Runner:
    """Launches workload commands in the work directory and keeps the tally
    of attempted and failed commands of the repetitions."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def launch(self, command: dict, hash_seed: str, spans: Path | None = None,
               probe: bool = False) -> dict:
        """Run one command to completion. Returns its exit code, wall time,
        the wall time scaled to reference CPU speed when ``probe`` is set
        (else None), peak RSS (from this child's own rusage) and stdout bytes."""
        logs = self.work / "logs"
        logs.mkdir(exist_ok=True)
        out_path, err_path = logs / f"{command['name']}.out", logs / f"{command['name']}.err"
        reading_path = logs / f"{command['name']}.speed.json"
        if spans is not None:
            argv = [sys.executable, str(BENCH / "layertrace.py"), str(SRC), str(spans),
                    command["name"], "--", *command["argv"]]
        elif probe:
            argv = [sys.executable, str(BENCH / "speedprobe.py"), str(reading_path),
                    "--", *command["argv"]]
        else:
            argv = [sys.executable, "-m", "winspell", *command["argv"]]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=_env(hash_seed),
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.errors.append(f"{command['name']} exited {proc.returncode}: "
                               + err_path.read_text(errors="replace").strip()[-300:])
        speed = None
        if probe and proc.returncode == 0:
            speed = scaled(wall, json.loads(reading_path.read_text()))
        return {
            "code": proc.returncode,
            "wall": wall,
            "scaled": speed,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_bytes(),
        }

    def fail(self, message: str, commands: int):
        """Record a failed check; ``commands`` is how many commands it fails."""
        self.failed += commands
        self.errors.append(message)

    def rep(self, commands: list, hash_seed: str, clear_out: bool,
            spans_dir: Path | None = None, probe: bool = False):
        """One repetition: the commands in order. Returns wall time (and,
        with ``probe``, its sum scaled to reference CPU speed), peak RSS, an
        output snapshot and, when traced, the span files."""
        if clear_out:
            shutil.rmtree(self.work / "out", ignore_errors=True)
        results = {}
        span_files = []
        start = time.perf_counter()
        for command in commands:
            spans = None
            if spans_dir is not None:
                spans = spans_dir / f"{command['name']}.jsonl"
                span_files.append(spans)
            results[command["name"]] = self.launch(command, hash_seed, spans, probe)
        wall = time.perf_counter() - start
        self.attempted += len(results)
        self.failed += sum(r["code"] != 0 for r in results.values())
        ok = all(r["code"] == 0 for r in results.values())
        return {
            "wall": wall,
            "scaled": sum(r["scaled"] for r in results.values()) if probe and ok else None,
            "rss_mb": max(r["rss_mb"] for r in results.values()),
            "ok": ok,
            "snapshot": snapshot(self.work / "out", results),
            "stdout": {name: r["stdout"] for name, r in results.items()},
            "span_files": span_files,
        }


def snapshot(out_dir: Path, results: dict) -> dict:
    """Digest of every output: files under out/ and each command's stdout."""
    snap = {f"out/{p.relative_to(out_dir).as_posix()}": _sha(p.read_bytes())
            for p in sorted(out_dir.rglob("*")) if p.is_file()}
    snap.update({f"{name}.stdout": _sha(r["stdout"]) for name, r in results.items()})
    return snap


# ---------------------------------------------------------------------------
# Output checks: what the generated inputs imply about the outputs.
# ---------------------------------------------------------------------------


def _slug(members) -> str:
    return "+".join(m.replace(" ", "-") for m in members)


def _bayes_occurrences(path: Path) -> list[int]:
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("occurrences\t"):
            return [int(n) for n in line.split("\t")[1:]]
    raise ValueError(f"{path.name}: no occurrences line")


def check_models(out_dir: Path, manifest: dict, systems) -> list[str]:
    """Each set has a model per system; Bayes models count exactly the
    planted occurrences of every member."""
    problems = []
    for members, counts in zip(manifest["members"], manifest["corpus_counts"]):
        for system in systems:
            path = out_dir / f"{_slug(members)}.{system}.model"
            if not path.is_file():
                problems.append(f"missing model {path.name}")
            elif system == "bayes" and _bayes_occurrences(path) != counts:
                problems.append(f"{path.name}: occurrences {_bayes_occurrences(path)} != planted {counts}")
    return problems


def check_eval(work: Path, manifest: dict, rep: dict) -> list[str]:
    """bayes and winnow beat the majority baseline OVERALL, and the per-set
    cases add up."""
    rows = [line.split("\t") for line in
            (work / "out" / "report.tsv").read_text(encoding="utf-8").splitlines()]
    header, body = rows[0], rows[1:]
    overall = dict(zip(header, body[-1]))
    problems = []
    if overall["confusion_set"] != "OVERALL" or len(body) != len(manifest["members"]) + 1:
        return ["report.tsv does not have one row per set plus OVERALL"]
    if sum(int(row[1]) for row in body[:-1]) != int(overall["cases"]):
        problems.append("per-set cases do not add up to OVERALL")
    for system in ("bayes", "winnow"):
        if not float(overall[system]) > float(overall["baseline"]):
            problems.append(f"{system} {overall[system]}% does not beat baseline "
                            f"{overall['baseline']}%")
    return problems


def check_train(work: Path, manifest: dict, rep: dict) -> list[str]:
    problems = check_models(work / "out", manifest, ["bayes"])
    written = len(list((work / "out").glob("*.model")))
    if written != len(manifest["members"]):
        problems.append(f"{written} model files for {len(manifest['members'])} sets")
    return problems


def check_classify(work: Path, manifest: dict, rep: dict) -> list[str]:
    """One suggestion per planted draft occurrence, with the member actually
    written; each learner is right more often than always choosing the
    training majority member, and fixes most of the draft's slips (where the
    written member is not the intended one)."""
    truth = manifest["draft_truth"]
    majority = {}
    for members, counts in zip(manifest["members"], manifest["corpus_counts"]):
        for member in members:
            majority[member] = members[0] if counts[0] >= counts[1] else members[1]
    baseline = sum(majority[written] == intended for written, intended in truth.values())
    problems = []
    for name, stdout in rep["stdout"].items():
        if not name.startswith("classify"):
            continue
        seen = {}
        lines = stdout.decode("utf-8").splitlines()
        for line in lines:
            line_no, _span, observed, suggested, flag, _scores = line.split("\t")
            if (flag == "ok") != (observed == suggested):
                problems.append(f"{name}: flag {flag} on line {line_no} disagrees")
            seen[int(line_no)] = (observed, suggested)
        if len(lines) != len(truth) or seen.keys() != truth.keys() or any(
            seen[n][0] != truth[n][0] for n in truth
        ):
            problems.append(f"{name}: suggestions do not match the planted occurrences")
            continue
        right = sum(seen[n][1] == truth[n][1] for n in truth)
        if right <= baseline:
            problems.append(f"{name}: {right}/{len(truth)} right, majority baseline {baseline}")
        slips = [n for n, (written, intended) in truth.items() if written != intended]
        fixed = sum(seen[n][1] == truth[n][1] for n in slips)
        if 2 * fixed <= len(slips):
            problems.append(f"{name}: fixed {fixed} of {len(slips)} slips")
    return problems + check_models(work / "out", manifest, ["bayes", "winnow"])


CHECKS = {"eval-winnow": check_eval, "train-50sets": check_train,
          "classify-stream": check_classify}


# ---------------------------------------------------------------------------
# Set-up, repetitions and metrics.
# ---------------------------------------------------------------------------


def setup(runner: Runner, spec: dict, seed: int, with_models: bool) -> tuple[dict, float, str]:
    """Generate the inputs into a fresh work directory and, if asked, train
    the workload's models. Returns the manifest, seconds taken (scaled to
    reference CPU speed) and a digest of everything set-up wrote."""
    shutil.rmtree(runner.work, ignore_errors=True)
    start = time.perf_counter()
    with runner.probe:
        manifest = generate(spec["generator"], seed, runner.work)
    elapsed = scaled(time.perf_counter() - start, runner.probe.reading())
    if with_models:
        for command in spec["model_setup"]:
            trained = runner.launch(command, UNTRACED_HASH_SEED, probe=True)
            if trained["code"] != 0:
                raise SetupError(runner.errors[-1])
            elapsed += trained["scaled"]
    files = sorted(p for p in runner.work.rglob("*") if p.is_file() and "logs" not in p.parts)
    digest = _sha(b"".join(p.name.encode() + _sha(p.read_bytes()).encode() for p in files))
    return manifest, elapsed, digest


def tail_percentile(samples: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    k = n - 10
    return f"p{100.0 * k / n:.0f}={sorted(samples)[k - 1]:.4f}, n={n}"


def check_rep(runner: Runner, rep: dict, reference: dict, what: str, commands: int):
    if not rep["ok"]:
        return
    if rep["snapshot"] != reference:
        changed = sorted(k for k in rep["snapshot"].keys() | reference.keys()
                         if rep["snapshot"].get(k) != reference.get(k))
        runner.fail(f"{what}: outputs differ in {', '.join(changed[:5])}", commands)


def first_rep_checks(runner: Runner, workload: str, spec: dict, manifest: dict,
                     rep: dict, seed: int, commands: int):
    """Checks on the first repetition; later ones must match its bytes."""
    if not rep["ok"]:
        return
    try:
        problems = CHECKS[workload](runner.work, manifest, rep)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if seed == REFERENCE_SEED:
        recorded = json.loads((BENCH / "reference.json").read_text())[workload]
        for key, digest in rep["snapshot"].items():
            if recorded.get(key) != digest:
                problems.append(f"{key} differs from the digest recorded for seed {seed}")
    if problems:
        runner.fail("; ".join(problems), commands)


def measure(runner, workload, spec, seed, seconds):
    """--trace 0: end-to-end metrics."""
    timed = spec["timed"]
    setups, manifest = [], None
    digests = set()
    setup_start = time.perf_counter()
    while len(setups) < MIN_SETUPS or time.perf_counter() - setup_start < MIN_SETUP_SECONDS:
        manifest, elapsed, digest = setup(runner, spec, seed, with_models=True)
        setups.append(elapsed)
        digests.add(digest)
    if len(digests) != 1:
        runner.fail("set-up is not deterministic", 0)
    clear_out = not spec["model_setup"]
    warmups = []
    for _ in range(WARMUP_REPS):
        rep = runner.rep(timed, UNTRACED_HASH_SEED, clear_out)
        if not warmups:
            first_rep_checks(runner, workload, spec, manifest, rep, seed, len(timed))
        else:
            check_rep(runner, rep, warmups[0]["snapshot"], "warm-up repetition", len(timed))
        warmups.append(rep)
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        if reps and time.monotonic() + 1.5 * reps[-1]["wall"] > runner.deadline:
            break
        rep = runner.rep(timed, UNTRACED_HASH_SEED, clear_out, probe=True)
        check_rep(runner, rep, warmups[0]["snapshot"], f"repetition {len(reps)}", len(timed))
        reps.append(rep)
    walls = [r["scaled"] for r in reps if r["scaled"] is not None] or [r["wall"] for r in reps]
    raw_walls = [r["wall"] for r in reps]
    occurrences = sum(manifest[c["processes"]] for c in timed)
    values = {
        "wall_s": statistics.median(walls),
        "occurrences_per_s": statistics.median(occurrences / w for w in walls),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in warmups),
        "setup_s": statistics.median(setups),
        "ok_frac": (runner.attempted - runner.failed) / runner.attempted,
    }
    print(f"workload {workload}, seed {seed}: {len(reps)} repetitions of "
          f"{', '.join(c['name'] for c in timed)}; closed loop, 1 client; "
          f"{occurrences} confusion-set occurrences per repetition")
    print(f"  wall_s tail: {tail_percentile(walls)}; setup_s tail: {tail_percentile(setups)}")
    print(f"  unscaled wall: median {statistics.median(raw_walls):.4f} s, "
          f"{tail_percentile(raw_walls)}")
    print(f"  failed_frac = {runner.failed}/{runner.attempted} commands")
    details = {"walls": walls, "raw_walls": raw_walls, "setups": setups,
               "rss_mb": [r["rss_mb"] for r in warmups], "snapshot": warmups[0]["snapshot"]}
    return values, details


def _layer_values(spans_by_command: list) -> dict:
    """Per-layer values of one traced repetition, named
    ``<module>.<function>.<measure>``."""
    totals: dict = {}
    for spans, wall in spans_by_command:
        summary = summarize(spans)
        self_sum = sum(entry["self_s"] for entry in summary.values())
        if abs(self_sum - wall) > 1e-4 + 1e-3 * wall:
            raise ValueError(f"layer self times add up to {self_sum:.6f} s, "
                             f"traced wall is {wall:.6f} s")
        for name, entry in summary.items():
            into = totals.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    values = {}
    for name, entry in totals.items():
        for key, value in entry.items():
            values[f"{name}.{key}"] = value

    def ratio(num, den):
        return values.get(num, 0) / values[den] if values.get(den) else 0.0

    values["winnow.train_network.presentations_per_s"] = ratio(
        "winnow.train_network.presentations", "winnow.train_network.self_s")
    values["winnow.train_network.update_ratio"] = ratio(
        "winnow.train_network.mistakes", "winnow.train_network.presentations")
    values["features.prune.retained_ratio"] = ratio(
        "features.prune.features_retained", "features.prune.features_considered")
    values["features.extract_active.active_ratio"] = ratio(
        "features.extract_active.active", "features.extract_active.generated")
    return values


def trace(runner, workload, spec, seed, seconds, per_layer):
    """--trace 1: per-layer metrics from traced repetitions."""
    manifest, _elapsed, _digest = setup(runner, spec, seed, with_models=False)
    commands = spec["model_setup"] + spec["timed"]
    untraced, traced = [], []
    spans_dir = runner.work / "spans"
    start = time.perf_counter()
    while (len(traced) < len(TRACED_HASH_SEEDS)
           or time.perf_counter() - start < seconds):
        if traced and time.monotonic() + 3 * traced[-1]["wall"] > runner.deadline:
            break
        rep = runner.rep(commands, UNTRACED_HASH_SEED, clear_out=True)
        if not untraced:
            first_rep_checks(runner, workload, spec, manifest, rep, seed, len(commands))
        else:
            check_rep(runner, rep, untraced[0]["snapshot"], "untraced repetition", len(commands))
        untraced.append(rep)
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
        hash_seed = TRACED_HASH_SEEDS[len(traced) % len(TRACED_HASH_SEEDS)]
        rep = runner.rep(commands, hash_seed, clear_out=True, spans_dir=spans_dir)
        check_rep(runner, rep, untraced[0]["snapshot"],
                  f"traced repetition (PYTHONHASHSEED={hash_seed})", len(commands))
        rep["layers"] = {}
        if rep["ok"]:
            try:
                rep["layers"] = _layer_values([read_spans(p) for p in rep["span_files"]])
            except ValueError as exc:
                runner.fail(f"trace: {exc}", len(commands))
        traced.append(rep)
    values = {}
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        samples = [rep["layers"].get(name, 0) for rep in traced]
        if unit in ("s", "1/s"):
            values[name] = statistics.median(samples)
        else:
            if len(set(samples)) != 1:
                runner.fail(f"{name} is not deterministic: {samples}", 0)
            values[name] = samples[0]
    values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                  - statistics.median(r["wall"] for r in untraced))
    ranked = sorted((v, k) for k, v in values.items() if k.endswith(".self_s"))
    print(f"workload {workload}, seed {seed}: {len(traced)} traced and {len(untraced)} "
          f"untraced repetitions of {', '.join(c['name'] for c in commands)}")
    print("  largest self times: " + ", ".join(f"{k} {v:.3f} s" for v, k in ranked[::-1][:5]))
    details = {"traced_walls": [r["wall"] for r in traced],
               "untraced_walls": [r["wall"] for r in untraced],
               "layers": [r["layers"] for r in traced],
               "snapshot": untraced[0]["snapshot"]}
    return values, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "winspell" / "cli.py").is_file():
        print(f"error: no winspell package under {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads), file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    metrics = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    if args.trace:
        known = {f"{module}.{fn}" for module, fn, _b, _a in LAYERS} | {ROOT_SPAN, "trace"}
        unknown = [m["name"] for m in metrics if m["name"].rsplit(".", 1)[0] not in known]
        if unknown:
            print(f"error: no layer measures {unknown}", file=sys.stderr)
            return 2

    # Importing once first compiles the package's bytecode, which users
    # also pay only once, and proves the checkout's src/ is what runs.
    probe = subprocess.run(
        [sys.executable, "-c", "import winspell.cli; print(winspell.cli.__file__)"],
        env=_env(UNTRACED_HASH_SEED), capture_output=True, text=True, timeout=60,
    )
    if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(SRC):
        print(f"error: cannot import winspell from {SRC}: {probe.stderr.strip()}",
              file=sys.stderr)
        return 1
    runner = Runner(WORK / args.workload, deadline)
    try:
        if args.trace:
            values, details = trace(runner, args.workload, spec, args.seed, args.seconds, metrics)
        else:
            values, details = measure(runner, args.workload, spec, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    for error in runner.errors:
        print(f"  FAILED: {error}")
    result = {
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    for m in metrics:
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']} ({m['better']} is better)")
    (runner.work / "result.json").write_text(
        json.dumps(dict(result, details=details), indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
