"""Command-line interface: train, classify, eval, ablate, corrupt.

Flags may also come from a JSON config file (--config); explicit flags win.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from .corpus import (
    CorpusError,
    corrupt,
    load_confusion_sets,
    load_corpus,
    load_tag_dictionary,
    occurrences_by_set,
    tokenize,
)
from .evaluation import (
    ABLATION_LADDER,
    PROTOCOLS,
    SYSTEMS,
    ExperimentConfig,
    decide,
    load_system_model,
    run_experiment,
    save_system_model,
    train_system_model,
)
from .features import MODES, PRUNED, ExtractionParams, extract_active, prepare_set
from .winnow import WinnowParams

TRAINABLE_SYSTEMS = tuple(s for s in SYSTEMS if s != "baseline")

DEFAULTS = {
    "mode": PRUNED,
    "protocol": "within",
    "seed": 0,
    "cycles": 5,
    "corrupt_pct": 5.0,
    "k": 10,
    "l": 2,
}

# What a config value must be, by its flag's type (JSON true/false is no integer).
_CONFIG_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
    list: ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
}


class UsageError(Exception):
    pass


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--corpus", help="training corpus (presplit text)")
    parser.add_argument("--test-corpus", dest="test_corpus",
                        help="second corpus for across/supunsup protocols")
    parser.add_argument("--confusion-sets", dest="confusion_sets",
                        help="confusion-set file, one comma-separated set per line")
    parser.add_argument("--tagdict", help="tag dictionary file (word<TAB>tags)")
    parser.add_argument("--mode", help="feature regime: pruned|unpruned")
    parser.add_argument("--seed", type=int, help="PRNG seed (default 0)")
    parser.add_argument("--cycles", type=int, help="training passes (default 5)")
    parser.add_argument("--corrupt-pct", dest="corrupt_pct", type=float,
                        help="corruption percentage (default 5)")
    parser.add_argument("--protocol", help="within|across|supunsup")
    parser.add_argument("--out", help="output/model directory")
    parser.add_argument("--k", type=int, help="context window half-width (default 10)")
    parser.add_argument("--l", type=int, help="max collocation length (default 2)")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="winspell",
        description="Context-sensitive spelling correction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train models, one file per set per system")
    _add_common(p_train)
    p_train.add_argument("--system", help="system to train: " + "|".join(TRAINABLE_SYSTEMS))
    p_train.set_defaults(func=cmd_train)

    p_classify = sub.add_parser("classify", help="suggest members for occurrences in text")
    _add_common(p_classify)
    p_classify.add_argument("--system", help="system whose models to load")
    p_classify.add_argument("input", nargs="?", default="-",
                            help="input text file, '-' for stdin")
    p_classify.set_defaults(func=cmd_classify)

    report_columns = (
        "Report columns: confusion_set; cases (test occurrences); one "
        "percent-correct column per system; one McNemar p-value column per "
        "adjacent system pair. The OVERALL row pools cases across sets."
    )
    p_eval = sub.add_parser(
        "eval", help="run an experiment and write reports",
        description="Writes report.tsv and an aligned report.txt under --out. "
        + report_columns,
    )
    _add_common(p_eval)
    p_eval.add_argument("--system", action="append", dest="systems",
                        help="system to evaluate (repeatable)")
    p_eval.set_defaults(func=cmd_eval)

    p_ablate = sub.add_parser(
        "ablate", help="run the ablation ladder",
        description="Runs the fixed ladder (" + ", ".join(ABLATION_LADDER)
        + ") and writes ablation.tsv/.txt under --out. " + report_columns,
    )
    _add_common(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)

    p_corrupt = sub.add_parser("corrupt", help="write a corrupted corpus plus change log")
    _add_common(p_corrupt)
    p_corrupt.set_defaults(func=cmd_corrupt)
    return parser, sub.choices


def _merge_config(args: argparse.Namespace, subparsers: dict[str, argparse.ArgumentParser]):
    """Fill unset flags from the JSON config file, then from defaults. Each
    key must name a flag of some subcommand and hold a value of its type."""
    if getattr(args, "config", None):
        try:
            overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(overrides, dict):
            raise UsageError("config file must hold a JSON object")
        # Every subcommand's flags by dest; a dest has one type in all of them.
        flags = {a.dest: a for p in subparsers.values() for a in p._actions
                 if a.option_strings and a.dest != "help"}
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr not in flags:
                raise UsageError(f"config file: unknown key {key!r}")
            action = flags[attr]
            kind = list if isinstance(action, argparse._AppendAction) else action.type or str
            what, fits = _CONFIG_TYPES[kind]
            if not fits(value):
                raise UsageError(f"config file: {key!r} must be {what}, not {json.dumps(value)}")
            # Another subcommand's flag is set too, and nothing reads it.
            if getattr(args, attr, None) is None:
                setattr(args, attr, value)
    for key, value in DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, value)


def _require(args: argparse.Namespace, *names: str):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _validate_choice(value: str, choices, what: str):
    if value not in choices:
        raise UsageError(f"unknown {what}: {value!r} (choose from {', '.join(choices)})")


def cmd_train(args) -> int:
    _require(args, "corpus", "confusion_sets", "tagdict", "system", "out")
    _validate_choice(args.system, TRAINABLE_SYSTEMS, "system")
    _validate_choice(args.mode, MODES, "mode")
    extraction = ExtractionParams(args.k, args.l)
    wparams = WinnowParams(cycles=args.cycles)
    corpus = load_corpus(args.corpus)
    tagdict = load_tag_dictionary(args.tagdict)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    confusion_sets = load_confusion_sets(args.confusion_sets)
    # One corpus scan finds every set's occurrences; the sets are then
    # prepared and trained one at a time.
    for cset, occurrences in zip(confusion_sets, occurrences_by_set(corpus, confusion_sets)):
        stats, retained, stream = prepare_set(occurrences, cset, extraction, tagdict, args.mode)
        model = train_system_model(args.system, stats, retained, stream, wparams)
        path = outdir / f"{cset.slug}.{args.system}.model"
        save_system_model(model, path)
        print(f"wrote {path}")
    return 0


def cmd_classify(args) -> int:
    _require(args, "out", "system", "tagdict")
    _validate_choice(args.system, TRAINABLE_SYSTEMS, "system")
    paths = sorted(Path(args.out).glob(f"*.{args.system}.model"))
    if not paths:
        print(f"error: no {args.system} models under {args.out}", file=sys.stderr)
        return 1
    models = [load_system_model(p) for p in paths]
    tagdict = load_tag_dictionary(args.tagdict)
    if args.input == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.input).read_text(encoding="utf-8").splitlines()
    sentences = [tokenize(line, i) for i, line in enumerate(lines, start=1) if line.strip()]
    rows = []
    occurrence_lists = occurrences_by_set(sentences, [m.confusion_set for m in models])
    for model, occurrences in zip(models, occurrence_lists):
        cset, feature_ids = model.confusion_set, model.feature_ids
        for occ in occurrences:
            active = extract_active(occ, feature_ids, model.extraction, tagdict)
            decision = decide(model, active)
            observed = cset.member_text(occ.member_index)
            suggested = cset.member_text(decision.chosen)
            flag = "ok" if decision.chosen == occ.member_index else "fix"
            score_text = ",".join(
                f"{cset.member_text(i)}={score:.6g}"
                for i, score in enumerate(decision.scores)
            )
            line = occ.sentence.source_line
            rows.append((line, f"{line}\t{occ.span_start}:{occ.span_len}"
                               f"\t{observed}\t{suggested}\t{flag}\t{score_text}"))
    # Rows were built model by model; the stable sort by source line gives
    # (line, model path, span start) order.
    rows.sort(key=lambda row: row[0])
    for _, row in rows:
        print(row)
    return 0


def _run_report(args, systems, stem: str) -> int:
    _require(args, "corpus", "confusion_sets", "tagdict", "out")
    _validate_choice(args.mode, MODES, "mode")
    _validate_choice(args.protocol, PROTOCOLS, "protocol")
    for name in systems:
        _validate_choice(name, SYSTEMS, "system")
    report = run_experiment(ExperimentConfig(
        corpus=args.corpus,
        confusion_sets=args.confusion_sets,
        tagdict=args.tagdict,
        systems=tuple(systems),
        mode=args.mode,
        protocol=args.protocol,
        test_corpus=args.test_corpus,
        seed=args.seed,
        corrupt_pct=args.corrupt_pct,
        extraction=ExtractionParams(args.k, args.l),
        winnow=WinnowParams(cycles=args.cycles),
    ))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{stem}.tsv").write_text(report.to_tsv(), encoding="utf-8")
    (outdir / f"{stem}.txt").write_text(report.to_table(), encoding="utf-8")
    print(report.to_table(), end="")
    return 0


def cmd_eval(args) -> int:
    systems = args.systems or ["baseline", "bayes", "winnow"]
    return _run_report(args, systems, "report")


def cmd_ablate(args) -> int:
    return _run_report(args, ABLATION_LADDER, "ablation")


def cmd_corrupt(args) -> int:
    _require(args, "corpus", "confusion_sets", "out")
    sentences = load_corpus(args.corpus)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    log_lines = ["set\tsentence\tspan_start\told_member\tnew_member"]
    # Sets are corrupted one after another, each with its own derived seed.
    for i, cset in enumerate(load_confusion_sets(args.confusion_sets)):
        sentences, log = corrupt(sentences, cset, args.corrupt_pct, args.seed + i)
        for entry in log:
            log_lines.append(
                f"{cset.slug}\t{entry.sentence_index}\t{entry.span_start}"
                f"\t{entry.old_member}\t{entry.new_member}"
            )
    corpus_text = "\n".join(" ".join(s.surfaces) for s in sentences) + "\n"
    (outdir / "corrupted.txt").write_text(corpus_text, encoding="utf-8")
    (outdir / "changes.tsv").write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    print(f"wrote {outdir / 'corrupted.txt'} and {outdir / 'changes.tsv'}")
    return 0


def main(argv=None) -> int:
    # A command builds no reference cycles, so reference counting frees all
    # it drops, and the cyclic collector would only rescan live tuples, lists
    # and dicts: on the eval-winnow benchmark corpus (Python 3.11, 2-vCPU
    # Xeon) it ran 58 young and 6 middle collections for ~10 ms. A collection
    # after any command finds the same argparse garbage whatever the corpus
    # size. The caller's collector state is restored: tests call main
    # in-process.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, subparsers)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`): stop quietly. Point stdout
        # at devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (CorpusError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
