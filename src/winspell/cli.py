"""Command-line interface: train, classify, eval, ablate, corrupt.

Flags may also come from a JSON config file (--config); explicit flags win.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from pathlib import Path

from .corpus import (
    CorpusError,
    corrupt,
    load_confusion_sets,
    load_corpus,
    load_tag_dictionary,
    occurrences_by_set,
    read_text,
    sentences_of,
)
from .evaluation import (
    ABLATION_LADDER,
    PROTOCOLS,
    SYSTEMS,
    TRAINABLE_SYSTEMS,
    ExperimentConfig,
    TrainingSet,
    decide,
    load_system_model,
    run_experiment,
    save_system_model,
    train_system_model,
)
from .features import MODES, ExtractionParams, extract_active, require_occurrences

# The experiment's defaults, ExperimentConfig's and its ExtractionParams', by
# field name: every default a flag has is one of these.
_DEFAULTS = {**ExperimentConfig._field_defaults, **ExtractionParams()._asdict()}
_DEFAULT_SYSTEMS = _DEFAULTS["systems"]

# Every flag, by the attribute it sets: (type, default, choices, help). The
# type parses the command line and checks a config value; a list flag
# repeats, each value a string, and its help says its default. ``systems``
# is eval's repeatable --system.
FLAGS = {
    "config": (str, None, (), "JSON config file; flags override it"),
    "corpus": (str, None, (), "training corpus (presplit text)"),
    "test_corpus": (str, None, (), "second corpus for across/supunsup protocols"),
    "confusion_sets": (str, None, (), "confusion-set file, one comma-separated set per line"),
    "tagdict": (str, None, (), "tag dictionary file (word<TAB>tags)"),
    "out": (str, None, (), "output/model directory"),
    "system": (str, None, TRAINABLE_SYSTEMS, "system to train, or whose models to load"),
    "systems": (list, _DEFAULT_SYSTEMS, SYSTEMS, "system to evaluate (repeatable; default "
                + ", ".join(_DEFAULT_SYSTEMS[:-1]) + f" and {_DEFAULT_SYSTEMS[-1]})"),
    "mode": (str, _DEFAULTS["mode"], MODES, "feature regime"),
    "protocol": (str, _DEFAULTS["protocol"], PROTOCOLS, "experiment protocol"),
    "seed": (int, _DEFAULTS["seed"], (), "PRNG seed"),
    "cycles": (int, _DEFAULTS["cycles"], (), "training passes"),
    "corrupt_pct": (float, _DEFAULTS["corrupt_pct"], (), "corruption percentage"),
    "k": (int, _DEFAULTS["k"], (), "context window half-width"),
    "l": (int, _DEFAULTS["l"], (), "max collocation length"),
}

_EXPERIMENT = ("mode", "protocol", "test_corpus", "seed", "corrupt_pct", "cycles", "k", "l")

# The flags each subcommand takes besides --config: those it requires, in the
# order a missing one is reported, then the others. Choices are checked in
# this order too. train draws nothing at random but takes --seed, so that a
# script can pass train the seed it passes eval, as acceptance check c09 does.
COMMANDS = {
    "train": (("corpus", "confusion_sets", "tagdict", "system", "out"),
              ("mode", "cycles", "k", "l", "seed")),
    "classify": (("out", "system", "tagdict"), ()),
    "eval": (("corpus", "confusion_sets", "tagdict", "out"), (*_EXPERIMENT, "systems")),
    "ablate": (("corpus", "confusion_sets", "tagdict", "out"), _EXPERIMENT),
    "corrupt": (("corpus", "confusion_sets", "out"), ("seed", "corrupt_pct")),
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


def _option(dest: str) -> str:
    return "--system" if dest == "systems" else "--" + dest.replace("_", "-")


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with the flags of ``command`` only;
    of all of them if ``command`` names none."""
    parser = argparse.ArgumentParser(
        prog="winspell",
        description="Context-sensitive spelling correction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    report_columns = (
        "Report columns: confusion_set; cases (test occurrences); one "
        "percent-correct column per system; one McNemar p-value column per "
        "adjacent system pair. The OVERALL row pools cases across sets."
    )
    for name, func, texts in (
        ("train", cmd_train, {"help": "train models, one file per set per system"}),
        ("classify", cmd_classify, {"help": "suggest members for occurrences in text"}),
        ("eval", cmd_eval, {
            "help": "run an experiment and write reports",
            "description": "Writes report.tsv and an aligned report.txt under --out. "
            + report_columns,
        }),
        ("ablate", cmd_ablate, {
            "help": "run the ablation ladder",
            "description": "Runs the fixed ladder (" + ", ".join(ABLATION_LADDER)
            + ") and writes ablation.tsv/.txt under --out. " + report_columns,
        }),
        ("corrupt", cmd_corrupt, {"help": "write a corrupted corpus plus change log"}),
    ):
        p = sub.add_parser(name, **texts)
        p.set_defaults(func=func, refused=None)
        if command in COMMANDS and name != command:
            continue
        required, optional = COMMANDS[name]
        for dest in ("config", *required, *optional):
            kind, default, choices, text = FLAGS[dest]
            if choices:
                text += ": " + "|".join(choices)
            if default is not None and kind is not list:
                text += f" (default {default})"
            parse = {"action": "append"} if kind is list else {"type": kind}
            p.add_argument(_option(dest), dest=dest, help=text, **parse)
        # Flags the subcommand does not take are taken, hidden, with their value
        # for the usage error to name; else classify's input would take it.
        taken = {_option(dest) for dest in ("config", *required, *optional)}
        for option in sorted({_option(dest) for dest in FLAGS} - taken):
            p.add_argument(option, dest="refused", action="append", help=argparse.SUPPRESS,
                           type=lambda value, option=option: f"{option} {value}")
        if name == "classify":
            p.add_argument("input", nargs="?", default="-", help="input text file, '-' for stdin")
    return parser


def _resolve_flags(args: argparse.Namespace):
    """Fill the subcommand's unset flags from the JSON config file, then from
    the defaults, and check them. Each config key must name a flag of some
    subcommand and hold a value of its type; one this subcommand does not
    take is checked and then ignored."""
    required, optional = COMMANDS[args.command]
    dests = (*required, *optional)
    if args.config is not None:  # "" too: an empty path is unreadable
        import json
        try:
            with open(args.config, encoding="utf-8") as fh:
                overrides = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(overrides, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in overrides.items():
            dest = key.replace("-", "_")
            if dest not in FLAGS:
                raise UsageError(f"config file: unknown key {key!r}")
            what, fits = _CONFIG_TYPES[FLAGS[dest][0]]
            if not fits(value):
                raise UsageError(f"config file: {key!r} must be {what}, not {json.dumps(value)}")
            if dest in dests and getattr(args, dest) is None:
                setattr(args, dest, value)
    for dest in dests:
        if getattr(args, dest) is None:
            setattr(args, dest, FLAGS[dest][1])
    for dest in required:
        if getattr(args, dest) is None:
            raise UsageError(f"missing required option {_option(dest)}")
    for dest in dests:
        kind, _, choices, _ = FLAGS[dest]
        value = getattr(args, dest)
        name = _option(dest)[2:]
        if kind is list and not value:
            raise UsageError(f"empty {name} list")
        if choices and value is not None:
            for i, v in enumerate(value if kind is list else [value]):
                if v not in choices:
                    raise UsageError(f"unknown {name}: {v!r} (choose from {', '.join(choices)})")
                if kind is list and v in value[:i]:
                    raise UsageError(f"{name} {v!r} is listed twice")


def _extraction(args) -> ExtractionParams:
    # train, eval and ablate check --k and --l, then --cycles, before any input.
    extraction = ExtractionParams(args.k, args.l)
    if args.cycles < 1:
        raise ValueError("cycles must be >= 1")
    return extraction


def cmd_train(args) -> int:
    extraction = _extraction(args)
    corpus = load_corpus(args.corpus)
    tagdict = load_tag_dictionary(args.tagdict)
    outdir = Path(args.out)
    confusion_sets = load_confusion_sets(args.confusion_sets)
    paths = [outdir / f"{cset.slug}.{args.system}.model" for cset in confusion_sets]
    # The longest file name --out's file system takes, asked of --out or its
    # nearest existing parent; 255 bytes where the system cannot say.
    try:
        existing = next((p for p in (outdir, *outdir.parents) if p.exists()), outdir)
        name_max = os.pathconf(existing, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):
        name_max = -1
    name_max = name_max if name_max > 0 else 255
    # One corpus scan finds every set's occurrences. Every set is checked
    # before --out is made for the first model, so a refused run writes none;
    # the sets are then prepared and trained one at a time.
    occurrence_lists = occurrences_by_set(corpus, confusion_sets)
    for cset, occurrences, path in zip(confusion_sets, occurrence_lists, paths):
        where = f"confusion set {{{cset.label}}}: model file {path}"
        if path.parent != outdir:  # as for a member token "/"
            raise ValueError(f"{where} is not in {outdir}")
        if len(os.fsencode(path.name)) > name_max:
            raise ValueError(f"{where} has a name longer than {name_max} bytes")
        require_occurrences(occurrences, cset)
    for cset, occurrences, path in zip(confusion_sets, occurrence_lists, paths):
        training = TrainingSet(occurrences, cset, extraction, tagdict, args.mode)
        model = train_system_model(args.system, training, args.cycles)
        outdir.mkdir(parents=True, exist_ok=True)
        save_system_model(model, path)
        print(f"wrote {path}")
    return 0


def cmd_classify(args) -> int:
    paths = sorted(Path(args.out).glob(f"*.{args.system}.model"))
    if not paths:
        print(f"error: no {args.system} models under {args.out}", file=sys.stderr)
        return 1
    models = [load_system_model(p) for p in paths]
    tagdict = load_tag_dictionary(args.tagdict)
    if args.input == "-":
        text = read_text("<stdin>", sys.stdin.buffer.read())
    else:
        text = read_text(args.input)
    sentences = sentences_of(text)
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
        extraction=_extraction(args),
        cycles=args.cycles,
    ))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / f"{stem}.tsv").write_text(report.to_tsv(), encoding="utf-8")
    (outdir / f"{stem}.txt").write_text(report.to_table(), encoding="utf-8")
    print(report.to_table(), end="")
    return 0


def cmd_eval(args) -> int:
    return _run_report(args, args.systems, "report")


def cmd_ablate(args) -> int:
    return _run_report(args, ABLATION_LADDER, "ablation")


def cmd_corrupt(args) -> int:
    sentences = load_corpus(args.corpus)
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
    outdir = Path(args.out)  # made once the sets are read, so a refused run leaves none
    outdir.mkdir(parents=True, exist_ok=True)
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
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.refused:
        parser.error("unrecognized arguments: " + " ".join(args.refused))
    try:
        _resolve_flags(args)
        # A warning (a member without training occurrences) is one stderr line.
        with warnings.catch_warnings():
            warnings.showwarning = lambda text, *_: print(f"warning: {text}", file=sys.stderr)
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
