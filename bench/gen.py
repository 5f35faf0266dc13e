"""Seeded synthetic inputs for the winspell benchmark (standard library only).

A generated workspace holds a presplit training corpus, a confusion-set file,
a tag dictionary and, when asked for, a draft to classify. The same seed and
parameters always give the same bytes, whatever PYTHONHASHSEED is.

The language is made to exercise every path the learners use:

- filler words follow a Zipf law over a pseudo-word vocabulary, some of them
  contractions ("bolan't"), with commas and ./?/! so the tokenizer's
  punctuation and apostrophe branches run;
- each confusion-set member is a reserved word that occurs nowhere else, and
  some sets pair a one-token member with a two-token one ("kelvo" vs
  "kel vo"), so multi-token matching runs;
- each member is planted with its own collocation word right before it and
  context cue words near it (sometimes the other member's cues, as noise),
  so Bayes and Winnow learn something the majority baseline cannot;
- the tag dictionary covers only the most frequent part of the vocabulary,
  so collocations see both tags and UNK.
"""

from __future__ import annotations

import random
from pathlib import Path

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "st", "tr", "pl", "sk")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "r", "l", "s", "m")
_CONTRACTIONS = ("'s", "n't", "'ll", "'d")
_TAGS = ("NN", "VB", "JJ", "RB", "IN", "DT", "PRP", "CC")


class _Words:
    """Distinct pseudo-words; every word drawn is new."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def fresh(self, syllables: int) -> str:
        """A new word of at least ``syllables`` syllables; once short words
        run out, longer ones are drawn."""
        for attempt in range(1_000_000):
            word = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS) + self.rng.choice(_CODAS)
                for _ in range(syllables + attempt // 50)
            )
            if word not in self.used:
                self.used.add(word)
                return word
        raise RuntimeError("no fresh word found")


class Language:
    """Vocabulary, tag dictionary and confusion sets with their cues."""

    def __init__(self, params: dict, seed: int):
        rng = random.Random(f"winspell-bench-language:{seed}")
        words = _Words(rng)
        vocab = []
        for _ in range(params["vocab"]):
            word = words.fresh(rng.choice((1, 2, 2, 3)))
            if rng.random() < params["contraction_rate"]:
                word += rng.choice(_CONTRACTIONS)
            vocab.append(word)
        self.vocab = vocab
        s = params["zipf_s"]
        total = 0.0
        self.cum_weights = []
        for rank in range(len(vocab)):
            total += 1.0 / (rank + 1) ** s
            self.cum_weights.append(total)
        covered = int(params["tag_coverage"] * len(vocab))
        self.tags = {
            word: sorted(rng.sample(_TAGS, rng.choice((1, 1, 2))))
            for word in vocab[:covered]
        }
        # Cue words come from the middle of the frequency range: frequent
        # enough to pass pruning, rare enough not to be everywhere.
        cue_pool = vocab[params["cue_rank_lo"]:params["cue_rank_hi"]]
        self.sets = []
        for index in range(params["sets"]):
            if index < params["two_token_sets"]:
                first, second = words.fresh(1), words.fresh(1)
                while first + second in words.used:
                    second = words.fresh(1)
                members = [(first + second,), (first, second)]
                words.used.add(first + second)
            else:
                members = [(words.fresh(2),), (words.fresh(2),)]
            prior = rng.uniform(*params["majority_share"])
            cues = [rng.sample(cue_pool, 4) for _ in members]
            self.sets.append({
                "members": members,
                "weights": [prior, 1.0 - prior],
                "coll": [cue[0] for cue in cues],
                "context": [cue[1:] for cue in cues],
            })

    def filler(self, rng: random.Random, n: int) -> list[str]:
        return rng.choices(self.vocab, cum_weights=self.cum_weights, k=n)

    def sentence(self, rng: random.Random, params: dict, set_index=None, error=False):
        """Tokens of one sentence and, when ``set_index`` is given, the
        planted (set, intended, written) triple. With ``error`` the written
        member is the wrong one, as in a draft with a spelling slip."""
        length = rng.randint(params["min_len"], params["max_len"])
        tokens = self.filler(rng, length)
        plant = None
        if set_index is not None:
            cset = self.sets[set_index]
            intended = 0 if rng.random() < cset["weights"][0] else 1
            written = 1 - intended if error else intended
            at = rng.randint(1, length - 1)
            cue_from = intended if rng.random() < params["cue_fidelity"] else 1 - intended
            if rng.random() < params["coll_rate"]:
                tokens[at - 1] = cset["coll"][cue_from]
            if rng.random() < params["cue_rate"]:
                for word in rng.sample(cset["context"][cue_from], rng.randint(1, 2)):
                    spot = rng.randint(max(0, at - 6), min(length - 1, at + 5))
                    if spot != at - 1:
                        tokens[spot] = word
            # A two-token member stays one list item so no comma splits it.
            tokens.insert(at, " ".join(cset["members"][written]))
            plant = (set_index, intended, written)
        return tokens, plant


def _plan(n: int, rate: float, n_sets: int) -> list:
    """Which set each of ``n`` sentences plants (None for no plant).

    Plants are evenly spaced and sets take turns, so every seed gives the same
    number of occurrences per set: seeds change the words, not the amount of
    work, which keeps run-to-run spread across seeds small.
    """
    plan = []
    planted = 0
    for i in range(n):
        if int((i + 1) * rate) > int(i * rate):
            plan.append(planted % n_sets)
            planted += 1
        else:
            plan.append(None)
    return plan


def _render(rng: random.Random, tokens: list[str], comma_rate: float) -> str:
    words = [t + "," if rng.random() < comma_rate else t for t in tokens[:-1]]
    words.append(tokens[-1] + rng.choice((".", ".", ".", ".", "?", "!")))
    words[0] = words[0].capitalize()
    return " ".join(words)


def generate(params: dict, seed: int, out_dir: Path) -> dict:
    """Write corpus.txt, sets.txt, tags.tsv (and draft.txt when the params ask
    for draft lines) under ``out_dir``; return what the checks need to know:
    the planted occurrence counts and, for the draft, every line's intended
    member."""
    out_dir.mkdir(parents=True, exist_ok=True)
    lang = Language(params, seed)
    rng = random.Random(f"winspell-bench-corpus:{seed}")
    counts = [[0, 0] for _ in lang.sets]
    lines = []
    for set_index in _plan(params["sentences"], params["plant_rate"], len(lang.sets)):
        tokens, plant = lang.sentence(rng, params, set_index)
        if plant:
            counts[plant[0]][plant[1]] += 1
        lines.append(_render(rng, tokens, params["comma_rate"]))
    (out_dir / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "sets.txt").write_text(
        "".join(", ".join(" ".join(m) for m in s["members"]) + "\n" for s in lang.sets),
        encoding="utf-8",
    )
    (out_dir / "tags.tsv").write_text(
        "".join(f"{w}\t{','.join(t)}\n" for w, t in lang.tags.items()), encoding="utf-8"
    )
    manifest = {
        "members": [[" ".join(m) for m in s["members"]] for s in lang.sets],
        "corpus_counts": counts,
        "corpus_occurrences": sum(map(sum, counts)),
    }
    if params.get("draft_lines"):
        # The draft shares the language but not the sentences: it is drawn
        # from a different seed than the training corpus.
        draft_rng = random.Random(f"winspell-bench-draft:{seed}")
        truth = {}
        lines = []
        plan = _plan(params["draft_lines"], params["plant_rate"], len(lang.sets))
        for line_no, set_index in enumerate(plan, start=1):
            error = draft_rng.random() < params["draft_error_rate"]
            tokens, plant = lang.sentence(draft_rng, params, set_index, error)
            if plant:
                set_index, intended, written = plant
                names = manifest["members"][set_index]
                truth[line_no] = [names[written], names[intended]]
            lines.append(_render(draft_rng, tokens, params["comma_rate"]))
        (out_dir / "draft.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest["draft_truth"] = truth
        manifest["draft_occurrences"] = len(truth)
    return manifest
