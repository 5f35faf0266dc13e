"""Winnow classifier clouds with weighted-majority voting.

Each confusion-set member gets a cloud of mistake-driven multiplicative
classifiers (one per demotion parameter); a comparator picks the member
whose cloud responds most strongly.
"""

from __future__ import annotations

import math
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .bayes import BayesModel, Decision, choose
from .corpus import ConfusionSet, read_text
from .features import (
    ExtractionParams,
    FeatureIndex,
    check_round_trip,
    count_of,
    index_features,
    model_head,
    one_of,
    parse_assignments,
    parse_model_head,
)

SPARSE = "sparse"
FULL = "full"
ONE_LAYER = "one_layer"
TWO_LAYER = "two_layer"
UNIFORM = "uniform"
BAYESIAN = "bayesian"

# Feature id of the bias, a pseudo-feature active on every example; it
# carries the prior under Bayesian initialization and otherwise trains like
# any linked feature. Every other feature's id is its position in the
# network's sorted feature tuple. Ids index weights and WINNOW v1 rows.
BIAS_ID = -1

# Stand-in for log(0) when mapping likelihoods to weights.
ZERO_LIKELIHOOD_LOG = -500.0

# Per-weight relative margin of the filtered threshold test. Every weight is
# non-negative, so a plain float sum of n weights is off by at most
# (n - 1) * 2**-53 times the total (recursive summation, Higham 2002, sec.
# 4.2); a total farther than n * 2**-50 of itself from theta is therefore on
# the same side of theta as the exactly rounded sum, and only totals inside
# that margin are summed again with math.fsum (a Shewchuk-style filter).
WEIGHT_MARGIN = 2.0**-50

# The one Winnow setting: threshold, promotion, one classifier per demotion
# beta (a one-layer cloud keeps the middle one), the weight of a new link, and
# the vote-weight base gamma, falling from GAMMA_START to GAMMA_END over the
# horizon that training sets. Only the number of training cycles varies.
THETA = 1.0
ALPHA = 1.5
BETAS = (0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_WEIGHT = 0.1
GAMMA_START = 1.0
GAMMA_END = 0.67
CYCLES = 5
UNTRAINED_HORIZON = 1000


def gamma_at(horizon: int, t: int) -> float:
    """The vote-weight base after ``t`` examples, interpolated quadratically
    from GAMMA_START down to GAMMA_END over ``horizon`` examples."""
    if t < 0:
        raise ValueError("example count must be non-negative")
    remaining = 1.0 - min(t / horizon, 1.0)
    return GAMMA_END + (GAMMA_START - GAMMA_END) * remaining * remaining


class WinnowClassifier:
    """One Winnow unit: demotion parameter, weights, mistake count.

    ``weights[f]`` is the weight of feature id ``f``, the bias (id -1) the
    last entry, over the ``n_features`` features of the network; a feature
    that the owning cloud has not linked weighs 0.0, so it adds nothing.
    """

    def __init__(self, beta: float, n_features: int):
        self.beta = beta
        self.weights = [0.0] * (n_features + 1)
        self.mistakes = 0


class Cloud:
    """The ensemble of classifiers representing one confusion-set member.

    Every classifier of a cloud sees the same examples with the same label,
    so all are linked to the same features: ``linked``, the set of linked
    feature ids, the bias (id -1) among them once linked. A feature stays
    linked even if its weights underflow to 0.0.
    """

    def __init__(self, member_index: int, classifiers: Sequence[WinnowClassifier]):
        if not classifiers:
            raise ValueError("cloud needs at least one classifier")
        self.member_index = member_index
        self.classifiers = list(classifiers)
        self.linked: set[int] = set()
        self.examples_seen = 0


def _presentation(active: Sequence[int]) -> tuple:
    """What every classifier of a network is shown for one example: a reader
    of the weights of the active feature ids, then of the bias, which is
    active on every example; the threshold filter's margin for that many
    weights; their ids."""
    ids = (*active, BIAS_ID)
    # itemgetter of one index returns the bare weight, so the bias alone
    # gets a reader that still returns a sequence.
    read = itemgetter(*ids) if len(ids) > 1 else lambda weights: (weights[BIAS_ID],)
    return read, len(ids) * WEIGHT_MARGIN, ids


def winnow_predict(classifier: WinnowClassifier, presentation: tuple) -> int:
    """1 iff the exactly rounded sum of the weights that ``presentation``
    reads (the active features and the bias) is above THETA, summing exactly
    only when the plain sum is too near THETA to decide."""
    read, margin = presentation[:2]
    chosen = read(classifier.weights)
    total = sum(chosen)
    if abs(total - THETA) <= margin * total:
        total = math.fsum(chosen)
    return 1 if total > THETA else 0


def _learn(classifier: WinnowClassifier, lessons: Iterable[tuple]):
    """Mistake-driven updates of one classifier over (presentation, label,
    feature ids linked first here) lessons, in order: the new links take
    DEFAULT_WEIGHT, then a missed positive promotes, a false positive
    demotes, the presented weights."""
    weights = classifier.weights
    theta, alpha, beta = THETA, ALPHA, classifier.beta
    mistakes = 0
    for (read, margin, ids), label, links in lessons:
        for f in links:
            weights[f] = DEFAULT_WEIGHT
        # The one copy of winnow_predict's test, inlined on the hot path.
        chosen = read(weights)
        total = sum(chosen)
        if abs(total - theta) <= margin * total:
            total = math.fsum(chosen)
        if (total > theta) != label:
            factor = alpha if label == 1 else beta
            for f in ids:
                weights[f] *= factor
            mistakes += 1
    classifier.mistakes += mistakes


def cloud_activation(cloud: Cloud, shown: tuple, horizon: int) -> float:
    """Weighted-majority activation on the presentation ``shown``: votes
    weighted by gamma**mistakes and normalized, so the result lies in [0, 1].
    Each weight is taken relative to the least-mistaken classifier's, which
    weighs exactly 1.0, so the ratios stay and the total cannot underflow."""
    gamma = gamma_at(horizon, cloud.examples_seen)
    least = min(c.mistakes for c in cloud.classifiers)
    # Sequential +=, not sum(), which is compensated from Python 3.12 on.
    numerator = denominator = 0.0
    for classifier in cloud.classifiers:
        weight = gamma ** (classifier.mistakes - least)
        numerator += weight * winnow_predict(classifier, shown)
        denominator += weight
    return numerator / denominator


class WinnowNetwork:
    """Clouds for every confusion-set member plus the comparator state. A new
    network is sparse, linked to the bias only.

    ``feature_ids`` is the index of the retained features and ``features``
    its Feature tuples, as in a ``BayesModel``; ``train_network`` makes
    ``cycles`` passes over its stream and sets the vote's gamma ``horizon``.
    """

    def __init__(
        self,
        confusion_set: ConfusionSet,
        retained: FeatureIndex,
        cycles: int = CYCLES,
        extraction: ExtractionParams | None = None,
        layer_mode: str = TWO_LAYER,
        priors: Sequence[float] | None = None,
    ):
        if cycles < 1:
            raise ValueError("cycles must be >= 1")
        if layer_mode not in (ONE_LAYER, TWO_LAYER):
            raise ValueError(f"unknown layer mode: {layer_mode!r}")
        self.confusion_set = confusion_set
        self.features, self.feature_ids = retained.features, retained
        self.cycles = cycles
        self.extraction = extraction or ExtractionParams()
        self.layer_mode = layer_mode
        self.architecture = SPARSE
        self.init_mode = UNIFORM
        self.horizon = UNTRAINED_HORIZON
        n = len(confusion_set.members)
        if priors is None:
            priors = [1.0 / n] * n
        if len(priors) != n:
            raise ValueError("priors do not match the confusion set")
        self.priors = tuple(priors)
        betas = (BETAS[len(BETAS) // 2],) if layer_mode == ONE_LAYER else BETAS
        n_features = len(self.features)
        self.clouds = [Cloud(i, [WinnowClassifier(b, n_features) for b in betas])
                       for i in range(n)]
        for cloud in self.clouds:
            cloud.linked.add(BIAS_ID)
            for classifier in cloud.classifiers:
                classifier.weights[BIAS_ID] = DEFAULT_WEIGHT


def classify_winnow(network: WinnowNetwork, active_set: Sequence[int]) -> Decision:
    """Score every member by its cloud for the active feature ids and pick
    one by :func:`~winspell.bayes.choose`. A cloud's score is its raw
    weighted sum in one-layer mode, its weighted-majority activation in
    two-layer mode. The bias is active on every example."""
    shown = _presentation(active_set)
    if network.layer_mode == ONE_LAYER:
        # Exactly rounded sum of what the presentation reads: clouds holding
        # permutations of the same weights tie bit for bit, as the comparator needs.
        read = shown[0]
        scores = tuple(math.fsum(read(cloud.classifiers[0].weights)) for cloud in network.clouds)
    else:
        scores = tuple(cloud_activation(c, shown, network.horizon) for c in network.clouds)
    return Decision(scores, choose(scores, network.priors))


def train_network(network: WinnowNetwork, stream: Iterable[tuple[Sequence[int], int]]):
    """Online training over (active feature ids, correct member) examples.

    Each example is positive for the correct member's cloud and negative for
    every other cloud; all classifiers in a cloud see it. The stream is
    replayed in order for the network's number of cycles, and the vote
    horizon is fixed at the total number of presentations.

    Every cloud, classifier and cycle is shown one presentation per example.
    Clouds share no state, so each is trained on its own. Its links depend on
    the labels alone, and every positive example comes in the first cycle,
    so one pass over the stream finds the ids each first-cycle positive
    links first; ``_learn`` links them just before it reads their weights,
    so a negative example shown earlier still reads them as 0.0. The
    classifiers, which share nothing but the links, then learn one after
    another.
    """
    examples = list(stream)
    if not examples:
        return
    network.horizon = network.cycles * len(examples)
    presentations = [_presentation(active) for active, _ in examples]
    for cloud in network.clouds:
        first, later = [], []
        for (active, member), shown in zip(examples, presentations):
            label = 1 if member == cloud.member_index else 0
            links = ()
            if label:
                links = [f for f in active if f not in cloud.linked]
                cloud.linked.update(active)
            first.append((shown, label, links))
            later.append((shown, label, ()))
        lessons = first + later * (network.cycles - 1)
        for classifier in cloud.classifiers:
            _learn(classifier, lessons)
        cloud.examples_seen += len(lessons)


def init_bayesian(network: WinnowNetwork, model: BayesModel):
    """Link every cloud to every feature (a full network) with
    log-likelihood weights.

    Cloud i's weight for feature f is log(smoothed likelihood) plus one
    global constant chosen so every weight is non-negative; log(0) is floored
    at -500. The bias pseudo-feature carries the log prior. An untrained
    one-layer network initialized this way reproduces the Bayesian decision.
    """
    if network.features != model.features:
        raise ValueError("network and model feature sets differ")
    rows = [model.log_likelihood_row(f) for f in range(len(network.features))]
    raw = [
        [_floored(row[i]) for row in rows] + [_floored(model.log_priors[i])]
        for i in range(len(network.clouds))
    ]
    shift = -min(w for weights in raw for w in weights)
    for cloud in network.clouds:
        cloud.linked = set(range(BIAS_ID, len(network.features)))
        for classifier in cloud.classifiers:
            classifier.weights = [w + shift for w in raw[cloud.member_index]]
    network.priors = model.priors
    network.architecture = FULL
    network.init_mode = BAYESIAN


def _floored(log_value: float) -> float:
    # The only log that is -inf is log(0).
    return ZERO_LIKELIHOOD_LOG if log_value == -math.inf else log_value


def sparsify(network: WinnowNetwork, counts: Sequence[Sequence[int]]):
    """Switch to the sparse architecture, dropping every link whose feature
    never co-occurred with the cloud's member in ``counts``, the training
    count rows by feature id of a ``BayesModel``: it is unlinked and weighs
    0.0 again."""
    for cloud in network.clouds:
        member = cloud.member_index
        dropped = {f for f in cloud.linked if f != BIAS_ID and counts[f][member] == 0}
        cloud.linked -= dropped
        for classifier in cloud.classifiers:
            for f in dropped:
                classifier.weights[f] = 0.0
    network.architecture = SPARSE


# ---------------------------------------------------------------------------
# Serialization: "WINNOW v1", line-based, tab-separated. Weight rows refer to the
# feature list by index (-1 is the bias) and print weights as shortest round-trip
# decimals; a file loads only if saving its network writes its bytes.
# ---------------------------------------------------------------------------

HEADER = "WINNOW v1"


def network_to_text(network: WinnowNetwork) -> str:
    lines = model_head(HEADER, network.confusion_set, network.extraction) + [
        f"winnow\ttheta={THETA!r}\talpha={ALPHA!r}"
        f"\tdefault_weight={DEFAULT_WEIGHT!r}\tcycles={network.cycles}",
        "betas\t" + "\t".join(repr(b) for b in BETAS),
        f"layer\t{network.layer_mode}",
        f"architecture\t{network.architecture}",
        f"init\t{network.init_mode}",
        f"schedule\tstart={GAMMA_START!r}\tend={GAMMA_END!r}\thorizon={network.horizon}",
        "priors\t" + "\t".join(repr(pr) for pr in network.priors),
        f"features\t{len(network.features)}",
        *network.feature_ids,
    ]
    spelled: dict[float, str] = {}  # repr by weight; zeros left out, as 0.0 == -0.0
    for cloud in network.clouds:
        lines.append(f"cloud\t{cloud.member_index}\texamples_seen={cloud.examples_seen}")
        rows = sorted(cloud.linked)
        prefixes = [f"{f}\t" for f in rows]
        for classifier in cloud.classifiers:
            lines.append(
                f"classifier\tbeta={classifier.beta!r}\tmistakes={classifier.mistakes}"
            )
            for prefix, w in zip(prefixes, map(classifier.weights.__getitem__, rows)):
                text = spelled.get(w) if w else repr(w)
                if text is None:
                    text = spelled[w] = repr(w)
                lines.append(prefix + text)
    return "\n".join(lines) + "\n"


def _count(names: Sequence[str], label: str):
    def read(values: list[str], head: dict) -> int:  # the last field, a count >= 1
        count = int(parse_assignments(values, names)[-1])
        if count < 1:
            raise ValueError(f"{label} must be >= 1")
        return count
    return read


def _priors(values: list[str], head: dict) -> list[float]:
    # The priors settle exact ties, so each must be a usable weight.
    priors = [float(pr) for pr in values]
    if not all(0.0 <= pr < math.inf for pr in priors):
        raise ValueError("priors must be finite and non-negative")
    if len(priors) != len(head["members"].members):
        raise ValueError("priors do not match the confusion set")
    return priors


_HEAD = (
    ("winnow", _count(("theta", "alpha", "default_weight", "cycles"), "cycles")),
    ("betas", None),
    one_of("layer", ONE_LAYER, TWO_LAYER),
    one_of("architecture", SPARSE, FULL),
    one_of("init", UNIFORM, BAYESIAN),
    ("schedule", _count(("start", "end", "horizon"), "schedule horizon")),
    ("priors", _priors),
)


def network_from_text(text: str) -> WinnowNetwork:
    lines, head = parse_model_head(text, HEADER, _HEAD)
    n_features = head["features"]
    keys = lines[11 : 11 + n_features]
    try:
        retained = index_features(keys, 12)
    except ValueError:
        # A list shorter than its count holds its first cloud line among the
        # keys: refused there, unless a key before it is malformed.
        cut = next((i for i, key in enumerate(keys) if key.startswith("cloud\t")), None)
        if cut is None:
            raise
        index_features(keys[:cut], 12)
        raise ValueError(f"line {12 + cut}: feature list is shorter than its features count"
                         f" {n_features}") from None
    network = WinnowNetwork(head["members"], retained, head["winnow"], head["extraction"],
                            head["layer"], head["priors"])
    network.horizon = head["schedule"]
    network.architecture, network.init_mode = head["architecture"], head["init"]
    # A cloud starts with the links all networks of its architecture have; rows add the rest.
    links = range(BIAS_ID, n_features) if network.architecture == FULL else (BIAS_ID,)
    cloud = classifier = None
    ids, values = {}, {}  # row ids and weights by their text, each read and checked once
    try:
        for number, line in enumerate(lines[11 + n_features :], 12 + n_features):
            fields = line.split("\t")
            kind = fields[0]
            if kind == "cloud":
                (examples_seen,) = parse_assignments(fields[2:], ("examples_seen",))
                member_index = int(fields[1])
                if not 0 <= member_index < len(network.clouds):
                    raise ValueError(f"cloud {member_index} is out of range")
                cloud, classifier = network.clouds[member_index], None
                cloud.examples_seen = count_of(examples_seen, "examples_seen")
                cloud.linked = linked = set(links)
                unread = iter(cloud.classifiers)
            elif kind == "classifier":
                if cloud is None:
                    raise ValueError("classifier outside any cloud")
                _, mistakes = parse_assignments(fields[1:], ("beta", "mistakes"))
                classifier = next(unread, None)
                if classifier is None:
                    raise ValueError(f"cloud {cloud.member_index} has more classifiers than betas")
                classifier.mistakes = count_of(mistakes, "mistakes")
                weights = classifier.weights
            else:  # a weight row
                if classifier is None:  # before the first cloud line: a key past the count
                    raise ValueError(f"feature list is longer than its features count {n_features}"
                                     if cloud is None else "weight row outside any classifier")
                if len(fields) != 2:
                    raise ValueError(f"malformed weight row: {line!r}")
                feature = ids.get(kind)
                if feature is None:
                    feature = int(kind)
                    if not BIAS_ID <= feature < n_features:
                        raise ValueError(f"weight row for feature {kind} is out of range")
                    ids[kind] = feature
                weight = values.get(fields[1])
                if weight is None:
                    weight = float(fields[1])
                    # The threshold test's error bound holds for finite non-negative
                    # weights only; init_bayesian's shift writes 0.0 for the smallest.
                    if not 0.0 <= weight < math.inf:
                        raise ValueError(f"weight {fields[1]} is negative or not finite")
                    values[fields[1]] = weight
                weights[feature] = weight
                linked.add(feature)
    except ValueError as exc:
        raise ValueError(f"line {number}: {exc}") from None
    check_round_trip(text, network_to_text(network))
    return network


def save_network(network: WinnowNetwork, path: str | Path):
    Path(path).write_text(network_to_text(network), encoding="utf-8")


def load_network(path: str | Path) -> WinnowNetwork:
    return network_from_text(read_text(path))
