"""Winnow classifier clouds with weighted-majority voting.

Each confusion-set member gets a cloud of mistake-driven multiplicative
classifiers (one per demotion parameter); a comparator picks the member
whose cloud responds most strongly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path
from typing import Iterable, Sequence

from .bayes import BayesModel, Decision, choose
from .corpus import ConfusionSet
from .features import (
    ExtractionParams,
    Feature,
    index_features,
    parse_assignments,
    parse_feature_key,
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
# any connected feature. Every other feature's id is its position in the
# network's sorted feature tuple, so ids are also WINNOW v1 row indexes.
BIAS_ID = -1

# Stand-in for log(0) when mapping likelihoods to weights.
ZERO_LIKELIHOOD_LOG = -500.0


class WinnowParams(namedtuple("WinnowParams", "theta alpha betas default_weight cycles")):
    __slots__ = ()

    def __new__(
        cls,
        theta: float = 1.0,
        alpha: float = 1.5,
        betas: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9),
        default_weight: float = 0.1,
        cycles: int = 5,
    ):
        if theta <= 0:
            raise ValueError("theta must be positive")
        if alpha <= 1:
            raise ValueError("promotion parameter alpha must exceed 1")
        if not betas or any(not 0 < b < 1 for b in betas):
            raise ValueError("demotion parameters must lie in (0, 1)")
        if cycles < 1:
            raise ValueError("cycles must be >= 1")
        return super().__new__(cls, theta, alpha, betas, default_weight, cycles)


class GammaSchedule(namedtuple("GammaSchedule", "start end horizon")):
    """Vote-weight base, interpolated quadratically from start down to end
    over `horizon` examples."""

    __slots__ = ()

    def __new__(cls, start: float = 1.0, end: float = 0.67, horizon: int = 1000):
        if horizon < 1:
            raise ValueError("schedule horizon must be >= 1")
        return super().__new__(cls, start, end, horizon)


def gamma_at(schedule: GammaSchedule, t: int) -> float:
    if t < 0:
        raise ValueError("example count must be non-negative")
    remaining = 1.0 - min(t / schedule.horizon, 1.0)
    return schedule.end + (schedule.start - schedule.end) * remaining * remaining


class WinnowClassifier:
    """One Winnow unit: demotion parameter, weights, mistake count.

    ``weights[i]`` is the weight of the feature in slot ``i`` of the owning
    cloud's connection table; unconnected features contribute 0.
    """

    def __init__(self, beta: float, mistakes: int = 0):
        self.beta = beta
        self.weights: list[float] = []
        self.mistakes = mistakes


def weighted_sum(classifier: WinnowClassifier, slots: Iterable[int]) -> float:
    # Exactly-rounded sum: clouds holding permutations of the same weights
    # produce bit-identical totals, so comparator ties are real ties.
    return math.fsum(map(classifier.weights.__getitem__, slots))


def winnow_predict(classifier: WinnowClassifier, slots: Iterable[int], theta: float) -> int:
    """1 iff the summed weights in the given slots (the connected active
    features) exceed theta."""
    return 1 if weighted_sum(classifier, slots) > theta else 0


class Cloud:
    """The ensemble of classifiers representing one confusion-set member.

    Every classifier of a cloud sees the same examples with the same label,
    so all are connected to the same features: the cloud keeps one
    connection table, ``slots``, mapping each connected feature id to its
    index in every classifier's ``weights``. A feature stays connected even if
    its weights underflow to 0.0. Once connected, the bias (id -1) counts as
    active on every example.
    """

    def __init__(self, member_index: int, classifiers: Sequence[WinnowClassifier]):
        if not classifiers:
            raise ValueError("cloud needs at least one classifier")
        self.member_index = member_index
        self.classifiers = list(classifiers)
        self.slots: dict[int, int] = {}
        self.examples_seen = 0

    def connect(self, feature: int, weight: float):
        """Connect ``feature`` at ``weight`` in every classifier."""
        self.slots[feature] = len(self.slots)
        for classifier in self.classifiers:
            classifier.weights.append(weight)

    def connected(self, active_set: Iterable[int]) -> list[int]:
        """The slots of the connected features among ``active_set``, then the
        bias's slot if the bias is connected."""
        slots = self.slots
        found = [slots[f] for f in active_set if f in slots]
        if BIAS_ID in slots:
            found.append(slots[BIAS_ID])
        return found


def winnow_train_example(
    cloud: Cloud, active_set: Sequence[int], label: int, params: WinnowParams
):
    """One online step for every classifier of the cloud.

    A positive example first connects any unconnected active features at the
    default weight; each classifier whose prediction is mistaken then
    promotes (missed positive) or demotes (false positive) every connected
    active weight. Negative examples never create connections.
    """
    presentation = [_presentation(cloud, active_set, label, params)]
    for classifier in cloud.classifiers:
        _learn(classifier, presentation, params)
    cloud.examples_seen += 1


def _presentation(
    cloud: Cloud, active_set: Sequence[int], label: int, params: WinnowParams
) -> tuple[list[int], int]:
    """Connect the unconnected active features of a positive example at the
    default weight; return the slots of the connected active features and
    the label."""
    if label == 1:
        for f in active_set:
            if f not in cloud.slots:
                cloud.connect(f, params.default_weight)
    return cloud.connected(active_set), label


def _learn(
    classifier: WinnowClassifier,
    presentations: Iterable[tuple[Sequence[int], int]],
    params: WinnowParams,
):
    """Mistake-driven updates of one classifier over (slots, label)
    presentations, in order: a missed positive promotes, a false positive
    demotes, the weights in the presented slots."""
    weights = classifier.weights
    weight_of = weights.__getitem__
    theta, alpha, beta = params.theta, params.alpha, classifier.beta
    mistakes = 0
    for slots, label in presentations:
        # The exactly-rounded sum of winnow_predict, inlined on the hot path.
        if (math.fsum(map(weight_of, slots)) > theta) != label:
            factor = alpha if label == 1 else beta
            for i in slots:
                weights[i] *= factor
            mistakes += 1
    classifier.mistakes += mistakes


def cloud_activation(
    cloud: Cloud,
    active_set: Iterable[int],
    params: WinnowParams,
    schedule: GammaSchedule,
) -> float:
    """Weighted-majority activation: votes weighted by gamma**mistakes and
    normalized, so the result lies in [0, 1]."""
    slots = cloud.connected(active_set)
    gamma = gamma_at(schedule, cloud.examples_seen)
    numerator = 0.0
    denominator = 0.0
    for classifier in cloud.classifiers:
        weight = gamma**classifier.mistakes
        numerator += weight * winnow_predict(classifier, slots, params.theta)
        denominator += weight
    if denominator == 0.0:
        # All gamma**m underflowed; fall back to the plain vote fraction.
        votes = [winnow_predict(c, slots, params.theta) for c in cloud.classifiers]
        return sum(votes) / len(votes)
    return numerator / denominator


class WinnowNetwork:
    """Clouds for every confusion-set member plus the comparator state. A new
    network is sparse, connected to the bias only.

    ``features`` and ``feature_ids`` come from
    :func:`~winspell.features.index_features`, as a ``BayesModel``'s do.
    """

    def __init__(
        self,
        confusion_set: ConfusionSet,
        features: Iterable[Feature],
        params: WinnowParams | None = None,
        extraction: ExtractionParams | None = None,
        layer_mode: str = TWO_LAYER,
        priors: Sequence[float] | None = None,
        schedule: GammaSchedule | None = None,
    ):
        if layer_mode not in (ONE_LAYER, TWO_LAYER):
            raise ValueError(f"unknown layer mode: {layer_mode!r}")
        self.confusion_set = confusion_set
        self.features, self.feature_ids = index_features(features)
        self.params = params or WinnowParams()
        self.extraction = extraction or ExtractionParams()
        self.layer_mode = layer_mode
        self.architecture = SPARSE
        self.init_mode = UNIFORM
        self.schedule = schedule or GammaSchedule()
        n = len(confusion_set.members)
        if priors is None:
            priors = [1.0 / n] * n
        if len(priors) != n:
            raise ValueError("priors do not match the confusion set")
        self.priors = tuple(priors)
        if layer_mode == ONE_LAYER:
            # The median beta, by statistics.median's arithmetic.
            ordered = sorted(self.params.betas)
            mid = len(ordered) // 2
            median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
            betas: tuple[float, ...] = (median,)
        else:
            betas = self.params.betas
        self.clouds = [Cloud(i, [WinnowClassifier(b) for b in betas]) for i in range(n)]
        for cloud in self.clouds:
            cloud.connect(BIAS_ID, self.params.default_weight)

    @property
    def n_members(self) -> int:
        return len(self.confusion_set.members)


def cloud_output(network: WinnowNetwork, cloud: Cloud, active: Sequence[int]) -> float:
    """What the comparator sees: the raw weighted sum in one-layer mode, the
    weighted-majority activation in two-layer mode."""
    if network.layer_mode == ONE_LAYER:
        return weighted_sum(cloud.classifiers[0], cloud.connected(active))
    return cloud_activation(cloud, active, network.params, network.schedule)


def classify_winnow(network: WinnowNetwork, active_set: Sequence[int]) -> Decision:
    """Score every member by its cloud output for the active feature ids and
    pick one by :func:`~winspell.bayes.choose`. The bias is active on every
    example."""
    scores = tuple(cloud_output(network, cloud, active_set) for cloud in network.clouds)
    return Decision(scores, choose(scores, network.priors))


def train_network(network: WinnowNetwork, stream: Iterable[tuple[Sequence[int], int]]):
    """Online training over (active feature ids, correct member) examples.

    Each example is positive for the correct member's cloud and negative for
    every other cloud; all classifiers in a cloud see it. The stream is
    replayed in order for the configured number of cycles, and the vote
    schedule horizon is fixed at the total number of presentations.

    Clouds share no state, so each is trained on its own. Its connections
    depend on the labels alone, and every positive example comes in the
    first cycle, so the slots each presentation touches are all known after
    one pass over the stream: the first cycle's as the cloud connects, then
    one fixed list for every later cycle. A weight is read only once its
    feature is connected, so connecting ahead of learning changes nothing,
    and the classifiers, which share nothing but the connections, then
    learn one after another.
    """
    examples = list(stream)
    if not examples:
        return
    params = network.params
    network.schedule = GammaSchedule(
        network.schedule.start, network.schedule.end, params.cycles * len(examples)
    )
    for cloud in network.clouds:
        labelled = [
            (active, 1 if member == cloud.member_index else 0) for active, member in examples
        ]
        first = [_presentation(cloud, active, label, params) for active, label in labelled]
        later = [(cloud.connected(active), label) for active, label in labelled]
        presentations = first + later * (params.cycles - 1)
        for classifier in cloud.classifiers:
            _learn(classifier, presentations, params)
        cloud.examples_seen += len(presentations)


def init_bayesian(network: WinnowNetwork, model: BayesModel):
    """Connect every cloud to every feature (a full network) with
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
        [_floored(model.log_priors[i])] + [_floored(row[i]) for row in rows]
        for i in range(network.n_members)
    ]
    shift = -min(w for weights in raw for w in weights)
    for cloud in network.clouds:
        # Slot k holds feature id k - 1: the bias first, then every feature.
        cloud.slots = {f: f + 1 for f in range(BIAS_ID, len(network.features))}
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
    count rows by feature id of a ``BayesModel``."""
    for cloud in network.clouds:
        member = cloud.member_index
        kept = [
            (f, slot)
            for f, slot in cloud.slots.items()
            if f == BIAS_ID or counts[f][member] > 0
        ]
        cloud.slots = {f: i for i, (f, _) in enumerate(kept)}
        for classifier in cloud.classifiers:
            classifier.weights = [classifier.weights[slot] for _, slot in kept]
    network.architecture = SPARSE


# ---------------------------------------------------------------------------
# Serialization: "WINNOW v1", line-based, tab-separated. Weight rows refer to
# the feature list by index (-1 is the bias pseudo-feature) and print weights
# as shortest round-trip decimals; save -> load -> save is byte-identical.
# ---------------------------------------------------------------------------

_HEADER = "WINNOW v1"


def network_to_text(network: WinnowNetwork) -> str:
    p = network.params
    lines = [_HEADER]
    lines.append("members\t" + "\t".join(
        network.confusion_set.member_text(i) for i in range(network.n_members)
    ))
    lines.append(f"extraction\tk={network.extraction.k}\tl={network.extraction.l}")
    lines.append(
        f"winnow\ttheta={p.theta!r}\talpha={p.alpha!r}"
        f"\tdefault_weight={p.default_weight!r}\tcycles={p.cycles}"
    )
    lines.append("betas\t" + "\t".join(repr(b) for b in p.betas))
    lines.append(f"layer\t{network.layer_mode}")
    lines.append(f"architecture\t{network.architecture}")
    lines.append(f"init\t{network.init_mode}")
    s = network.schedule
    lines.append(f"schedule\tstart={s.start!r}\tend={s.end!r}\thorizon={s.horizon}")
    lines.append("priors\t" + "\t".join(repr(pr) for pr in network.priors))
    lines.append(f"features\t{len(network.features)}")
    for f in network.features:
        lines.append(f.key())
    for cloud in network.clouds:
        lines.append(f"cloud\t{cloud.member_index}\texamples_seen={cloud.examples_seen}")
        rows = sorted(cloud.slots.items())
        for classifier in cloud.classifiers:
            lines.append(
                f"classifier\tbeta={classifier.beta!r}\tmistakes={classifier.mistakes}"
            )
            for fi, slot in rows:
                lines.append(f"{fi}\t{classifier.weights[slot]!r}")
    return "\n".join(lines) + "\n"


_HEAD_FIELDS = (
    "members", "extraction", "winnow", "betas", "layer", "architecture", "init",
    "schedule", "priors", "features",
)


def network_from_text(text: str) -> WinnowNetwork:
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        raise ValueError("not a WINNOW v1 model file")
    head, confusion_set, extraction = parse_model_head(lines[1:11], _HEAD_FIELDS)
    try:
        theta, alpha, default_weight, cycles = parse_assignments(
            head["winnow"], ("theta", "alpha", "default_weight", "cycles")
        )
        params = WinnowParams(
            theta=float(theta),
            alpha=float(alpha),
            betas=tuple(float(b) for b in head["betas"]),
            default_weight=float(default_weight),
            cycles=int(cycles),
        )
        start, end, horizon = parse_assignments(
            head["schedule"], ("start", "end", "horizon")
        )
        schedule = GammaSchedule(float(start), float(end), int(horizon))
        (n_features,) = (int(n) for n in head["features"])
        if head["init"] not in ([UNIFORM], [BAYESIAN]):
            raise ValueError(f"init must be {UNIFORM} or {BAYESIAN}")
        if head["architecture"] not in ([SPARSE], [FULL]):
            raise ValueError(f"architecture must be {SPARSE} or {FULL}")
    except ValueError as exc:
        raise ValueError(f"malformed model file header: {exc}") from exc
    feature_lines = lines[11 : 11 + n_features]
    features = [parse_feature_key(key) for key in feature_lines]
    if len(set(features)) != n_features:
        raise ValueError("model file truncated or has duplicate features")
    if features != sorted(features):
        raise ValueError("feature list is not in canonical order")
    network = WinnowNetwork(
        confusion_set,
        features,
        params,
        extraction,
        layer_mode=head["layer"][0],
        priors=[float(pr) for pr in head["priors"]],
        schedule=schedule,
    )
    network.architecture = head["architecture"][0]
    network.init_mode = head["init"][0]
    betas = [c.beta for c in network.clouds[0].classifiers]
    cloud = None
    classifier = None
    rows: dict[int, list[list[int]]] = {}  # cloud -> feature ids of each classifier
    for line in lines[11 + n_features :]:
        fields = line.split("\t")
        if fields[0] == "cloud":
            (examples_seen,) = parse_assignments(fields[2:], ("examples_seen",))
            member_index = int(fields[1])
            if not 0 <= member_index < network.n_members:
                raise ValueError(f"cloud {member_index} is out of range")
            if member_index in rows:
                raise ValueError(f"cloud {member_index} is repeated")
            cloud = network.clouds[member_index]
            cloud.examples_seen = _count(examples_seen, "examples_seen")
            cloud.classifiers = []
            classifier = None
            rows[member_index] = []
        elif fields[0] == "classifier":
            if cloud is None:
                raise ValueError("classifier outside any cloud")
            beta, mistakes = parse_assignments(fields[1:], ("beta", "mistakes"))
            classifier = WinnowClassifier(float(beta), _count(mistakes, "mistakes"))
            cloud.classifiers.append(classifier)
            names: list[int] = []
            rows[cloud.member_index].append(names)
        else:
            if classifier is None:
                raise ValueError("weight row outside any classifier")
            if len(fields) != 2:
                raise ValueError(f"malformed weight row: {line!r}")
            feature = int(fields[0])
            if not BIAS_ID <= feature < n_features:
                raise ValueError(f"weight row for feature {fields[0]} is out of range")
            names.append(feature)
            classifier.weights.append(float(fields[1]))
    if len(rows) != network.n_members or not all(c.classifiers for c in network.clouds):
        raise ValueError("model file truncated: a cloud or its classifiers are missing")
    for cloud in network.clouds:
        first, *others = rows[cloud.member_index]
        cloud.slots = {f: i for i, f in enumerate(first)}
        if len(cloud.slots) != len(first) or any(other != first for other in others):
            raise ValueError(
                f"model file truncated or damaged: cloud {cloud.member_index} weight"
                " rows repeat a feature or differ from the first classifier's"
            )
        if [c.beta for c in cloud.classifiers] != betas:
            raise ValueError(
                f"model file truncated or damaged: cloud {cloud.member_index}"
                " classifier betas differ from the header's"
            )
    return network


def _count(text: str, name: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{name}={value} is negative")
    return value


def save_network(network: WinnowNetwork, path: str | Path):
    Path(path).write_text(network_to_text(network), encoding="utf-8")


def load_network(path: str | Path) -> WinnowNetwork:
    return network_from_text(Path(path).read_text(encoding="utf-8"))
