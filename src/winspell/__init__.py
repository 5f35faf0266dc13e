"""Context-sensitive spelling correction: Winnow classifier clouds and a
smoothed naive-Bayes hybrid over confusion sets, with an experiment harness."""

from .corpus import (
    ConfusionSet,
    Occurrence,
    Sentence,
    TagDictionary,
    corrupt,
    find_occurrences,
    load_confusion_sets,
    load_corpus,
    load_tag_dictionary,
    occurrences_by_set,
    restore,
    tokenize,
)
from .features import (
    ExtractionParams,
    Feature,
    FeatureStats,
    chi_square_2x2,
    collect_stats,
    extract_active,
    generate_features,
    prepare_set,
    prune,
)
from .bayes import (
    BayesModel,
    Decision,
    choose,
    classify_bayes,
    resolve_dependencies,
    smoothed_likelihood,
    train_bayes,
)
from .winnow import (
    Cloud,
    GammaSchedule,
    WinnowClassifier,
    WinnowNetwork,
    WinnowParams,
    classify_winnow,
    cloud_activation,
    gamma_at,
    init_bayesian,
    train_network,
    winnow_predict,
    winnow_train_example,
)
from .evaluation import (
    EvalReport,
    ExperimentConfig,
    SplitSpec,
    baseline_classify,
    mcnemar_test,
    run_experiment,
    split_corpus,
    two_proportion_test,
)

__version__ = "0.1.0"
