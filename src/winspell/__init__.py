"""Context-sensitive spelling correction: Winnow classifier clouds and a
smoothed naive-Bayes hybrid over confusion sets, with an experiment harness."""

__version__ = "0.1.0"
