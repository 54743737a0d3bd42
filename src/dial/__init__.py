"""DIAL: direction-informed adaptive gating toolkit.

Pipeline: explore (randomized counterfactual data collection) -> reason
(feature pool construction) -> learn (sparse logistic gate) -> deploy
(gated policies with success/cost accounting), plus a synthetic
two-source environment and the statistics used to verify it.
"""

__version__ = "0.4.0"
