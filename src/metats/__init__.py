"""Meta-level Thompson sampling for sequences of related bandit tasks.

A meta-bandit simulator: agents that learn an unknown instance prior across
tasks (MetaTS), baselines that know it (OracleTS) or ignore it (plain TS),
exact conjugate posterior updates for Bernoulli, Gaussian and linear reward
models, a reproducible Monte Carlo harness, and numeric evaluators for the
regret guarantees of the meta-learning policy.
"""

__version__ = "0.1.0"

# The API lives in the submodules (metats.harness, metats.bounds, ...);
# importing the package loads all of them but the CLI.
from . import agents, bounds, envs, harness, posteriors, rng, selftest, special  # noqa: F401
