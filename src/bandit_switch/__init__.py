"""Bounded-reward bandit policies built around an empirical-likelihood
confidence-bound solver, with a reproducible Monte-Carlo harness and a
verification suite for the finite-time bounds the policies satisfy."""

import os

# numpy's OpenBLAS starts a worker thread per CPU that spins ~65 ms at load
# (numpy imports in 0.10-0.13 s, not 0.05 s, on 2 CPUs); our one gemv needs none
if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
from .distributions import (
    ArmModel,
    BanditInstance,
    Bernoulli,
    Dirac,
    Discrete,
    EmpiricalDistribution,
    TruncatedExponential,
    TruncatedGaussian,
    arm_from_config,
)
from .kinf import (
    KinfResult,
    KinfWitness,
    bernoulli_kl,
    h_derivative,
    h_value,
    kinf,
    kinf_weighted,
    kinf_witness,
    klucb_index,
)
from .policies import (
    EXPLORATIONS,
    FAMILIES,
    PolicySpec,
    indices,
    log_plus,
    moss_index,
    phi,
    switch_threshold,
    switch_value,
)
from .simulator import (
    ConfigurationError,
    EpisodeResult,
    RegretCurve,
    Scenario,
    default_record_grid,
    gap_profile,
    monte_carlo,
    normalized_regret,
    run_episode,
    run_seed,
)

__version__ = "0.1.0"
