"""Distributional tests of a run's draws against the laws they are meant to follow.

The golden digests pin the draws as they are; these tests check that they
are right.  Each runs ``run_protocol`` once per source at a fixed seed and
compares every cell count with its law: the outcome codes of each Born-rule
row against ``joint_outcome_pmf``, the four joint label cells against q^2,
q(1 - q), (1 - q)q and (1 - q)^2, and each party's x coins over its
sample-labelled pulses against Binomial(., 1/2).  One threshold serves them
all: every cell's count lies within 5 standard deviations of its mean
(|z| <= 5), and a cell of probability 0 or 1 matches its mean exactly.
"""

import functools

import numpy as np
import pytest

from diqkd.protocol import (
    ALICE_BASES,
    BOB_BASES,
    CustomSource,
    DepolarizingSource,
    MisalignedSource,
    depolarized_pair_state,
    joint_outcome_pmf,
    run_protocol,
)
from diqkd.rates import ProtocolParams

Z_BOUND = 5.0
Q = 0.4  # every basis pair row well filled, and four unequal label cells


def alternating_source(big_n: int) -> CustomSource:
    """A depolarized pair and the product state |0><0| (x) |+><+|, pulse by pulse in turn.

    The product state's marginals differ (Alice's z outcome is always +1,
    Bob's is a fair coin), so swapping the parties' outcome bits moves its
    counts between the (+,-) and (-,+) cells.
    """
    product = np.kron(np.diag([1.0, 0.0]), np.full((2, 2), 0.5))
    states = np.tile(np.stack([depolarized_pair_state(0.1), product]), (big_n // 2, 1, 1))
    alphas = np.tile([np.exp(0.4j), 1.0], big_n // 2)
    betas = np.tile([np.exp(-1.0j), 1.0j], big_n // 2)
    return CustomSource(states, alphas, betas)


# Pulses per run: two chunks of pulses for the i.i.d. sources; the custom
# source stays in one, since its per-chunk Born-rule table costs about 4.8 KB
# per pulse.
SOURCES = {
    "depolarizing": (100_000, lambda big_n: DepolarizingSource(0.05)),
    "misaligned": (100_000, lambda big_n: MisalignedSource(np.exp(0.3j), np.exp(-1.2j), 0.02)),
    "alternating-custom": (8_000, alternating_source),
}


# The labels and coins depend only on N, q and the seed, so the misaligned
# run would repeat the depolarizing run's.
LABEL_RUNS = ("depolarizing", "alternating-custom")


@functools.cache
def run(kind: str):
    """The source and the pulse values of one seeded run of ``kind``."""
    big_n, build = SOURCES[kind]
    n = round(0.7 * big_n * (1 - Q) ** 2)
    delta = 1 - n / ((big_n - 0.5) * (1 - Q) ** 2)
    params = ProtocolParams(n=n, q=Q, delta=delta, s0=-1.0, eps=1e-9, eps_cor=1e-9, l_syn=n)
    assert params.pulse_pairs == big_n
    source = build(big_n)
    return source, run_protocol(params, source, seed=2026).pulses()


def assert_cells_follow(counts, means, variances) -> None:
    """Every count within ``Z_BOUND`` standard deviations of its mean; exact where the variance is 0."""
    counts, means, variances = (np.asarray(a, dtype=float) for a in (counts, means, variances))
    fixed = variances < 1e-9
    assert np.allclose(counts[fixed], means[fixed], atol=0.5), (counts, means)
    z = (counts[~fixed] - means[~fixed]) / np.sqrt(variances[~fixed])
    assert np.abs(z).max(initial=0.0) <= Z_BOUND, z


@pytest.mark.parametrize("kind", SOURCES)
def test_outcomes_follow_the_born_rule_per_row(kind):
    # Per row, the count of each outcome pair is a sum of independent
    # Bernoulli trials, one per pulse in the row, of that pulse's Born
    # probability: mean sum p, variance sum p (1 - p).
    source, pulses = run(kind)
    codes = 2 * (pulses["outcomes_a"] < 0) + (pulses["outcomes_b"] < 0)
    for a, basis_a in enumerate(ALICE_BASES):
        for b, basis_b in enumerate(BOB_BASES):
            rows = np.flatnonzero((pulses["bases_a"] == a) & (pulses["bases_b"] == b))
            assert len(rows) > 200, (basis_a, basis_b)
            op_a, op_b = source.alice_ops[basis_a], source.bob_ops[basis_b]
            pmf = joint_outcome_pmf(source.rho, op_a, op_b)
            if pmf.ndim == 2:
                pmf = pmf[rows]
            pmf = np.broadcast_to(pmf, (len(rows), 4))
            counts = np.bincount(codes[rows], minlength=4)
            assert_cells_follow(counts, pmf.sum(axis=0), (pmf * (1 - pmf)).sum(axis=0))


@pytest.mark.parametrize("kind", LABEL_RUNS)
def test_joint_labels_are_independent_q_coins(kind):
    _, pulses = run(kind)
    big_n = len(pulses["labels_a"])
    cells = 2 * pulses["labels_a"] + pulses["labels_b"]
    counts = np.bincount(cells, minlength=4)[::-1]  # both sample, A only, B only, neither
    p = np.array([Q * Q, Q * (1 - Q), (1 - Q) * Q, (1 - Q) * (1 - Q)])
    assert_cells_follow(counts, big_n * p, big_n * p * (1 - p))


@pytest.mark.parametrize("kind", LABEL_RUNS)
def test_basis_coins_are_fair_on_sample_labelled_pulses(kind):
    _, pulses = run(kind)
    x_a = pulses["bases_a"][pulses["labels_a"]] == ALICE_BASES.index("x")
    x_b = pulses["bases_b"][pulses["labels_b"]] == BOB_BASES.index("x")
    # a party without a sample label measures z (Alice) or z' (Bob)
    assert not pulses["bases_a"][~pulses["labels_a"]].any()
    assert not pulses["bases_b"][~pulses["labels_b"]].any()
    trials = np.array([len(x_a), len(x_b)])
    assert_cells_follow([x_a.sum(), x_b.sum()], trials / 2, trials / 4)
