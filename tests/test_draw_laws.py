"""Distributional tests of a run's draws against the laws they are meant to follow.

The golden digests pin the draws as they are; these tests check that they
are right.  The pulse laws run ``run_protocol`` once per source at a fixed
seed and compare every cell count with its law: the outcome codes of each
Born-rule row against ``joint_outcome_pmf``, the four joint label cells
against q^2, q(1 - q), (1 - q)q and (1 - q)^2, and each party's x coins over
its sample-labelled pulses against Binomial(., 1/2).  The selection law
draws ``_select`` over many seeds from one fixed candidate plane: the picks
per chunk and per offset mod 8 against uniform sampling of the candidates,
and the spread of each such count against the hypergeometric variance.  The
CHSH law takes ``s_est`` over many seeded runs: its mean against S and its
sample variance against ``(1 - S^2) / l_smp``, the variance of a mean of
``l_smp`` independent +-1 rounds of mean S.

One threshold serves them all: every statistic lies within 5 standard
deviations of its mean (|z| <= 5), and a cell of probability 0 or 1 matches
its mean exactly.  A sample variance ``s^2`` of R values of variance
``sigma^2`` gives ``X = (R - 1) s^2 / sigma^2``, chi-square with R - 1
degrees of freedom for normal values; its z is the Wilson-Hilferty normal
deviate ``((X / nu)^(1/3) - 1 + 2 / (9 nu)) / sqrt(2 / (9 nu))``, which
tests both tails (a spread too small or too large).
"""

import functools

import numpy as np
import pytest

from diqkd.protocol import (
    _CHUNK,
    ALICE_BASES,
    BOB_BASES,
    CustomSource,
    DepolarizingSource,
    MisalignedSource,
    _indices,
    _select,
    depolarized_pair_state,
    joint_outcome_pmf,
    run_protocol,
)
from diqkd.rates import ProtocolParams
from helpers import pulses

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
# source stays in one, since its Born-rule table is built for every pulse.
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
    return source, pulses(run_protocol(params, source, seed=2026))


def assert_cells_follow(counts, means, variances) -> None:
    """Every count within ``Z_BOUND`` standard deviations of its mean; exact where the variance is 0."""
    counts, means, variances = (np.asarray(a, dtype=float) for a in (counts, means, variances))
    fixed = variances < 1e-9
    assert np.allclose(counts[fixed], means[fixed], atol=0.5), (counts, means)
    z = (counts[~fixed] - means[~fixed]) / np.sqrt(variances[~fixed])
    assert np.abs(z).max(initial=0.0) <= Z_BOUND, z


def assert_spread_follows(samples, variances) -> None:
    """Each column's sample variance matches its variance, two-sided chi-square at ``Z_BOUND``."""
    samples = np.asarray(samples, dtype=float)
    nu = len(samples) - 1
    x = nu * samples.var(axis=0, ddof=1) / np.asarray(variances, dtype=float)
    z = (np.cbrt(x / nu) - 1 + 2 / (9 * nu)) / np.sqrt(2 / (9 * nu))
    assert np.abs(z).max() <= Z_BOUND, z


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


# A candidate plane of three full chunks and a tail of N % 8 = 3 pulses, in
# which pulse i is a candidate with probability (1 + i % 8) / 9: offsets of
# unequal density, so that picks moved between offsets show.
SELECTION_N = 3 * _CHUNK + 1003
SELECTION_RUNS = 200


@functools.cache
def selection_counts():
    """The plane's candidate counts per cell and each run's pick counts, chunks then offsets mod 8.

    A cell's picks in one run are hypergeometric: ``k`` picks without
    replacement from ``count`` candidates, ``K`` of them in the cell.
    """
    offsets = np.arange(SELECTION_N)
    cand = np.random.default_rng(28).random(SELECTION_N) < (1 + offsets % 8) / 9
    plane = np.packbits(cand, bitorder="little")
    count = int(cand.sum())
    k = count // 4

    def cells(indices):
        return np.concatenate(
            [np.bincount(indices // _CHUNK, minlength=4), np.bincount(indices % 8, minlength=8)]
        )

    runs = [
        cells(_indices(_select(np.random.default_rng(seed), plane, count, SELECTION_N, k)))
        for seed in range(SELECTION_RUNS)
    ]
    return cells(np.flatnonzero(cand)), count, k, np.array(runs)


def hypergeometric(big_k, count, k):
    """Mean and variance of the picks in a cell of ``big_k`` of the ``count`` candidates."""
    p = big_k / count
    return k * p, k * p * (1 - p) * (count - k) / (count - 1)


def test_selection_is_uniform_over_chunks_and_offsets_mod_8():
    # Summed over the runs, the picks in each chunk and at each offset mod 8
    # are those of k uniform picks among the candidates per run.
    big_k, count, k, runs = selection_counts()
    mean, var = hypergeometric(big_k, count, k)
    assert_cells_follow(runs.sum(axis=0), SELECTION_RUNS * mean, SELECTION_RUNS * var)


def test_selection_counts_spread_hypergeometrically():
    # Run by run, each chunk's and each offset's pick count has the
    # hypergeometric variance: a split fixed per chunk would spread too little.
    big_k, count, k, runs = selection_counts()
    assert (runs.sum(axis=1) == 2 * k).all()  # k picks, once by chunk and once by offset
    assert_spread_follows(runs, hypergeometric(big_k, count, k)[1])


CHSH_P = 0.05
CHSH_RUNS = 300


def test_chsh_estimate_spreads_as_a_mean_of_rounds():
    # Each sample round of DepolarizingSource(p) is +-1 with mean
    # S = (1 - 2p) / sqrt(2) in every pair of sampling bases, independently
    # of the others, so s_est over l_smp rounds has variance (1 - S^2) / l_smp.
    params = ProtocolParams(n=1000, q=0.4, delta=0.3, s0=-1.0, eps=1e-9, eps_cor=1e-9, l_syn=10**6)
    source = DepolarizingSource(CHSH_P)
    s_est = np.array([run_protocol(params, source, seed).s_est for seed in range(CHSH_RUNS)])
    big_s = (1 - 2 * CHSH_P) / np.sqrt(2)
    var = (1 - big_s**2) / params.l_smp
    assert_cells_follow([s_est.sum()], [CHSH_RUNS * big_s], [CHSH_RUNS * var])
    assert_spread_follows(s_est[:, None], [var])
