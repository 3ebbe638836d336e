import numpy as np
import pytest

from diqkd import squash
from diqkd.chsh import chsh_measurement
from diqkd.linalg import (
    adjoint_apply,
    apply_channel,
    identity,
    min_eigenvalue,
    pauli,
    generalized_x,
    tensor,
)
from diqkd.squash import (
    channel_from_choi,
    flip_amplitude,
    single_party_squash_feasibility,
    squash_channel,
    verify_squash_conditions,
)
from helpers import (
    choi_of_channel,
    identity_channel,
    partial_trace_out,
    random_channel,
    random_density,
    random_hermitian,
    reference_affine_residual,
    reference_feasibility,
    reference_project_affine,
)

SQRT2 = np.sqrt(2.0)


class TestFlipAmplitude:
    def test_zero_angle(self):
        assert flip_amplitude(0.0) == 0.0

    def test_saturated_at_quarter_pi(self):
        # (1 + sqrt2)|sin(pi/4)| > 1, so the min saturates at magnitude 1
        assert flip_amplitude(np.pi / 4) == pytest.approx(1.0, abs=1e-14)
        assert flip_amplitude(-np.pi / 4) == pytest.approx(-1.0, abs=1e-14)

    def test_half_amplitude_point(self):
        phi = 0.20861669030914862  # arcsin(1 / (2 (1 + sqrt2)))
        assert flip_amplitude(phi) == pytest.approx(0.5, abs=1e-12)

    def test_sign_and_range(self):
        for phi in np.linspace(-np.pi / 4, np.pi / 4, 101):
            a = flip_amplitude(phi)
            assert -1.0 <= a <= 1.0
            assert a * np.sin(phi) >= 0.0

    def test_rejects_out_of_range(self):
        # a non-finite phi fails the range check too
        for phi in (1.0, np.nan, np.inf, -np.inf, [0.0, np.nan]):
            with pytest.raises(ValueError):
                flip_amplitude(phi)


class TestSquashChannel:
    def test_aligned_channel_maps_xx_to_yy(self):
        sq = squash_channel(-1j, -1j)
        assert sq.flip == pytest.approx(1.0, abs=1e-12)
        xx = tensor(pauli("x"), pauli("x"))
        yy = tensor(pauli("y"), pauli("y"))
        assert np.max(np.abs(adjoint_apply(sq.channel, xx) - yy)) <= 1e-12

    def test_degenerate_case_balanced_flip(self):
        sq = squash_channel(1.0, 1.0)
        assert sq.flip == pytest.approx(0.0, abs=1e-14)
        # both Kraus branches carry weight 1/2
        norms = [np.linalg.norm(k) ** 2 for k in sq.channel.kraus]
        assert norms[0] == pytest.approx(2.0, abs=1e-12)  # tr K^dag K = 4 * 1/2
        assert norms[1] == pytest.approx(2.0, abs=1e-12)

    def test_sifting_observable_fixed_exactly(self):
        rng = np.random.default_rng(0)
        zi = tensor(pauli("z"), identity(2))
        for _ in range(100):
            ta, tb = rng.uniform(0, 2 * np.pi, 2)
            sq = squash_channel(np.exp(1j * ta), np.exp(1j * tb))
            assert np.max(np.abs(adjoint_apply(sq.channel, zi) - zi)) <= 1e-12

    def test_xx_maps_to_scaled_yy(self):
        rng = np.random.default_rng(1)
        xx = tensor(pauli("x"), pauli("x"))
        yy = tensor(pauli("y"), pauli("y"))
        for _ in range(100):
            ta, tb = rng.uniform(0, 2 * np.pi, 2)
            sq = squash_channel(np.exp(1j * ta), np.exp(1j * tb))
            assert np.max(np.abs(adjoint_apply(sq.channel, xx) - sq.flip * yy)) <= 1e-10

    def test_channel_maps_ideal_state_to_valid_state(self):
        from diqkd.linalg import apply_channel, validate_density
        from diqkd.protocol import ideal_pair_state

        out = apply_channel(squash_channel(-1j, -1j).channel, ideal_pair_state())
        validate_density(out)

    def test_trace_preservation_and_complete_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            ta, tb = rng.uniform(0, 2 * np.pi, 2)
            sq = squash_channel(np.exp(1j * ta), np.exp(1j * tb))
            comp = sum(k.conj().T @ k for k in sq.channel.kraus)
            assert np.max(np.abs(comp - identity(4))) <= 1e-10
            choi = choi_of_channel(sq.channel)
            assert min_eigenvalue(choi.matrix) >= -1e-10


class TestVerifyConditions:
    def test_aligned_pass(self):
        rep = verify_squash_conditions(squash_channel(-1j, -1j), tol=1e-9)
        assert rep.passed
        assert rep.cond1_residual <= 1e-12
        assert rep.cond2_min_eig >= -1e-9

    def test_grid_pass(self):
        angles = 2 * np.pi * np.arange(8) / 8
        for ta in angles:
            for tb in angles:
                rep = verify_squash_conditions(
                    squash_channel(np.exp(1j * ta), np.exp(1j * tb)), tol=1e-9
                )
                assert rep.passed
                assert rep.n_min_eig >= -1e-9
                assert rep.lift_gap_min_eig >= -1e-10

    def test_wrong_flip_sign_fails(self):
        # flipping the mixing amplitude breaks the operator inequality badly
        from diqkd.linalg import QuantumChannel
        from diqkd.squash import ROT90, ROT180, SquashChannel

        a = -1.0  # wrong sign at phi = pi/4
        k1 = np.sqrt((1 + a) / 2) * tensor(ROT90, ROT90)
        k2 = np.sqrt((1 - a) / 2) * tensor(ROT90, ROT180 @ ROT90)
        channel = QuantumChannel(4, 4, [k1, k2])
        bad = SquashChannel(measurement=chsh_measurement(-1j, -1j), flip=a, channel=channel)
        rep = verify_squash_conditions(bad, tol=1e-9)
        assert not rep.passed
        assert rep.cond2_min_eig < -0.5


GRID16 = 2 * np.pi * np.arange(16) / 16
# mu = 0 (alpha = i, beta = -i), X_alpha = Z (alpha = beta = 1), aligned (alpha = beta = -i)
DEGENERATE = np.array([[1j, -1j], [1.0, 1.0], [-1j, -1j]])
ROWS = [(np.exp(1j * ta), np.exp(1j * GRID16)) for ta in GRID16] + [tuple(DEGENERATE.T)]


@pytest.mark.parametrize("alpha, betas", ROWS, ids=[f"row{i}" for i in range(16)] + ["degenerate"])
def test_row_call_equals_per_cell_calls(alpha, betas):
    # one stacked call runs the same code as its 0-d cells, so every float agrees exactly
    m = chsh_measurement(alpha, betas)
    sq = squash_channel(alpha, betas)
    rep = verify_squash_conditions(sq)
    for j, (a, b) in enumerate(zip(np.broadcast_to(alpha, betas.shape), betas)):
        cell = chsh_measurement(a, b)
        for field in ("operator", "abs_mu", "abs_nu", "phi", "bell_basis"):
            assert np.array_equal(getattr(m, field)[j], getattr(cell, field)), field
        assert np.ndim(cell.phi) == 0 and isinstance(cell.phi, np.floating)
        sq_cell = squash_channel(a, b)
        assert np.array_equal(sq.flip[j], sq_cell.flip)
        rep_cell = verify_squash_conditions(sq_cell)
        for field in ("cond1_residual", "cond2_min_eig", "n_min_eig", "lift_gap_min_eig", "passed"):
            assert np.array_equal(getattr(rep, field)[j], getattr(rep_cell, field)), field


class TestChoi:
    def test_identity_channel_choi(self):
        choi = choi_of_channel(identity_channel(2))
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1.0
        assert np.allclose(choi.matrix, np.outer(psi, psi.conj()), atol=1e-14)
        assert np.allclose(partial_trace_out(choi.matrix, 2, 2), identity(2), atol=1e-14)

    def test_choi_roundtrip_random_channel(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ch = random_channel(2, 2, 2, rng)
            back = channel_from_choi(choi_of_channel(ch))
            rho = random_density(2, rng)
            assert np.max(np.abs(apply_channel(ch, rho) - apply_channel(back, rho))) <= 1e-9


class TestFeasibility:
    def test_identity_witness(self):
        rep = single_party_squash_feasibility(generalized_x(-1j), pauli("z"))
        assert rep.status == "feasible"
        assert rep.residual <= 1e-7
        assert rep.witness is not None

    def test_z_conjugation_witness(self):
        # X_i = -X = Z X Z, so conjugation by Z is a witness
        rep = single_party_squash_feasibility(generalized_x(1j), pauli("z"))
        assert rep.status == "feasible"
        assert rep.residual <= 1e-7

    def test_misaligned_infeasible(self):
        rep = single_party_squash_feasibility(generalized_x(np.exp(1j * np.pi / 4)), pauli("z"))
        assert rep.status == "infeasible"
        assert rep.residual > 1e-4

    def test_feasible_witness_reproduces_targets(self):
        mx, mz = generalized_x(-1j), pauli("z")
        rep = single_party_squash_feasibility(mx, mz)
        ch = channel_from_choi(rep.witness, atol=1e-8)
        assert np.max(np.abs(adjoint_apply(ch, pauli("x")) - mx)) <= 1e-6
        assert np.max(np.abs(adjoint_apply(ch, pauli("z")) - mz)) <= 1e-6

    def test_shrunk_targets_feasible(self):
        # depolarized observables always admit a channel (depolarizing witness)
        rep = single_party_squash_feasibility(0.3 * pauli("x"), 0.3 * pauli("z"))
        assert rep.status == "feasible"
        ch = channel_from_choi(rep.witness, atol=1e-8)
        assert np.max(np.abs(adjoint_apply(ch, pauli("x")) - 0.3 * pauli("x"))) <= 1e-6

    def test_rejects_out_of_spectrum_targets(self):
        with pytest.raises(ValueError):
            single_party_squash_feasibility(2.0 * pauli("x"), pauli("z"))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            single_party_squash_feasibility(np.array([[0, 1], [0, 0]], dtype=complex), pauli("z"))


def random_targets(rng: np.random.Generator) -> list:
    """Block-coefficient targets of ``single_party_squash_feasibility`` for random observables."""
    return [identity(2).T, random_hermitian(2, rng).T, random_hermitian(2, rng).T]


def test_two_term_step_rounds_like_the_einsum_step():
    rng = np.random.default_rng(11)
    for trial in range(600):
        j = random_hermitian(4, rng)
        if trial % 3:
            # exact zeros of either sign, as in the solver's first iterates
            j[rng.random((4, 4)) < 0.4] = complex(-0.0, -0.0) if trial % 3 == 1 else 0.0
        targets = random_targets(rng)
        lists = [t.tolist() for t in targets]
        expected = reference_project_affine(j, targets)
        assert squash._project_affine(j, lists).tobytes() == expected.tobytes()
        assert squash._affine_residual(j, lists) == reference_affine_residual(j, targets)


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_gap_bounded_by_sqrt6_times_residual(scale):
    # the residual skip of the solver rests on gap <= sqrt(6) * residual
    rng = np.random.default_rng(12)
    for _ in range(2000):
        targets = [t.tolist() for t in random_targets(rng)]
        on_set = squash._project_affine(random_hermitian(4, rng), targets)
        y = on_set + scale * random_hermitian(4, rng)
        gap = np.linalg.norm(squash._project_affine(y, targets) - y)
        assert gap <= np.sqrt(6.0) * squash._affine_residual(y, targets)
    assert squash._RESIDUAL_SKIP_GAP == 2.0 * np.sqrt(6.0) * squash._FEASIBLE_TOL


def bounded_observable(rng: np.random.Generator) -> np.ndarray:
    """A random 2x2 observable with spectrum in [-1, 1]: half traceless, half of norm 1."""
    h = random_hermitian(2, rng)
    if rng.random() < 0.5:
        h -= np.trace(h).real / 2.0 * identity(2)
    radius = 1.0 if rng.random() < 0.5 else rng.uniform(0.3, 1.0)
    return h * (radius / np.abs(np.linalg.eigvalsh(h)).max())


def random_pair(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    return bounded_observable(rng), bounded_observable(rng)


FEASIBILITY_INPUTS = {
    f"readme-{k}": (generalized_x(np.exp(2j * np.pi * k / 16)), pauli("z")) for k in range(16)
} | {
    "identity-witness": (generalized_x(-1j), pauli("z")),
    "z-conjugation": (generalized_x(1j), pauli("z")),
    "misaligned": (generalized_x(np.exp(1j * np.pi / 4)), pauli("z")),
    "shrunk": (0.3 * pauli("x"), 0.3 * pauli("z")),
} | {f"random-{seed}": random_pair(seed) for seed in range(40)}


@pytest.mark.parametrize("name", list(FEASIBILITY_INPUTS))
def test_report_equals_einsum_reference(name, monkeypatch):
    # The README nogo --grid 16 cells, every input of TestFeasibility and 40
    # random pairs.  The reference computes the least eigenvalue of x in every
    # iteration.  A cap of 1,000 iterations keeps the inconclusive cells cheap
    # and lets every other verdict through (the named inputs stop by iteration
    # 522, stall verdicts need at least 501): the random pairs give 5
    # feasible, 23 infeasible and 12 inconclusive reports.
    monkeypatch.setattr(squash, "_MAX_ITERS", 1000)
    rep = single_party_squash_feasibility(*FEASIBILITY_INPUTS[name])
    ref = reference_feasibility(*FEASIBILITY_INPUTS[name])
    assert (rep.status, rep.residual, rep.iterations) == (ref.status, ref.residual, ref.iterations)
    if ref.witness is None:
        assert rep.witness is None
    else:
        assert rep.witness.matrix.tobytes() == ref.witness.matrix.tobytes()


def test_rayleigh_skip_only_below_tolerance():
    # Whenever the skip fires, the eigenvalue it skips is below -tol: at
    # random and with the least eigenvalue within 1e-8 of -tol, at three
    # scales, with a non-Hermitian part, and with u the least eigenvector of
    # the Hermitian part or of a perturbed copy, as in the solver.
    rng = np.random.default_rng(13)
    tol = squash._FEASIBLE_TOL
    fired = 0
    for trial in range(3000):
        scale = (1.0, 1e-3, 1e3)[trial % 3]
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        w = np.sort(rng.uniform(-1.0, 1.0, 4)) * scale
        if trial % 2:
            w[0] = -tol + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17.0, -8.0)
            w[1:] = np.abs(w[1:])
        h = (q * w) @ q.conj().T
        x = h + 1j * 1e-3 * scale * random_hermitian(4, rng)
        u = np.linalg.eigh(h if trial % 4 < 2 else h + 1e-9 * random_hermitian(4, rng))[1][:, 0]
        if squash._rayleigh_skip(x, u):
            fired += 1
            assert np.linalg.eigvalsh((x + x.conj().T) / 2.0)[0] < -tol
    assert fired >= 1000
