"""The executable definition of a protocol run, as the ``diqkd.protocol`` docstring states it.

``spec_run`` gives a run's transcript document, the values that
``json.loads`` gives back, from five whole-array ``Generator.random`` draws
and the float rules on them, with no chunk, bit plane, threshold table or
bucket table.  It reads only public names of ``diqkd``, and none of the
code that it defines (``test_dependencies.py`` holds it to that).
``run_protocol(...).to_json()`` must be ``json.dumps(spec_run(...))``.
"""

import math

import numpy as np

from diqkd.protocol import ABORT_CHSH, ABORT_INSUFFICIENT, ALICE_BASES, BOB_BASES, joint_outcome_pmf
from diqkd.rates import finite_key_length, syndrome_budget


def diagonals(size: int, seed: int) -> np.ndarray:
    """The ``size`` Toeplitz diagonals of hash seed ``seed``: ``Generator.integers`` bits."""
    return np.random.default_rng(seed).integers(0, 2, size, dtype=np.uint8)


def toeplitz_product(d, x) -> list[int]:
    """``y[i] = sum_j d[i - j + len(x) - 1] x[j] mod 2``, the parity of ``(D >> i) & X``.

    ``D`` and ``X`` are the ints whose binary digits are ``d`` reversed and
    ``x``: bit ``p`` of ``D >> i`` is ``d[i + p]``, of ``X`` ``x[len(x) - 1 - p]``.
    """
    big_d, big_x = (int((np.asarray(b, np.uint8) + ord("0")).tobytes(), 2) for b in (d[::-1], x))
    return [((big_d >> i) & big_x).bit_count() & 1 for i in range(len(d) - len(x) + 1)]


def outcome_codes(pmf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``#{k < 3 : u >= cumsum(pmf)[k]}``: the index of ``u``'s outcome pair in ++, +-, -+, --."""
    return np.count_nonzero(u[..., None] >= np.cumsum(pmf, axis=-1)[..., :3], axis=-1)


def spec_run(params, source, seed) -> dict:
    """The transcript document of run ``seed`` of ``params`` against ``source``."""
    big_n = params.pulse_pairs
    rng = np.random.default_rng(seed)
    # streams 0-4, word i of each for pulse i: labels (set for a sample
    # candidate), basis coins, outcome uniforms; a party measures x only on a
    # pulse it labelled, and Bob's basis code is his label plus his x
    labels_a = rng.random(big_n) < params.q
    labels_b = rng.random(big_n) < params.q
    bases_a = (labels_a & (rng.random(big_n) < 0.5)).astype(int)
    bases_b = labels_b + (labels_b & (rng.random(big_n) < 0.5)).astype(int)
    u = rng.random(big_n)
    codes = np.empty(big_n, dtype=int)
    for a, code_a in enumerate(ALICE_BASES):
        for b, code_b in enumerate(BOB_BASES):
            here = np.flatnonzero((bases_a == a) & (bases_b == b))
            ops = (source.rho, source.alice_ops[code_a], source.bob_ops[code_b])
            pmf = joint_outcome_pmf(*(m[here] if m.ndim == 3 else m for m in ops))
            codes[here] = outcome_codes(pmf, u[here])
    outcomes_a = np.where(codes >= 2, -1, 1)
    outcomes_b = np.where(codes % 2, -1, 1)
    doc = {
        "schema_version": 1,
        "params": params.as_dict(),
        "strategy": source.describe(),
        "seed": int(seed),
        "labels_a": labels_a.astype(int).tolist(),
        "labels_b": labels_b.astype(int).tolist(),
        "bases_a": np.array(ALICE_BASES)[bases_a].tolist(),
        "bases_b": np.array(BOB_BASES)[bases_b].tolist(),
        "outcomes_a": outcomes_a.tolist(),
        "outcomes_b": outcomes_b.tolist(),
        "i_smp": [],
        "i_sif": [],
        **dict.fromkeys(["s_est", "abort", "p_est", "sifted_key", "bob_raw", "corrected_key"]),
        "syndrome_bits_used": 0,
        "syndrome_within_budget": True,
        **dict.fromkeys(["fcor", "fcor_match", "fpa", "secret_key_a", "secret_key_b"]),
        "key_report": {},
    }

    # sample candidates are labelled by both parties, sifted ones by neither
    smp = np.flatnonzero(labels_a & labels_b)
    sif = np.flatnonzero(~labels_a & ~labels_b)
    if len(smp) < params.l_smp or len(sif) < params.n:
        return doc | {"abort": ABORT_INSUFFICIENT}
    # the generator now stands at word 5N
    i_smp = np.sort(rng.choice(smp, params.l_smp, replace=False))
    i_sif = np.sort(rng.choice(sif, params.n, replace=False))
    # a sample round is -1 where r_A r_B (-1)^t is, t = 1 when both measured x
    signs = outcomes_a * outcomes_b * np.where((bases_a == 1) & (bases_b == 2), -1, 1)
    neg = np.count_nonzero(signs[i_smp] < 0)
    s_est = (len(i_smp) - 2 * neg) / len(i_smp)
    doc |= {"i_smp": i_smp.tolist(), "i_sif": i_sif.tolist(), "s_est": s_est}
    if s_est < params.s0:
        return doc | {"abort": ABORT_CHSH}

    # oracle error correction: Bob's corrected key is Alice's sifted key
    n = int(params.n)
    sifted = (outcomes_a[i_sif] < 0).astype(np.uint8)
    p_est = min(max((1.0 - math.sqrt(2.0) * s_est) / 2.0, 0.0), 0.5)
    used = syndrome_budget(params.n, p_est, params.f_ec)
    fcor_len = min(n, max(1, math.ceil(math.log2(1.0 / params.eps_cor))))
    fcor = {"seed": int(rng.integers(2**63)), "in_len": n, "out_len": fcor_len}
    report = finite_key_length(params)
    fpa, key = None, []
    if report.l > 0:
        fpa = {"seed": int(rng.integers(2**63)), "in_len": n, "out_len": report.l}
        key = toeplitz_product(diagonals(n + report.l - 1, fpa["seed"]), sifted)
    return doc | {
        "p_est": p_est,
        "sifted_key": sifted.tolist(),
        "bob_raw": (outcomes_b[i_sif] < 0).astype(int).tolist(),
        "corrected_key": sifted.tolist(),
        "syndrome_bits_used": used,
        "syndrome_within_budget": bool(used <= params.l_syn),
        "fcor": fcor,
        "fcor_match": True,
        "fpa": fpa,
        "secret_key_a": key,
        "secret_key_b": key,
        "key_report": {"l": report.l, "reason": report.reason},
    }
