"""Golden sha256 digests that pin simulator and hashing outputs bit for bit.

The digests were taken from the implementation before the blocked hash
kernel and the table-indexed outcome sampler replaced the single-FFT hash
and the per-pulse pmf array, so any refactor that changes a transcript or
a hash output fails here.  The CLI digests pin one small run of every
subcommand, output header included; they were taken before the config
headers and the transcript serializer were rebuilt on
``ProtocolParams.as_dict``, and the two ``verify-squash --tol 1e-9`` digests
before the CHSH and squash functions were made to broadcast over stacks.
"""

import hashlib

import numpy as np
import pytest

from diqkd.cli import main
from diqkd.hashing import ToeplitzHash, pack_bits
from diqkd.protocol import (
    CustomSource,
    DepolarizingSource,
    MisalignedSource,
    depolarized_pair_state,
    run_protocol,
)
from diqkd.rates import ProtocolParams, syndrome_budget


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


# The README ``simulate`` configuration with the CLI defaults filled in.
README_SIMULATE = ProtocolParams(
    n=46550,
    q=0.3,
    delta=0.05,
    s0=0.0,
    eps=1e-9,
    eps_cor=1e-9,
    f_ec=1.0,
    l_syn=syndrome_budget(46550, 0.05, 1.0),
)

STRATEGIES = {
    "depolarizing": lambda: DepolarizingSource(0.05),
    "misaligned": lambda: MisalignedSource(np.exp(0.3j), np.exp(-1.2j), 0.02),
}

TRANSCRIPT_DIGESTS = {
    ("depolarizing", 0): "df36515e3d1e07be85387c0002af06eccfc2975e7e493e48f1b62348d128730a",
    ("depolarizing", 1): "975310e5d85084e6e007e9855904bd4fee61443e2db76ea137b63445541e2408",
    ("depolarizing", 2): "c201e7043807afe796c7d3922a7f349241baa2148dd27a20d3c677bdae87f032",
    ("misaligned", 0): "132c4569a83c2becdbfdafa9b5e67b8d685cb1ab78ec3206a9b09d7d3484f69c",
    ("misaligned", 1): "638d52391d8dee8d3b0232ba6a675ec01a4a38c1f6267861bd6804f5f0884367",
    ("misaligned", 2): "40b49fce0356ef6022508c4d6828004e6cbc7ab47525915632209fd3b1b78192",
}


@pytest.mark.parametrize("kind, seed", sorted(TRANSCRIPT_DIGESTS))
def test_transcript_digest(kind, seed):
    t = run_protocol(README_SIMULATE, STRATEGIES[kind](), seed=seed)
    assert sha256(t.to_json()) == TRANSCRIPT_DIGESTS[kind, seed]


def test_custom_source_transcript_digest():
    params = ProtocolParams(n=200, q=0.4, delta=0.4, s0=-1.0, eps=1e-9, eps_cor=1e-9, l_syn=500)
    rng = np.random.default_rng(21)
    pulses = params.pulse_pairs
    states = [depolarized_pair_state(p) for p in rng.uniform(0, 0.2, pulses)]
    alphas = np.exp(1j * rng.uniform(0, 2 * np.pi, pulses))
    betas = np.exp(1j * rng.uniform(0, 2 * np.pi, pulses))
    t = run_protocol(params, CustomSource(states, alphas, betas), seed=4)
    assert sha256(t.to_json()) == (
        "0697d535ec3cad77bb17659a5b0e25f5aff615429f6a7faceead53938ce3956b"
    )


def test_multi_block_hash_digest():
    x = np.random.default_rng(8).integers(0, 2, 300_000, dtype=np.uint8)
    h = ToeplitzHash.sample(300_000, 40_000, seed=3)
    assert sha256(pack_bits(h(x))) == (
        "3845cc0de9fde018aa0f7addfcba031b38790b5ad8db9689bfe12b1bb3f90233"
    )


SIMULATE_ARGS = (
    "simulate", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0",
    "--p", "0.05", "--runs", "3", "--seed", "1",
)

CLI_RUNS = {
    "rate-curve": (
        ("rate-curve", "--p-min", "0", "--p-max", "0.08", "--steps", "17"),
        "75dd547fd22c7186c28dcae01d2184e33c008b08263a201489d4267292055e70",
    ),
    "keylength": (
        (
            "keylength", "--n", "100000000", "--q", "0.0909", "--delta", "0.01", "--s0", "0.69",
            "--eps", "1e-9", "--eps-cor", "1e-9", "--p-est", "0.01",
        ),
        "e891dbf07ab9034161ec5ef3253d45ffe2b6ed61d03f22b010968be44a59968d",
    ),
    "verify-squash": (
        ("verify-squash", "--grid", "4"),
        "1904c8e76ae313311836a03138401bcfd785bc040993ed40c9d9bd829a9a4070",
    ),
    "verify-squash-16": (
        ("verify-squash", "--grid", "16", "--tol", "1e-9"),
        "294de35a280eb4b0d8a4ea2b0b7f44daab1688ea374aa0b8c4e767cbc8954685",
    ),
    # the README configuration
    "verify-squash-64": (
        ("verify-squash", "--grid", "64", "--tol", "1e-9"),
        "b79246623707fab440ef1edcfbf3f2394de974895ff2f634d62b4b1c9412531e",
    ),
    "nogo": (
        ("nogo", "--grid", "4"),
        "70834d8376c33ba53810a5b6727a7b67d0567f9286fb143c56614829dd1e78c1",
    ),
    "simulate-csv": (
        SIMULATE_ARGS,
        "467d93706e7ba96e23a057f3e43dd2760013d7a13da92f28eb288735ec012db6",
    ),
    "simulate-json": (
        SIMULATE_ARGS + (
            "--strategy", "misaligned", "--alpha-angle", "0.3", "--beta-angle", "-1.2",
            "--p", "0.02", "--format", "json",
        ),
        "3f047ad2d13d2153a0c74269caee74fd649ee2aea74d50b3e8f50766402996dc",
    ),
    "bounds-check": (
        (
            "bounds-check", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0",
            "--runs", "20", "--trials", "50", "--batch", "480",
        ),
        "c05a4368e8be6429e5d6c2be2dd63fdca9f69b8f9a4230003c35d9bed12e95f8",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_output_digest(name, tmp_path):
    argv, digest = CLI_RUNS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest
