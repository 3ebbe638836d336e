"""Golden sha256 digests that pin simulator and hashing outputs bit for bit.

The digests were taken from the implementation before the blocked hash
kernel and the table-indexed outcome sampler replaced the single-FFT hash
and the per-pulse pmf array, so any refactor that changes a transcript or
a hash output fails here.  The CLI digests pin one small run of every
subcommand, output header included; they were taken before the config
headers and the transcript serializer were rebuilt on
``ProtocolParams.as_dict``, the two ``verify-squash --tol 1e-9`` digests
before the CHSH and squash functions were made to broadcast over stacks, and
the two abort-exit digests before the Born-rule table became one stacked
call and ``run_protocol`` one record filled in stage by stage.  The eight
transcript digests of the README runs and the abort exits also pin
``spec.spec_run``, the definition of a run, so that they re-pin from it.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from diqkd import hashing
from diqkd.cli import main
from diqkd.hashing import ToeplitzHash
from diqkd.protocol import (
    CustomSource,
    DepolarizingSource,
    MisalignedSource,
    depolarized_pair_state,
    run_protocol,
)
from diqkd.rates import ProtocolParams, syndrome_budget
from helpers import pack_bits
from spec import spec_run


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
    source = STRATEGIES[kind]()
    digest = TRANSCRIPT_DIGESTS[kind, seed]
    t = run_protocol(README_SIMULATE, source, seed=seed)
    assert sha256(t.to_json()) == digest
    assert sha256(json.dumps(spec_run(README_SIMULATE, source, seed))) == digest


# One run for each early exit of ``run_protocol``: the label counts fall
# short, and the CHSH estimate of a p = 0.05 source (mean 0.636) misses
# s0 = 0.7.
ABORT_RUNS = {
    "insufficient_pulses": (
        ProtocolParams(n=2000, q=0.3, delta=0.002, s0=0.0, eps=1e-9, eps_cor=1e-9, l_syn=500),
        1,
        "eb0b714bfcb94acb25c8db6a9602e1d9418679ae7f0854f886bc956aa4fd7455",
    ),
    "chsh_failed": (
        dataclasses.replace(README_SIMULATE, s0=0.7),
        0,
        "b01e3ad49966b14337d246e3644361b8866246b2fc682a1cc701afd731b1c7eb",
    ),
}


@pytest.mark.parametrize("abort", sorted(ABORT_RUNS))
def test_abort_transcript_digest(abort):
    params, seed, digest = ABORT_RUNS[abort]
    source = DepolarizingSource(0.05)
    t = run_protocol(params, source, seed=seed)
    assert t.abort == abort
    assert sha256(t.to_json()) == digest
    assert sha256(json.dumps(spec_run(params, source, seed))) == digest


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


# Taken from the power-of-two FFT kernel, before the output was cut into
# tiles and the input into balanced blocks with 5-smooth FFT sizes.
def test_keygen_shape_hash_digest():
    # the keygen-3e6 privacy amplification shape: one tile of nine blocks
    x = np.random.default_rng(8).integers(0, 2, 3_000_000, dtype=np.uint8)
    h = ToeplitzHash.sample(3_000_000, 124_288, seed=8)
    assert sha256(pack_bits(h(x))) == (
        "742e0975c5ca37885fba7c5a4d154c4d6e6b19ecc3e37cb46061653f60388f5a"
    )


def test_multi_tile_hash_digest(monkeypatch):
    # two full tiles and one of 5 bits; the shipped tile would need an input
    # of more than 8e6 bits for several tiles
    monkeypatch.setattr(hashing, "_MAX_TILE", 1 << 16)
    out_len = 2 * hashing._MAX_TILE + 5
    assert -(-out_len // hashing._plan(3_000_000, out_len)[0]) == 3
    x = np.random.default_rng(8).integers(0, 2, 3_000_000, dtype=np.uint8)
    h = ToeplitzHash.sample(3_000_000, out_len, seed=9)
    assert sha256(pack_bits(h(x))) == (
        "93af98c232846f6ddfed098b4c0749fc69ba3115f16deffc58b5892c521b89c5"
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
    # the README configuration, taken before the solver skipped the affine
    # iterate's eigensolve and ran its affine step on a flat list
    "nogo-16": (
        ("nogo", "--grid", "16"),
        "a1a5c47c6503b3333fced34d918c5d5538830a627bae7481efed8ee3078cd704",
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
    # every run aborts, so the runs table is empty
    "simulate-json-aborted": (
        (
            "simulate", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0.7",
            "--p", "0.3", "--runs", "4", "--seed", "1", "--format", "json",
        ),
        "0414184810ad168b01f0d7882155c7d892ca9714474f0b640e0012f4063ab41d",
    ),
    # re-pinned at bounds.json schema 2: the file gained "schema_version", and
    # the noise-gap experiment draws per-trial counts instead of per-pulse
    # uniforms, so its draws changed (its report here did not)
    "bounds-check": (
        (
            "bounds-check", "--n", "4410", "--q", "0.3", "--delta", "0.1", "--s0", "0",
            "--runs", "20", "--trials", "50", "--batch", "480",
        ),
        "4f4ac853c85b16543f56a310e00c574ca59fe063fd5f1ddf892d6c85f2d41fd6",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_output_digest(name, tmp_path):
    argv, digest = CLI_RUNS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


# The note of each CLI_RUNS job's "wrote PATH (note)" line on stdout.
SUMMARY_NOTES = {
    "rate-curve": "17 rows",
    "keylength": "l = 35440366",
    "verify-squash": "all_pass = True",
    "verify-squash-16": "all_pass = True",
    "verify-squash-64": "all_pass = True",
    "nogo": "0 inconclusive cells",
    "nogo-16": "0 inconclusive cells",
    "simulate-csv": "3 completed runs, 0 aborted",
    "simulate-json": "3 completed runs, 0 aborted",
    "simulate-json-aborted": "0 completed runs, 4 aborted",
    "bounds-check": "chernoff ok = True, azuma ok = True",
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_summary_line(name, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*CLI_RUNS[name][0], "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out} ({SUMMARY_NOTES[name]})\n"
