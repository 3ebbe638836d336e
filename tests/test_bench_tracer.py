"""The benchmark tracer wraps diqkd entry points by name; each name must still exist.

``bench/tracing.py::traced`` reads ``owner.__dict__[attr]`` for every entry of
``layer_targets()``, so removing or renaming one of those imports breaks
``bench/run.py --trace 1`` without failing any other test.  Its hooks also
unpack the arguments of the calls they wrap, so a small traced pass checks
that the call shapes still fit and that the per-layer counts are exact.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves_on_its_owner():
    targets = load_tracing().layer_targets()
    assert targets
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if attr not in vars(owner)
    ]
    assert missing == []


def test_traced_pass_counts(tmp_path):
    # every wrapper and hook runs on real calls: the outcome hook unpacks the
    # positional (thresholds, words) of outcomes_from_uniforms, and the counts are exact
    import json

    import numpy as np

    from diqkd import cli, protocol
    from diqkd.rates import ProtocolParams
    from spec import spec_run

    tracing = load_tracing()
    params = ProtocolParams(n=200, q=0.4, delta=0.4, s0=-1.0, eps=1e-9, eps_cor=1e-9, l_syn=500)
    pulses = params.pulse_pairs
    # the shape of test_protocol's POSITIVE_KEY: a 4,474-bit key, so one apply
    keyed = ProtocolParams(
        n=200_000, q=0.1827, delta=0.01, s0=0.70, eps=0.5, eps_cor=0.5, f_ec=1.0, l_syn=0
    )
    rng = np.random.default_rng(3)
    custom = protocol.CustomSource(
        [protocol.depolarized_pair_state(p) for p in rng.uniform(0, 0.2, pulses)],
        np.exp(1j * rng.uniform(0, 2 * np.pi, pulses)),
        np.exp(1j * rng.uniform(0, 2 * np.pi, pulses)),
    )
    with tracing.traced(tracing.Tracer()) as tracer:
        for source in (protocol.DepolarizingSource(0.05), custom):
            assert protocol.run_protocol(params, source, seed=1).abort is None
        keyed_run = protocol.run_protocol(keyed, protocol.DepolarizingSource(0.0), seed=7)
        assert keyed_run.abort is None and keyed_run.key_report["l"] > 0
        keyed_run.to_json()
        assert cli.main(["verify-squash", "--grid", "4", "--out", str(tmp_path / "sq.json")]) == 0
        cli.main(["nogo", "--grid", "2", "--out", str(tmp_path / "nogo.json")])
    metrics = tracing.layer_metrics(tracer)
    keyed_doc = spec_run(keyed, protocol.DepolarizingSource(0.0), 7)
    # six Born-rule calls, one per pair of bases, for each table: each i.i.d.
    # source built inside the block (two) builds its table once, and the custom
    # run builds one for its one chunk of pulses; one CHSH measurement for the
    # whole 4x4 verify-squash grid (one block of rows), and one apply in all:
    # the keyed run's privacy amplification (the correctness hash is drawn, not
    # applied, and the two runs at params have l = 0); the writer's span and
    # byte count are the keyed run's one document
    assert {name: metrics[name] for name in EXACT} == {
        "protocol.joint_outcome_pmf.calls": 18,
        "protocol.pulses": 2 * pulses + keyed.pulse_pairs,
        "protocol.completed_frac": 1.0,
        "hashing.apply.calls": 1,
        "hashing.apply.in_bits": keyed.n,
        "rates.finite_key_length.calls": 3,
        "chsh.chsh_measurement.calls": 1,
        "squash.verify_squash_conditions.calls": 1,
        "linalg.min_eigenvalue.calls": 3,
        "linalg.adjoint_apply.calls": 2,
        "protocol.to_json.bytes": len(json.dumps(keyed_doc)),
    }
    assert metrics["protocol.to_json.s"] > 0
    assert metrics["protocol.array_bytes"] > 0
    assert sum(metrics[f"squash.nogo_{status}"] for status in NOGO_STATUSES) == 2
    assert metrics["cli.out_bytes"] == sum(
        (tmp_path / name).stat().st_size for name in ("sq.json", "nogo.json")
    )


EXACT = (
    "protocol.joint_outcome_pmf.calls",
    "protocol.pulses",
    "protocol.completed_frac",
    "hashing.apply.calls",
    "hashing.apply.in_bits",
    "rates.finite_key_length.calls",
    "chsh.chsh_measurement.calls",
    "squash.verify_squash_conditions.calls",
    "linalg.min_eigenvalue.calls",
    "linalg.adjoint_apply.calls",
    "protocol.to_json.bytes",
)
NOGO_STATUSES = ("feasible", "infeasible", "inconclusive")
