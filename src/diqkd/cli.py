"""Command-line front end; every subcommand writes a reproducible output file.

Subcommands: ``rate-curve``, ``keylength``, ``verify-squash``, ``nogo``,
``simulate``, ``bounds-check``.  All numeric output uses 12 significant
digits with '.' decimal separator, the resolved configuration is echoed
into the output header, and re-running with the same configuration and
seed produces byte-identical files.  Exit codes: 0 on success / all checks
passed, 1 on a verification failure, 2 on invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .chsh import chsh_measurement
from .linalg import generalized_x, pauli
from .protocol import (
    DepolarizingSource,
    MisalignedSource,
    povm_noise_experiment,
    qber,
    run_protocol,
)
from .rates import (
    ProtocolParams,
    asymptotic_rate,
    chernoff_abort_bound,
    device_dependent_rate,
    finite_key_length,
    qber_threshold,
    syndrome_budget,
)
from .squash import single_party_squash_feasibility, squash_channel, verify_squash_conditions

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_BAD_CONFIG = 2


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write_csv(path: str, config: dict, header: list, rows: list) -> None:
    lines = [f"# {k} = {_fmt(v)}" for k, v in config.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def _add_params_flags(sub: argparse.ArgumentParser) -> None:
    # required parameters are validated after the optional config file is
    # merged, so they may come from either source
    sub.add_argument("--n", type=int, default=None, help="target sifted-key bits (required)")
    sub.add_argument("--q", type=float, default=None, help="sampling probability (required)")
    sub.add_argument("--delta", type=float, default=None, help="pulse-count margin (required)")
    sub.add_argument("--s0", type=float, default=None, help="CHSH abort threshold (required)")
    sub.add_argument("--eps", type=float, default=1e-9, help="secrecy parameter")
    sub.add_argument("--eps-cor", type=float, default=1e-9, help="correctness parameter")
    sub.add_argument("--f-ec", type=float, default=1.0, help="error correction efficiency")
    sub.add_argument(
        "--l-syn", type=int, default=None, help="syndrome budget in bits (default: from --p-est)"
    )
    sub.add_argument(
        "--p-est", type=float, default=0.05, help="error rate estimate used to size --l-syn"
    )


def _params_from_args(args) -> ProtocolParams:
    missing = [name for name in ("n", "q", "delta", "s0") if getattr(args, name) is None]
    if missing:
        raise ValueError(f"missing required parameters: {', '.join(missing)}")
    l_syn = args.l_syn
    if l_syn is None:
        l_syn = syndrome_budget(args.n, args.p_est, args.f_ec)
    return ProtocolParams(
        n=args.n,
        q=args.q,
        delta=args.delta,
        s0=args.s0,
        eps=args.eps,
        eps_cor=args.eps_cor,
        f_ec=args.f_ec,
        l_syn=l_syn,
    )


def cmd_rate_curve(args) -> int:
    if not (0.0 <= args.p_min < args.p_max <= 0.15):
        raise ValueError("need 0 <= p_min < p_max <= 0.15")
    if args.steps < 2:
        raise ValueError("need at least 2 steps")
    config = {
        "subcommand": "rate-curve",
        "p_min": args.p_min,
        "p_max": args.p_max,
        "steps": args.steps,
        "f_ec": args.f_ec,
        "qber_threshold": qber_threshold(args.f_ec),
    }
    rows = []
    for p in np.linspace(args.p_min, args.p_max, args.steps):
        rows.append((float(p), asymptotic_rate(float(p), args.f_ec), device_dependent_rate(float(p), args.f_ec)))
    _write_csv(args.out, config, ["p", "rate_device_independent", "rate_device_dependent"], rows)
    print(f"wrote {args.out} ({args.steps} rows)")
    return EXIT_OK


def cmd_keylength(args) -> int:
    params = _params_from_args(args)
    report = finite_key_length(params)
    doc = {
        "config": {"subcommand": "keylength", **params.as_dict()},
        "l": report.l,
        "mu_prime": report.mu_prime,
        "delta_s": report.delta_s,
        "mu": report.mu,
        "hmin_bound": report.hmin_bound,
        "components": report.components,
        "reason": report.reason,
    }
    _write_json(args.out, doc)
    print(f"wrote {args.out} (l = {report.l})")
    return EXIT_OK


def cmd_verify_squash(args) -> int:
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    angles = 2.0 * np.pi * np.arange(args.grid) / args.grid
    betas = np.exp(1j * angles)
    # one stacked call per alpha row; each report field becomes a (grid, grid) array
    reps = [verify_squash_conditions(squash_channel(np.exp(1j * t), betas), args.tol) for t in angles]
    fields = ("cond1_residual", "cond2_min_eig", "n_min_eig", "lift_gap_min_eig")
    table = {f: np.stack([getattr(rep, f) for rep in reps]) for f in fields + ("passed",)}
    all_pass = bool(table["passed"].all())
    worst = {f: float(table[f].max() if f == "cond1_residual" else table[f].min()) for f in fields}
    table = {f: v.tolist() for f, v in table.items()}
    cells = [
        {"alpha_angle": ta, "beta_angle": tb}
        | {f: table[f][i][j] for f in fields}
        | {"pass": table["passed"][i][j]}
        for i, ta in enumerate(angles.tolist())
        for j, tb in enumerate(angles.tolist())
    ]
    doc = {
        "config": {"subcommand": "verify-squash", "grid": args.grid, "tol": args.tol},
        "all_pass": all_pass,
        "worst": worst,
        "cells": cells,
    }
    _write_json(args.out, doc)
    print(f"wrote {args.out} (all_pass = {all_pass})")
    return EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED


def cmd_nogo(args) -> int:
    if args.grid < 1:
        raise ValueError("grid must be at least 1")
    z = pauli("z")
    cells = []
    inconclusive = 0
    for k in range(args.grid):
        theta = 2.0 * np.pi * k / args.grid
        alpha = complex(np.exp(1j * theta))
        rep = single_party_squash_feasibility(generalized_x(alpha), z)
        inconclusive += rep.status == "inconclusive"
        cells.append(
            {
                "alpha_angle": float(theta),
                "status": rep.status,
                "residual": rep.residual,
                "iterations": rep.iterations,
            }
        )
    doc = {
        "config": {"subcommand": "nogo", "grid": args.grid},
        "inconclusive_cells": inconclusive,
        "cells": cells,
    }
    _write_json(args.out, doc)
    print(f"wrote {args.out} ({inconclusive} inconclusive cells)")
    return EXIT_OK if inconclusive == 0 else EXIT_VERIFICATION_FAILED


def _make_strategy(args):
    if args.strategy == "depolarizing":
        return DepolarizingSource(args.p)
    if args.strategy == "misaligned":
        alpha = complex(np.exp(1j * args.alpha_angle))
        beta = complex(np.exp(1j * args.beta_angle))
        return MisalignedSource(alpha, beta, args.p)
    raise ValueError(f"unknown strategy {args.strategy!r}")


def cmd_simulate(args) -> int:
    if args.runs < 1:
        raise ValueError("runs must be at least 1")
    params = _params_from_args(args)
    strategy = _make_strategy(args)
    rows = []
    aborts = {}
    for r in range(args.runs):
        t = run_protocol(params, strategy, seed=args.seed + r)
        if t.abort is None:
            rows.append(
                (
                    args.seed + r,
                    t.s_est,
                    qber(t.sifted_key, t.bob_raw),
                    len(t.secret_key_a),
                    int(np.array_equal(t.secret_key_a, t.secret_key_b)),
                )
            )
        else:
            aborts[t.abort] = aborts.get(t.abort, 0) + 1
    config = {
        "subcommand": "simulate",
        "strategy": json.dumps(strategy.describe()),
        "runs": args.runs,
        "seed": args.seed,
        **params.as_dict(),
        "aborts": json.dumps(aborts),
    }
    if rows:
        s_vals = np.array([r[1] for r in rows])
        q_vals = np.array([r[2] for r in rows])
        config["mean_s_est"] = float(s_vals.mean())
        config["std_s_est"] = float(s_vals.std(ddof=1)) if len(rows) > 1 else 0.0
        config["mean_qber"] = float(q_vals.mean())
    if args.format == "csv":
        _write_csv(
            args.out, config, ["seed", "s_est", "sifted_qber", "key_bits", "keys_match"], rows
        )
    else:
        doc = {
            "config": config,
            "runs": [
                {
                    "seed": r[0],
                    "s_est": r[1],
                    "sifted_qber": r[2],
                    "key_bits": r[3],
                    "keys_match": bool(r[4]),
                }
                for r in rows
            ],
        }
        _write_json(args.out, doc)
    print(f"wrote {args.out} ({len(rows)} completed runs, {sum(aborts.values())} aborted)")
    return EXIT_OK


def cmd_bounds_check(args) -> int:
    if args.runs < 1:
        raise ValueError("runs must be at least 1")
    params = _params_from_args(args)
    strategy = DepolarizingSource(args.p)

    abort_count = 0
    for r in range(args.runs):
        t = run_protocol(params, strategy, seed=args.seed + r)
        abort_count += t.abort == "insufficient_pulses"
    abort_report = chernoff_abort_bound(params)

    m = chsh_measurement(-1j, -1j)
    rng = np.random.default_rng(args.seed)
    gap = povm_noise_experiment(
        m,
        strategy.pulse_state(0),
        trials=args.trials,
        rng=rng,
        batch_size=args.batch,
        deviation=args.deviation,
    )

    empirical_abort = abort_count / args.runs
    chernoff_ok = empirical_abort <= abort_report.corrected_bound
    azuma_ok = gap.empirical_tail <= gap.bound
    doc = {
        "config": {
            "subcommand": "bounds-check",
            "runs": args.runs,
            "seed": args.seed,
            "p": args.p,
            "trials": args.trials,
            "batch": args.batch,
            "deviation": args.deviation,
            "n": params.n,
            "q": params.q,
            "delta": params.delta,
        },
        "chernoff": {
            "empirical_abort_rate": empirical_abort,
            "nominal_bound": abort_report.nominal_bound,
            "corrected_bound": abort_report.corrected_bound,
            "within_corrected_bound": bool(chernoff_ok),
        },
        "azuma": {
            "empirical_tail": gap.empirical_tail,
            "bound": gap.bound,
            "within_bound": bool(azuma_ok),
        },
    }
    _write_json(args.out, doc)
    print(f"wrote {args.out} (chernoff ok = {chernoff_ok}, azuma ok = {azuma_ok})")
    return EXIT_OK if chernoff_ok and azuma_ok else EXIT_VERIFICATION_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diqkd",
        description="CHSH-certified QKD analysis toolkit: rates, squash channels, simulation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    parser.subcommand_parsers = sub.choices

    def add_parser(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument(
            "--config",
            default=None,
            help="JSON file with flag defaults (same keys as flags); explicit flags override",
        )
        p.set_defaults(func=func)
        return p

    p = add_parser("rate-curve", cmd_rate_curve, "asymptotic key rate curve as CSV")
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=0.1)
    p.add_argument("--steps", type=int, default=101)
    p.add_argument("--f-ec", type=float, default=1.0)
    p.add_argument("--out", default=None)

    p = add_parser("keylength", cmd_keylength, "finite-size key length report as JSON")
    _add_params_flags(p)
    p.add_argument("--out", default=None)

    p = add_parser(
        "verify-squash", cmd_verify_squash, "verify the squash conditions on a parameter grid"
    )
    p.add_argument("--grid", type=int, default=64, help="points per unit-circle axis")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)

    p = add_parser("nogo", cmd_nogo, "one-party squash feasibility over an alpha grid")
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--out", default=None)

    p = add_parser("simulate", cmd_simulate, "Monte Carlo protocol runs")
    _add_params_flags(p)
    p.add_argument("--strategy", choices=["depolarizing", "misaligned"], default="depolarizing")
    p.add_argument("--p", type=float, default=0.0, help="depolarizing error rate")
    p.add_argument("--alpha-angle", type=float, default=-np.pi / 2)
    p.add_argument("--beta-angle", type=float, default=-np.pi / 2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)

    p = add_parser(
        "bounds-check", cmd_bounds_check, "Monte Carlo tails versus concentration bounds"
    )
    _add_params_flags(p)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--batch", type=int, default=4800)
    p.add_argument("--deviation", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


def _check_config_value(action: argparse.Action, value) -> None:
    """Raise ValueError unless ``value`` is of the kind ``action`` takes from the command line.

    ``set_defaults`` stores a config value as it is, past argparse's
    ``type`` and ``choices`` checks, so they are made here.
    """
    if action.choices is not None:
        ok = value in action.choices
        kind = f"one of {', '.join(action.choices)}"
    elif action.type is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
        kind = "an integer"
    elif action.type is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        kind = "a number"
    else:
        ok = isinstance(value, str)
        kind = "a string"
    if not ok:
        raise ValueError(f"{action.dest} must be {kind}, got {value!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            with open(args.config) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("config file must hold a JSON object")
            # the parsed namespace holds every destination of the subcommand,
            # plus the top-level "subcommand" and the "func" default
            unknown = sorted(set(overrides) - (set(vars(args)) - {"subcommand", "func"}))
            if unknown:
                raise ValueError(f"unknown config keys: {', '.join(unknown)}")
            sub = parser.subcommand_parsers[args.subcommand]
            actions = {action.dest: action for action in sub._actions}
            for name, value in overrides.items():
                _check_config_value(actions[name], value)
            sub.set_defaults(**overrides)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the bad-config code
        return int(exc.code) if exc.code else EXIT_OK
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        if args.out is None:
            raise ValueError("missing required parameter: out")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
