"""Command-line front end; every subcommand writes a reproducible output file.

Subcommands: ``rate-curve``, ``keylength``, ``verify-squash``, ``nogo``,
``simulate``, ``bounds-check``.  Each ``cmd_*`` returns its document, the
note of its ``wrote PATH (note)`` line and its verdict; ``main`` alone writes
the file, prints that line and picks the exit code.  CSV cells use 12
significant digits; JSON floats are Python's shortest round-trip repr.  A
JSON file is byte for byte ``json.dump(doc, fh, indent=2)`` plus a newline,
written one top-level item at a time: a ``Table`` (the ``verify-squash`` and
``nogo`` cells, ``simulate`` runs) goes by ``json``'s C encoder, one call per
block of at most ``_CHUNK`` rows, so that a large grid is never held as one
string; any other item is written by ``json.dumps`` itself.  The resolved
configuration is echoed into the output header, and re-running with the same
configuration and seed produces byte-identical files.  Exit codes: 0 on
success / all checks passed, 1 on a verification failure, 2 on invalid
configuration, including an ``--out`` that does not name a file in an
existing directory, which is checked before the job runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from itertools import chain

import numpy as np

from .chsh import chsh_measurement
from .linalg import generalized_x, pauli
from .protocol import (
    DepolarizingSource,
    MisalignedSource,
    check_noise_experiment,
    depolarized_pair_state,
    insufficient_pulses,
    label_stage,
    povm_noise_experiment,
    qber,
    run_protocol,
)
from .rates import (
    ProtocolParams,
    asymptotic_rate,
    check_count,
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


# Cells per stacked verify_squash_conditions call (whole alpha rows, at most
# this many cells when a row is shorter) and rows per block of a JSON table,
# so that neither the grid nor its text is held at once.
_CHUNK = 256


@dataclasses.dataclass(frozen=True)
class Table:
    """A JSON list of objects held as columns: row ``i`` maps ``keys[j]`` to ``columns[j][i]``.

    ``keys`` are ``str`` and the columns are sequences of equal length.  Each
    cell must be a JSON scalar (``str``, ``int``, ``float``, ``bool`` or
    ``None``): the writer encodes cells compactly, so a list cell would be
    written without json's indents and silently differ from ``json.dump``.
    """

    keys: tuple
    columns: list


def _write_json(path: str, doc: dict) -> None:
    """Write ``doc`` exactly as ``json.dump(doc, fh, indent=2)`` does, plus a newline.

    ``indent`` selects ``json``'s pure-Python encoder, which is slow on the
    cell tables, so each top-level item is written one of two ways.  A
    ``Table`` is written as its list of rows, ``[]`` when it has none, in
    blocks of ``_CHUNK`` rows: one C-encoder call encodes a block's cells,
    split on a raw NUL (inside a string the encoder escapes it), and one
    ``%s`` template of the keys and indents lays them out, so at most one
    block is held as text.  Any other item is the text
    ``json.dumps({key: value}, indent=2)`` gives it, so keys, nested values
    and the TypeError on a value that is not JSON all come from ``json``.
    """
    encode = json.JSONEncoder(separators=(",\0", ": ")).encode
    with open(path, "w") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write("," if i else "")
            if not isinstance(value, Table):
                fh.write(json.dumps({key: value}, indent=2)[1:-2])
                continue
            # the key as json writes it, then one template row at the indent of a list item
            fh.write(json.dumps({key: []}, indent=2)[1:-3])
            item = "\n    "
            fields = (f"{item}  {json.dumps(k).replace('%', '%%')}: %s" for k in value.keys)
            row = "{" + ",".join(fields) + item + "}"
            rows = len(value.columns[0])
            for start in range(0, rows, _CHUNK):
                block = [col[start : start + _CHUNK] for col in value.columns]
                cells = encode(list(chain.from_iterable(zip(*block))))[1:-1]
                text = ("," + item).join([row] * len(block[0])) % tuple(cells.split(",\0"))
                fh.write(("," if start else "") + item + text)
            fh.write("\n  ]" if rows else "]")
        fh.write("\n}\n" if doc else "}\n")


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
    # checked first, so that an n too large for a float fails here, not in syndrome_budget
    params = ProtocolParams(
        n=args.n,
        q=args.q,
        delta=args.delta,
        s0=args.s0,
        eps=args.eps,
        eps_cor=args.eps_cor,
        f_ec=args.f_ec,
        l_syn=0 if args.l_syn is None else args.l_syn,
    )
    if args.l_syn is None:
        params.l_syn = syndrome_budget(args.n, args.p_est, args.f_ec)
    return params


# Each cmd_* returns (doc, note, ok): doc is a JSON dict, or (config, header,
# rows) for a CSV file; note closes the "wrote PATH (note)" line; ok is the verdict.


def cmd_rate_curve(args):
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
    header = ["p", "rate_device_independent", "rate_device_dependent"]
    return (config, header, rows), f"{args.steps} rows", True


def cmd_keylength(args):
    params = _params_from_args(args)
    report = finite_key_length(params)
    doc = {"config": {"subcommand": "keylength", **params.as_dict()}, **dataclasses.asdict(report)}
    return doc, f"l = {report.l}", True


def cmd_verify_squash(args):
    if args.grid < 2:
        raise ValueError("grid must be at least 2")
    angles = 2.0 * np.pi * np.arange(args.grid) / args.grid
    points = np.exp(1j * angles)
    # one stacked call per block of alpha rows; each report field becomes a (grid, grid) array
    rows = max(1, _CHUNK // args.grid)
    reps = [
        verify_squash_conditions(squash_channel(points[i : i + rows, None], points), args.tol)
        for i in range(0, args.grid, rows)
    ]
    # the cell keys: two angles, then the report fields, which name the last one "passed"
    keys = ("alpha_angle", "beta_angle", "cond1_residual", "cond2_min_eig", "n_min_eig",
            "lift_gap_min_eig", "pass")
    fields = keys[2:6]
    table = {f: np.concatenate([getattr(rep, f) for rep in reps]) for f in fields + ("passed",)}
    all_pass = bool(table["passed"].all())
    worst = {f: float(table[f].max() if f == "cond1_residual" else table[f].min()) for f in fields}
    # one flat list per column, alpha-major like the cells
    angles = angles.tolist()
    columns = [[t for t in angles for _ in angles], angles * args.grid]
    columns += [v.ravel().tolist() for v in table.values()]
    doc = {
        "config": {"subcommand": "verify-squash", "grid": args.grid, "tol": args.tol},
        "all_pass": all_pass,
        "worst": worst,
        "cells": Table(keys, columns),
    }
    return doc, f"all_pass = {all_pass}", all_pass


def cmd_nogo(args):
    if args.grid < 1:
        raise ValueError("grid must be at least 1")
    z = pauli("z")
    thetas = [2.0 * np.pi * k / args.grid for k in range(args.grid)]
    reps = [
        single_party_squash_feasibility(generalized_x(complex(np.exp(1j * t))), z) for t in thetas
    ]
    inconclusive = sum(rep.status == "inconclusive" for rep in reps)
    keys = ("alpha_angle", "status", "residual", "iterations")
    cells = Table(keys, [thetas] + [[getattr(rep, k) for rep in reps] for k in keys[1:]])
    doc = {
        "config": {"subcommand": "nogo", "grid": args.grid},
        "inconclusive_cells": inconclusive,
        "cells": cells,
    }
    return doc, f"{inconclusive} inconclusive cells", inconclusive == 0


def _make_strategy(args):
    if args.strategy == "depolarizing":
        return DepolarizingSource(args.p)
    if args.strategy == "misaligned":
        for name in ("alpha_angle", "beta_angle"):
            if not np.isfinite(getattr(args, name)):
                raise ValueError(f"{name} must be finite, got {getattr(args, name)!r}")
        alpha = complex(np.exp(1j * args.alpha_angle))
        beta = complex(np.exp(1j * args.beta_angle))
        return MisalignedSource(alpha, beta, args.p)
    raise ValueError(f"unknown strategy {args.strategy!r}")


def cmd_simulate(args):
    check_count("runs", args.runs)
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
    header = ("seed", "s_est", "sifted_qber", "key_bits", "keys_match")
    if args.format == "csv":
        doc = (config, header, rows)
    else:
        columns = [list(col) for col in zip(*rows)] if rows else [[]] * len(header)
        columns[-1] = [bool(m) for m in columns[-1]]
        doc = {"config": config, "runs": Table(header, columns)}
    return doc, f"{len(rows)} completed runs, {sum(aborts.values())} aborted", True


def cmd_bounds_check(args):
    check_count("runs", args.runs)
    check_noise_experiment(args.trials, args.batch, args.deviation)
    params = _params_from_args(args)
    rho = depolarized_pair_state(args.p)

    # the insufficient_pulses abort of run seed + r depends on its labels alone
    abort_count = sum(
        insufficient_pulses(params, *label_stage(params, args.seed + r))
        for r in range(args.runs)
    )
    abort_report = chernoff_abort_bound(params)

    m, rng = chsh_measurement(-1j, -1j), np.random.default_rng(args.seed)
    gap = povm_noise_experiment(m, rho, args.trials, rng, args.batch, args.deviation)

    empirical_abort = abort_count / args.runs
    chernoff_ok = empirical_abort <= abort_report.corrected_bound
    azuma_ok = gap.empirical_tail <= gap.bound
    doc = {
        "schema_version": 2,
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
    return doc, f"chernoff ok = {chernoff_ok}, azuma ok = {azuma_ok}", chernoff_ok and azuma_ok


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

    p = add_parser("keylength", cmd_keylength, "finite-size key length report as JSON")
    _add_params_flags(p)

    p = add_parser(
        "verify-squash", cmd_verify_squash, "verify the squash conditions on a parameter grid"
    )
    p.add_argument("--grid", type=int, default=64, help="points per unit-circle axis")
    p.add_argument("--tol", type=float, default=1e-9)

    p = add_parser("nogo", cmd_nogo, "one-party squash feasibility over an alpha grid")
    p.add_argument("--grid", type=int, default=16)

    p = add_parser("simulate", cmd_simulate, "Monte Carlo protocol runs")
    _add_params_flags(p)
    p.add_argument("--strategy", choices=["depolarizing", "misaligned"], default="depolarizing")
    p.add_argument("--p", type=float, default=0.0, help="depolarizing error rate")
    p.add_argument("--alpha-angle", type=float, default=-np.pi / 2)
    p.add_argument("--beta-angle", type=float, default=-np.pi / 2)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

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

    # last, so that it closes every subcommand's help
    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def _check_config_value(action: argparse.Action, value) -> None:
    """Raise ValueError unless ``value`` is of the kind ``action`` takes from the command line.

    argparse parses the value's text, which a string such as "0.05" or a bool could pass.
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


_PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config is not None:
            with open(args.config) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ValueError("config file must hold a JSON object")
            # the namespace holds each flag's destination, "subcommand" and "func";
            # a config file cannot name another config file
            unknown = sorted(set(overrides) - (set(vars(args)) - {"subcommand", "func", "config"}))
            if unknown:
                raise ValueError(f"unknown config keys: {', '.join(unknown)}")
            actions = {a.dest: a for a in _PARSER.subcommand_parsers[args.subcommand]._actions}
            for name, value in overrides.items():
                _check_config_value(actions[name], value)
            # read as flags right after the subcommand, so that command-line flags
            # come later and win; the "=" form keeps a value such as "-x" a value
            i = argv.index(args.subcommand) + 1
            argv[i:i] = [f"{actions[k].option_strings[0]}={v}" for k, v in overrides.items()]
            args = _PARSER.parse_args(argv)
        if not args.out:
            raise ValueError("missing required parameter: out")
        if os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"out must name a file in an existing directory, got {args.out!r}")
        doc, note, ok = args.func(args)
        if isinstance(doc, dict):
            _write_json(args.out, doc)
        else:
            _write_csv(args.out, *doc)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, matching the bad-config code
        return int(exc.code) if exc.code else EXIT_OK
    except (OSError, ValueError, MemoryError) as exc:
        # json.JSONDecodeError, from a --config file, is a ValueError; a job too
        # large for memory is a bad configuration, not a failed verification
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(f"wrote {args.out} ({note})")
    return EXIT_OK if ok else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
