"""Command-line front end: each capability of the library is a subcommand
emitting JSON (or CSV for `sample`)."""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import counts as counts_mod
from .classical_bound import classical_bound, margin_report
from .entclass import PAIR_PARTITIONS, classify_by_fidelity, fidelity_ceiling, rank_signature
from .mbqc import (
    SINGLE_QUBIT_INSTRUCTIONS,
    TWO_QUBIT_INSTRUCTIONS,
    GateInstruction,
    execute,
    execute_density,
    single_rotation_pattern,
    target_single,
    target_two_qubit,
    two_qubit_pattern,
)
from .noise import NoiseSpec, apply_noise
from .states import PureState, cluster4, fidelity, named_state
from .witness import build_b2, build_b4, build_fidelity, required_settings, witness_expectation


# Each paper task: (pattern builder, target builder, instruction sweep, the
# measured mean fidelity and its error).
_TASKS = {
    "two-qubit": (two_qubit_pattern, target_two_qubit, TWO_QUBIT_INSTRUCTIONS, (0.895, 0.010)),
    "single": (single_rotation_pattern, target_single, SINGLE_QUBIT_INSTRUCTIONS, (0.926, 0.010)),
}

# Each reported observable: the two fidelity bounds and the fidelity F itself.
_OBSERVABLES = {"b2": build_b2, "b4": build_b4, "f": build_fidelity}


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_angle(text: str, name: str = "angle") -> float:
    """Radians; accepts finite floats and the literals pi, pi/2, -pi/2, etc."""
    body = text.strip()
    sign, literal = (-1.0, body[1:]) if body.startswith("-") else (1.0, body)
    try:
        value = float(body)
    except ValueError:
        value = sign * math.pi if literal == "pi" else math.nan
        if literal.startswith("pi/"):
            try:
                value = sign * math.pi / float(literal[3:])
            except (ValueError, ZeroDivisionError):
                pass
    if not math.isfinite(value):
        raise UsageError(f"{name} {text!r} is not a finite number of radians, pi or pi/k")
    return value


def _attach_angle_values(argv) -> list:
    """Write `--alpha -pi/2` as `--alpha=-pi/2`, also for abbreviations such as
    `--alph`: argparse takes a value that starts with '-' and is not a plain
    number for an option."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        angle_flag = len(flag) > 2 and ("--alpha".startswith(flag) or "--beta".startswith(flag))
        if angle_flag and token.startswith("-") and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _resource_state(noise: str | None):
    """The cluster resource, pure or noisy per the --noise flag."""
    state = cluster4()
    if noise is None:
        return state
    try:
        return apply_noise(state, NoiseSpec.parse(noise))
    except ValueError as exc:  # an unparsable spec or a dephasing qubit outside 1..4
        raise UsageError(f"--noise {noise!r}: {exc}")


def _state_json(state: PureState) -> dict:
    return {"n": state.n_qubits, "re": state.amplitudes.real.tolist(), "im": state.amplitudes.imag.tolist()}


def _cmd_witness(args) -> dict:
    state = _resource_state(args.noise)
    observables = {name: build() for name, build in _OBSERVABLES.items()}
    return {
        "command": "witness",
        "noise": args.noise,
        **{name: {"bound": witness_expectation(state, b), "sigma": None} for name, b in observables.items()},
        "settings": {name: [s.bases for s in required_settings(b)] for name, b in observables.items()},
    }


def _cmd_schmidt(args) -> dict:
    states = {"cluster4": cluster4(), **{name: named_state(name) for name in ("ghz4", "w4", "dicke4")}}
    signatures = {name: list(rank_signature(s)) for name, s in states.items()}
    ceilings = {
        key: {f"k{k}": fidelity_ceiling(cluster4(), part, k) for k in (1, 2, 3, 4)}
        for key, part in PAIR_PARTITIONS.items()
    }
    out = {"command": "schmidt", "signatures": signatures, "ceilings": ceilings}
    if args.fidelity is not None:
        if not 0.0 <= args.fidelity <= 1.0:
            raise UsageError("--fidelity must lie in [0, 1]")
        out["fidelity"] = args.fidelity
        out["excluded_classes"] = classify_by_fidelity(args.fidelity)
    return out


def _mbqc_row(build_pattern, instr, resource):
    try:
        pattern = build_pattern(instr)
    except ValueError as exc:  # only --alpha/--beta can ask for a gate the resource cannot realize
        raise UsageError(f"--alpha {instr.alpha!r} --beta {instr.beta!r}: {exc}")
    run_branch = execute if isinstance(resource, PureState) else execute_density
    fids = [fidelity(run_branch(pattern, resource, b)[0], pattern.target) for b in pattern.corrections]
    return {
        "alpha": instr.alpha,
        "beta": instr.beta,
        "branch_fidelities": fids,
        "mean_fidelity": sum(fids) / len(fids),
    }


def _cmd_mbqc(args) -> dict:
    if (args.alpha is None) != (args.beta is None):
        raise UsageError("--alpha and --beta must be given together")
    build_pattern, _, instructions, _ = _TASKS[args.task]
    if args.alpha is not None:
        alpha, beta = parse_angle(args.alpha, "--alpha"), parse_angle(args.beta, "--beta")
        instructions = [GateInstruction(alpha, beta)]
    resource = _resource_state(args.noise)
    rows = [_mbqc_row(build_pattern, instr, resource) for instr in instructions]
    return {"command": "mbqc", "task": args.task, "noise": args.noise, "rows": rows}


def _cmd_bounds(args) -> dict:
    _, target, instructions, measured = _TASKS[args.task]
    value, strategy = classical_bound([target(i) for i in instructions], bits=2)
    return {
        "command": "bounds",
        "task": args.task,
        "bound": value,
        "groups": [list(g) for g in strategy.groups],
        "prepared_states": [_state_json(s) for s in strategy.prepared_states],
        "margin_sigma": margin_report(measured[0], measured[1], value),
    }


def _cmd_sample(args) -> str:
    if not 1 <= args.shots <= 2**63 - 1:  # numpy draws at most a C long of events
        raise UsageError(f"--shots must lie in 1..2**63 - 1, got {args.shots}")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    state = _resource_state(args.noise)
    if args.settings is None:
        settings = [s.bases for s in required_settings(build_b4())]
    else:  # an empty string is one empty setting, a usage error below
        settings = [s.strip() for s in args.settings.split(",")]
    records = []
    for i, bases in enumerate(settings):
        try:  # a malformed setting, or one whose length is not the resource's 4 qubits
            setting = counts_mod.TomographicSetting(bases)
            records.append(counts_mod.sample_counts(state, setting, args.shots, args.seed + i))
        except ValueError as exc:
            raise UsageError(str(exc))
    return counts_mod.serialize_counts(records)


def _cmd_ingest(args) -> dict:
    """Each observable's bound and sigma from a counts file; None where a setting it reads is missing or empty."""
    try:
        with open(args.counts, encoding="utf-8-sig") as fh:  # a spreadsheet's byte-order mark is not data
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {args.counts}: {exc}")
    try:
        records = counts_mod.parse_counts(text)
    except ValueError as exc:
        raise DataError(str(exc))
    out, zero = {"command": "ingest", "file": args.counts}, None
    for name, build in _OBSERVABLES.items():
        try:
            bound, sigma = counts_mod.witness_from_counts(records, build())
        except counts_mod.ZeroCountsError as exc:  # a term read from a setting with no counts
            out[name], zero = None, zero or str(exc)
        except ValueError:  # no record covers some term of this observable
            out[name] = None
        else:
            out[name] = {"bound": bound, "sigma": sigma}
    if not any(map(out.get, _OBSERVABLES)):
        raise DataError(zero or "counts file covers neither witness's settings")
    return out


def build_parser() -> _Parser:
    parser = _Parser(prog="clustersim")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("witness", help="fidelity and its lower bounds from the simulated state")
    p.add_argument("--noise", help="e.g. white:0.86 or dephase:0.05:1,2")

    p = sub.add_parser("schmidt", help="rank signatures and fidelity ceilings")
    p.add_argument("--fidelity", type=float, help="classify which classes this fidelity excludes")

    p = sub.add_parser("mbqc", help="pattern fidelity tables")
    p.add_argument("--task", choices=list(_TASKS), required=True)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--noise")

    p = sub.add_parser("bounds", help="classical no-entanglement fidelity bounds")
    p.add_argument("--task", choices=list(_TASKS), required=True)

    p = sub.add_parser("sample", help="write synthetic count CSVs")
    p.add_argument("--shots", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise")
    p.add_argument("--settings", help="comma-separated, e.g. XXZZ,ZZXX")

    p = sub.add_parser("ingest", help="read count CSVs, print the fidelity and its bounds with error bars")
    p.add_argument("--counts", required=True)

    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_angle_values(argv))
        if args.subcommand is None:
            raise UsageError("a subcommand is required")
        handler = {"witness": _cmd_witness, "schmidt": _cmd_schmidt, "mbqc": _cmd_mbqc, "bounds": _cmd_bounds,
                   "sample": _cmd_sample, "ingest": _cmd_ingest}[args.subcommand]
        output = handler(args)  # CSV text, or a dict printed as JSON
        output = output if isinstance(output, str) else json.dumps(output, indent=2) + "\n"
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"data error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(output)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
