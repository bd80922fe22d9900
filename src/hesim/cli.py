"""Batch command-line front end.

Subcommands sweep the overlap/violation curve (``kz``), compare the CHSH
maximum of the truncated state's correlation matrix with the k(z) closed
form (``chsh``), Monte-Carlo the teleportation protocols (``teleport``),
run entanglement swapping (``swap``), and report entanglement for named
states (``entropy``). Output is CSV (kz) or JSON (everything else), to
--out or stdout. All stochastic commands default to seed 0 and echo the
seed, so reruns are byte-identical; ``chsh`` is deterministic and only
echoes its ``--seed`` and ``--restarts``.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

import numpy as np

from .bellchsh import analytic_optimum, optimize_chsh
from .entanglement import Bipartition, entanglement_entropy, schmidt_coefficients
from .fock import (
    SpaceDescriptor,
    StateVector,
    TruncationError,
    even_coherent,
    mode_dim_for,
    tensor,
)
from .protocols import (
    HesLabel,
    ParityBellLabel,
    RngStream,
    SpinBellLabel,
    draw,
    hes_state,
    parity_bell_state,
    spin_bell_state,
    swap_entanglement,
    teleport_parity,
    teleport_spin,
)
from .pseudospin import Direction, build_pseudospin, k_matrix, k_series

ADAPTIVE_DIM_TOL = 1e-14
DEFAULT_SEED = 0

_UNICODE_ALIASES = str.maketrans(
    {
        "ψ": "psi",  # psi
        "φ": "phi",  # phi
        "Ψ": "Psi",
        "Φ": "Phi",
        "⁺": "+",  # superscript plus/minus
        "⁻": "-",
        "̃": "~",  # combining tilde
        "′": "p",  # prime
    }
)


def _canon(label: str) -> str:
    return label.translate(_UNICODE_ALIASES)


def _parse_enum(enum_cls, text: str, what: str):
    canon = _canon(text)
    for member in enum_cls:
        if member.value == canon:
            return member
    choices = ", ".join(m.value for m in enum_cls)
    raise ValueError(f"unknown {what} {text!r}; choose one of: {choices}")


def _dim_for(override: int | None, *zs: float) -> int:
    """--dim if given, else the largest adaptive cutoff over the amplitudes."""
    if override is not None:
        return override
    return max(mode_dim_for(z, ADAPTIVE_DIM_TOL) for z in zs)


def _parse_amplitude(text: str, name: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ValueError(
            f"{name} must be a real or complex literal like 0.6 or 0.6+0.8j, "
            f"got {text!r}"
        ) from None


def _normalized_pair(alpha: complex, beta: complex) -> tuple[complex, complex]:
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {alpha!r} and {beta!r}")
    norm = math.hypot(alpha.real, alpha.imag, beta.real, beta.imag)
    if norm == 0.0:
        raise ValueError("alpha and beta cannot both be zero")
    return alpha / norm, beta / norm


def _direction_angles(d: Direction) -> dict[str, float]:
    return {"theta": d.theta, "phi": d.phi}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def cmd_kz(args: argparse.Namespace) -> str:
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1, got {args.steps}")
    for flag, z in (("--zmin", args.zmin), ("--zmax", args.zmax)):
        if not math.isfinite(z):
            raise ValueError(f"{flag} must be finite, got {z!r}")
    if args.zmin < 0.0 or args.zmin > args.zmax:
        raise ValueError(
            f"need 0 <= zmin <= zmax, got zmin={args.zmin!r} zmax={args.zmax!r}"
        )
    if args.steps == 1:
        zs = [args.zmin]
    else:
        span = args.zmax - args.zmin
        zs = [args.zmin + i * span / (args.steps - 1) for i in range(args.steps)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["z", "K_series", "K_matrix", "abs_diff", "violation"])
    for z in zs:
        ks = k_series(z)
        km = k_matrix(z, _dim_for(args.dim, z))
        violation = 2.0 * math.sqrt(1.0 + ks * ks)
        writer.writerow([repr(z), repr(ks), repr(km), repr(abs(ks - km)), repr(violation)])
    return buf.getvalue()


def cmd_chsh(args: argparse.Namespace) -> str:
    if args.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {args.restarts}")
    label = _parse_enum(HesLabel, args.label, "hybrid state label")
    dim = _dim_for(args.dim, args.z)
    ops = build_pseudospin(dim)
    state = hes_state(label, args.z, dim)
    analytic = analytic_optimum(args.z, label)
    numeric = optimize_chsh(state, ops)
    payload = {
        "command": "chsh",
        "z": args.z,
        "label": label.value,
        "dim": dim,
        "seed": args.seed,
        "restarts": args.restarts,
        "iterations": 0,
        "analytic_value": analytic.value,
        "optimizer_value": numeric.value,
        "gap": numeric.value - analytic.value,
        "optimizer_settings": {
            "a": _direction_angles(numeric.settings.a),
            "a_prime": _direction_angles(numeric.settings.a_prime),
            "b": _direction_angles(numeric.settings.b),
            "b_prime": _direction_angles(numeric.settings.b_prime),
        },
    }
    return _json(payload)


def cmd_teleport(args: argparse.Namespace) -> str:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    alpha, beta = _normalized_pair(
        _parse_amplitude(args.alpha, "alpha"), _parse_amplitude(args.beta, "beta")
    )
    channel = _parse_enum(HesLabel, args.channel, "channel label")
    if args.kind == "spin" and args.zpp is not None:
        raise ValueError("--zpp is the input codeword amplitude of parity teleportation; "
                         "spin teleportation takes none")
    zpp = args.zpp if args.zpp is not None else args.z
    dim = _dim_for(args.dim, max(args.z, zpp))
    if args.kind == "spin":
        table = teleport_spin(alpha, beta, channel, args.z, dim)
    else:
        table = teleport_parity(alpha, beta, zpp, channel, args.z, dim)
    counts = {outcome.value: 0 for outcome, _, _ in table}
    fid_min, fid_sum = math.inf, 0.0
    for trial in range(args.trials):
        outcome, _, rec = draw(table, RngStream(args.seed + trial))
        counts[outcome.value] += 1
        fid_min = min(fid_min, rec.fidelity)
        fid_sum += rec.fidelity
    payload = {
        "command": "teleport",
        "kind": args.kind,
        "alpha": [alpha.real, alpha.imag],
        "beta": [beta.real, beta.imag],
        "z": args.z,
        "channel": channel.value,
        "dim": dim,
        "trials": args.trials,
        "seed": args.seed,
        "counts": counts,
        "frequencies": {k: v / args.trials for k, v in counts.items()},
        "fidelity_min": fid_min,
        "fidelity_mean": fid_sum / args.trials,
    }
    if args.kind == "parity":
        payload["z_dblprime"] = zpp
    return _json(payload)


def cmd_swap(args: argparse.Namespace) -> str:
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    dim = _dim_for(args.dim, args.z, args.zprime)
    table = swap_entanglement(args.z, args.zprime, dim)
    counts = {outcome: 0 for outcome, _, _ in table}
    for trial in range(args.trials):
        counts[draw(table, RngStream(args.seed + trial))[0]] += 1
    per_outcome = {}
    for outcome, _, rec in table:  # every draw of an outcome yields its row's record
        slot = per_outcome[outcome.value] = dict(
            count=counts[outcome], parity_label=None, fidelity_min=None,
            entropy_min=None, entropy_max=None)
        if slot["count"]:  # an outcome never drawn reports nulls and no entropy
            cut = Bipartition.of(rec.mode_state.space, {0})
            ent = entanglement_entropy(rec.mode_state, cut)
            slot.update(parity_label=rec.parity_label.value, fidelity_min=rec.fidelity,
                        entropy_min=ent, entropy_max=ent)
    fid_min = min(s["fidelity_min"] for s in per_outcome.values() if s["count"])
    payload = {
        "command": "swap",
        "z": args.z,
        "zprime": args.zprime,
        "dim": dim,
        "trials": args.trials,
        "seed": args.seed,
        "fidelity_min": fid_min,
        "outcomes": per_outcome,
    }
    return _json(payload)


def _build_named_state(spec: str, dim_override: int | None) -> tuple[StateVector, Bipartition]:
    parts = _canon(spec).split(":")
    kind = parts[0] if parts else ""
    params: dict[str, float] = {}
    if parts and "=" in parts[-1]:
        for item in parts.pop().split(","):
            key, _, value = item.partition("=")
            try:
                params[key.strip()] = float(value)
            except ValueError:
                raise ValueError(f"bad parameter {item!r} in state spec {spec!r}") from None
    if kind == "spinbell":
        if len(parts) != 2:
            raise ValueError(f"spinbell spec needs a label, got {spec!r}")
        label = _parse_enum(SpinBellLabel, parts[1], "spin Bell label")
        state = spin_bell_state(label)
    elif kind == "hes":
        if len(parts) != 2 or "z" not in params:
            raise ValueError(f"hes spec needs a label and z=..., got {spec!r}")
        label = _parse_enum(HesLabel, parts[1], "hybrid state label")
        z = params["z"]
        state = hes_state(label, z, _dim_for(dim_override, z))
    elif kind == "paritybell":
        if len(parts) != 2 or "z" not in params or "zp" not in params:
            raise ValueError(
                f"paritybell spec needs a label, z=... and zp=..., got {spec!r}"
            )
        label = _parse_enum(ParityBellLabel, parts[1], "parity Bell label")
        z, zp = params["z"], params["zp"]
        state = parity_bell_state(label, z, zp, _dim_for(dim_override, z, zp))
    elif kind == "product":
        if "z" not in params:
            raise ValueError(f"product spec needs z=..., got {spec!r}")
        z = params["z"]
        spin = StateVector(SpaceDescriptor.qubit(), np.array([1.0, 0.0]))
        state = tensor(spin, even_coherent(z, _dim_for(dim_override, z)))
    else:
        raise ValueError(
            f"unknown state spec {spec!r}; use spinbell:..., hes:..., "
            f"paritybell:... or product:z=..."
        )
    return state, Bipartition.of(state.space, {0})


def cmd_entropy(args: argparse.Namespace) -> str:
    state, cut = _build_named_state(args.statespec, args.dim)
    spectrum = schmidt_coefficients(state, cut)
    payload = {
        "command": "entropy",
        "statespec": args.statespec,
        "entropy_bits": spectrum.entropy(),
        "schmidt_coefficients": list(spectrum.coefficients),
    }
    return _json(payload)


def _kz_subparser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--zmin", type=float, required=True)
    p.add_argument("--zmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True, help="number of rows")
    p.add_argument("--dim", type=int, default=None, help="override the adaptive Fock cutoff")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_kz)


def _chsh_subparser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--label", default="phi+", help="hybrid state label (default phi+)")
    p.add_argument("--restarts", type=int, default=16, help="echoed only; must be >= 1")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="echoed only")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chsh)


def _teleport_subparser(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=("spin", "parity"))
    p.add_argument("--alpha", required=True, help="input amplitude (complex literal)")
    p.add_argument("--beta", required=True)
    p.add_argument("--z", type=float, required=True, help="channel cat amplitude")
    p.add_argument(
        "--zpp", type=float, default=None,
        help="input codeword amplitude for parity teleportation (default: z)",
    )
    p.add_argument("--channel", default="phi+")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_teleport)


def _swap_subparser(p: argparse.ArgumentParser) -> None:
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--zprime", type=float, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_swap)


def _entropy_subparser(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "statespec",
        help="spinbell:Phi+ | hes:phi+:z=1 | paritybell:phi~+:z=1,zp=0.5 | product:z=1",
    )
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_entropy)


# name: (help line, fills in the subparser), in help order. The handlers are
# bound inside the fillers, at call time, so a wrapper installed on a
# module-level ``cmd_*`` name after import still sees every call.
_SUBCOMMANDS = {
    "kz": ("sweep the overlap k(z) and the CHSH violation", _kz_subparser),
    "chsh": ("compare the CHSH maximum with the closed form", _chsh_subparser),
    "teleport": ("Monte-Carlo teleportation runs", _teleport_subparser),
    "swap": ("Monte-Carlo entanglement swapping runs", _swap_subparser),
    "entropy": ("entropy and Schmidt spectrum of a named state", _entropy_subparser),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``hesim`` parser with every subcommand, or with ``command`` alone.

    Each subparser is built the same way in either tree, so its help, usage
    and errors read the same; only the top-level usage's list of subcommands
    differs.
    """
    parser = argparse.ArgumentParser(
        prog="hesim",
        description="Hybrid entangled state simulator: sweeps, CHSH optimization, "
        "teleportation and swapping Monte Carlo, entanglement reports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, fill) in _SUBCOMMANDS.items():
        if command in (None, name):
            fill(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Building all five subparsers is a large share of a short command such as
    # chsh, so only the one argv names is built. Anything left over is
    # reported by the full tree, whose usage lists every subcommand.
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args, extras = build_parser(command).parse_known_args(argv)
    if extras:
        args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        _emit(text, args.out)
    except (ValueError, TruncationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
