"""Batch command-line front end.

Subcommands sweep the overlap/violation curve (``kz``), compare the CHSH
maximum of the truncated state's correlation matrix with the k(z) closed
form (``chsh``), Monte-Carlo the teleportation protocols (``teleport``),
run entanglement swapping (``swap``), and report entanglement for named
states (``entropy``). Output is CSV (kz) or JSON (everything else), to
--out or stdout. All stochastic commands default to seed 0 and echo the
seed, so reruns are byte-identical; ``chsh`` is deterministic and only
echoes its ``--seed`` and ``--restarts``. A module that only some commands
run is imported by the code that runs it: ``bellchsh`` by ``chsh``,
``entanglement`` by ``swap`` and ``entropy``, and ``json`` by the JSON
reports, so the import of this module loads only what every command runs.
"""

from __future__ import annotations

import argparse
import math
import sys

from .fock import _MODE_DIM_CAP, Encoding, LogicalState, mode_dim_for, tensor
from .protocols import (
    HesLabel,
    ParityBellLabel,
    SpinBellLabel,
    _swap_partner,
    hes_state,
    parity_bell_state,
    run_trials,
    spin_bell_state,
    swap_entanglement,
    teleport_parity,
    teleport_spin,
)
from .pseudospin import k_matrix, k_series

DEFAULT_SEED = 0
# kz builds every row before it writes one, about 0.35 KB each: 35 MB at the cap
_KZ_STEPS_CAP = 100_000
# and each row walks up to its cutoff: steps times the largest cutoff is capped
# so that the largest accepted sweep takes about a minute (on a 2-vCPU x86 VM,
# 62-65 s for 100 000 rows up to z = 63 and 23-24 s for 403 rows near the Fock
# cap, most of it building the cat codewords and k_matrix's math.fsum over them)
_KZ_LEVELS_CAP = 400_000_000

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
        if override > _MODE_DIM_CAP:
            raise ValueError(f"--dim must be at most {_MODE_DIM_CAP}, got {override}")
        return override
    return max(mode_dim_for(z) for z in zs)


def _parse_amplitude(text: str, name: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ValueError(
            f"{name} must be a real or complex literal like 0.6 or 0.6+0.8j, "
            f"got {text!r}"
        ) from None


def _normalized_pair(alpha: complex, beta: complex) -> tuple[complex, complex]:
    parts = (alpha.real, alpha.imag, beta.real, beta.imag)
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"alpha and beta must be finite, got {alpha!r} and {beta!r}")
    norm = math.hypot(*parts)
    if norm == 0.0:
        raise ValueError("alpha and beta cannot both be zero")
    if norm < sys.float_info.min:  # subnormal, so short of bits: scale by 2**600, exactly
        return _normalized_pair(*(complex(math.ldexp(x.real, 600), math.ldexp(x.imag, 600))
                                  for x in (alpha, beta)))
    return alpha / norm, beta / norm


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json(payload: dict) -> str:
    import json

    return json.dumps(payload, indent=2) + "\n"


def cmd_kz(args: argparse.Namespace) -> str:
    if args.steps < 1:
        raise ValueError(f"steps must be >= 1, got {args.steps}")
    if args.steps > _KZ_STEPS_CAP:
        raise ValueError(f"steps must be at most {_KZ_STEPS_CAP}, got {args.steps}")
    for flag, z in (("--zmin", args.zmin), ("--zmax", args.zmax)):
        if not math.isfinite(z):
            raise ValueError(f"{flag} must be finite, got {z!r}")
    if args.zmin < 0.0 or args.zmin > args.zmax:
        raise ValueError(
            f"need 0 <= zmin <= zmax, got zmin={args.zmin!r} zmax={args.zmax!r}"
        )
    # the largest cutoff, without a walk: --dim, else about zmax**2 levels; no
    # row walks past the Fock cap, where it fails as a one-row sweep does
    levels = math.ceil(min(args.zmax * args.zmax if args.dim is None else args.dim,
                           _MODE_DIM_CAP))
    if args.steps * levels > _KZ_LEVELS_CAP:
        raise ValueError(f"steps x largest cutoff must be at most {_KZ_LEVELS_CAP} levels, "
                         f"got {args.steps} x {levels}")
    if args.steps == 1:
        zs = [args.zmin]
    else:
        span = args.zmax - args.zmin
        zs = [args.zmin + i * span / (args.steps - 1) for i in range(args.steps)]
    rows = ["z,K_series,K_matrix,abs_diff,violation\n"]
    for z in zs:  # reprs of finite floats: no field needs CSV quoting
        ks = k_series(z)
        km = k_matrix(z, _dim_for(args.dim, z))
        violation = 2.0 * math.sqrt(1.0 + ks * ks)
        rows.append(",".join(map(repr, (z, ks, km, abs(ks - km), violation))) + "\n")
    return "".join(rows)


def cmd_chsh(args: argparse.Namespace) -> str:
    from .bellchsh import ChshSettings, analytic_optimum, optimize_chsh

    if args.restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {args.restarts}")
    label = _parse_enum(HesLabel, args.label, "hybrid state label")
    analytic = analytic_optimum(args.z, label)  # refuses a z its series cannot reach
    dim = _dim_for(args.dim, args.z)
    numeric = optimize_chsh(hes_state(label, args.z, dim))
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
            name: {"theta": getattr(numeric.settings, name).theta,
                   "phi": getattr(numeric.settings, name).phi}
            for name in ChshSettings._fields},
    }
    return _json(payload)


def _check_runs(args: argparse.Namespace) -> None:
    """Trial i of a Monte-Carlo command draws from RngStream(seed + i)."""
    if args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")


def cmd_teleport(args: argparse.Namespace) -> str:
    _check_runs(args)
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
    counts, fid_sum = run_trials(table, args.seed, args.trials)
    fid_min = min(rec.fidelity for (_, _, rec), count in zip(table, counts) if count)
    counts = {outcome.value: count for (outcome, _, _), count in zip(table, counts)}
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
    from .entanglement import entanglement_entropy

    _check_runs(args)
    dim = _dim_for(args.dim, args.z, args.zprime)
    table = swap_entanglement(args.z, args.zprime, dim)
    counts, _ = run_trials(table, args.seed, args.trials)
    per_outcome = {}
    for (outcome, _, rec), count in zip(table, counts):  # a drawn row yields its record
        slot = per_outcome[outcome.value] = dict(
            count=count, parity_label=None, fidelity_min=None,
            entropy_min=None, entropy_max=None)
        if slot["count"]:  # an outcome never drawn reports nulls and no entropy
            ent = entanglement_entropy(rec.output_state, {0})
            slot.update(parity_label=_swap_partner(outcome).value, fidelity_min=rec.fidelity,
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


def _product_state(z: float, dim: int) -> LogicalState:
    return tensor(Encoding.qubit().state(1.0, 0.0), Encoding.cat(z, dim).state(1.0, 0.0))


# kind: (builder, (label enum, what the label is called) or None, parameters);
# the builder takes the label, if any, then the parameters and, if there are
# any, the cutoff that fits them all
_STATE_SPECS = {
    "spinbell": (spin_bell_state, (SpinBellLabel, "spin Bell label"), ()),
    "hes": (hes_state, (HesLabel, "hybrid state label"), ("z",)),
    "paritybell": (parity_bell_state, (ParityBellLabel, "parity Bell label"), ("z", "zp")),
    "product": (_product_state, None, ("z",)),
}


def _needs(labels, keys: tuple[str, ...]) -> str:
    """What a spec of a kind must hold past its kind, read off its row: "a
    label", "a label and z=...", "a label, z=... and zp=..." or "z=..."."""
    items = ["a label"] * bool(labels) + [f"{key}=..." for key in keys]
    return " and ".join(filter(None, (", ".join(items[:-1]), items[-1])))


def _build_named_state(spec: str, dim_override: int | None) -> LogicalState:
    parts = _canon(spec).split(":")
    kind = parts[0]
    build, labels, keys = _STATE_SPECS.get(kind, (None, None, None))
    params: dict[str, float] = {}
    if "=" in parts[-1]:
        for item in parts.pop().split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            try:
                number = float(value)
            except ValueError:
                raise ValueError(f"bad parameter {item!r} in state spec {spec!r}") from None
            if keys is not None and (key in params or key not in keys):
                problem = "given twice" if key in params else "unknown" if key else "empty"
                raise ValueError(
                    f"parameter {key!r} in state spec {spec!r} is {problem}; "
                    f"{kind} takes: {', '.join(keys) or 'none'}"
                )
            params[key] = number
    if keys is None:
        kinds = [f"{name}:{'...' if labelled else _needs(None, names)}"
                 for name, (_, labelled, names) in _STATE_SPECS.items()]
        raise ValueError(f"unknown state spec {spec!r}; use {', '.join(kinds[:-1])} or {kinds[-1]}")
    if len(parts) != (2 if labels else 1) or len(params) < len(keys):
        raise ValueError(f"{kind} spec needs {_needs(labels, keys)}, got {spec!r}")
    label = [_parse_enum(labels[0], parts[1], labels[1])] if labels else []
    zs = [params[key] for key in keys]
    if zs:
        return build(*label, *zs, _dim_for(dim_override, *zs))
    if dim_override is not None:
        raise ValueError("--dim is the Fock cutoff of a mode; a spin Bell state has none")
    return build(*label)


def cmd_entropy(args: argparse.Namespace) -> str:
    from .entanglement import schmidt_coefficients

    state = _build_named_state(args.statespec, args.dim)
    spectrum = schmidt_coefficients(state, {0})
    payload = {
        "command": "entropy",
        "statespec": args.statespec,
        "entropy_bits": spectrum.entropy(),
        "schmidt_coefficients": list(spectrum.coefficients),
    }
    return _json(payload)


# name: (help line, ((flag, add_argument keywords), ...)), in help order and
# argument order; every subcommand then takes _COMMON's --dim and --out. The
# full tree and main's one parser are both declared from this table.
_SUBCOMMANDS = {
    "kz": ("sweep the overlap k(z) and the CHSH violation", (
        ("--zmin", dict(type=float, required=True)),
        ("--zmax", dict(type=float, required=True)),
        ("--steps", dict(type=int, required=True, help="number of rows")),
    )),
    "chsh": ("compare the CHSH maximum with the closed form", (
        ("--z", dict(type=float, required=True)),
        ("--label", dict(default="phi+", help="hybrid state label (default phi+)")),
        ("--restarts", dict(type=int, default=16, help="echoed only; must be >= 1")),
        ("--seed", dict(type=int, default=DEFAULT_SEED, help="echoed only")),
    )),
    "teleport": ("Monte-Carlo teleportation runs", (
        ("kind", dict(choices=("spin", "parity"))),
        ("--alpha", dict(required=True, help="input amplitude (complex literal)")),
        ("--beta", dict(required=True)),
        ("--z", dict(type=float, required=True, help="channel cat amplitude")),
        ("--zpp", dict(type=float, default=None,
                       help="input codeword amplitude for parity teleportation (default: z)")),
        ("--channel", dict(default="phi+")),
        ("--trials", dict(type=int, default=1)),
        ("--seed", dict(type=int, default=DEFAULT_SEED)),
    )),
    "swap": ("Monte-Carlo entanglement swapping runs", (
        ("--z", dict(type=float, required=True)),
        ("--zprime", dict(type=float, required=True)),
        ("--trials", dict(type=int, default=1)),
        ("--seed", dict(type=int, default=DEFAULT_SEED)),
    )),
    "entropy": ("entropy and Schmidt spectrum of a named state", (
        ("statespec", dict(
            help="spinbell:Phi+ | hes:phi+:z=1 | paritybell:phi~+:z=1,zp=0.5 | product:z=1")),
    )),
}
_COMMON = (
    ("--dim", dict(type=int, default=None, help="override the adaptive Fock cutoff")),
    ("--out", dict(default=None, help="output path (default stdout)")),
)


def _declare(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Every argument of subcommand ``name``, declared on ``p``. The handler
    ``cmd_<name>`` is looked up here, when the parser is built, so a wrapper
    installed on that module-level name after import still sees every call."""
    for flag, keywords in _SUBCOMMANDS[name][1] + _COMMON:
        p.add_argument(flag, **keywords)
    p.set_defaults(func=globals()[f"cmd_{name}"])
    return p


def build_parser() -> argparse.ArgumentParser:
    """The ``hesim`` parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="hesim",
        description="Hybrid entangled state simulator: sweeps, CHSH optimization, "
        "teleportation and swapping Monte Carlo, entanglement reports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_line, _) in _SUBCOMMANDS.items():
        _declare(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The full tree is a large share of a short command, so a named one gets
    # the parser add_parser would make for it alone: same help, usage, errors.
    # The full tree reports leftovers, no argv, top-level -h and bad commands.
    extras = True
    if argv and argv[0] in _SUBCOMMANDS:
        parser = _declare(argparse.ArgumentParser(prog=f"hesim {argv[0]}"), argv[0])
        args, extras = parser.parse_known_args(argv[1:])
    if extras:
        args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
        _emit(text, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
