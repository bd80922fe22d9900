"""Seeded generators of the benchmark's ``hesim`` command lines.

Each workload is an endless stream of ops. Op ``i`` of a stream depends only
on the workload name and the seed, so the same seed replays the same argv
list, and a run that completes more ops in its time budget simply reads
further into the same stream.

Ops come in shuffled blocks with a fixed mix of command kinds, and z values
spread evenly over the workload's range on every prefix of the stream, so
that two seeds give runs of the same shape and their timings can be
compared. Within one stream every z value and every ``--seed`` is new: a
cache that survives from one command to the next inside the benchmark's
worker cannot get warm hits that a fresh ``hesim`` invocation would not get.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

HES_LABELS = ("psi+", "psi-", "phi+", "phi-")
PARITY_BELL_LABELS = ("phi~+", "phi~-", "psi~+", "psi~-")

# Steps of the two low-discrepancy sequences z values are drawn from: the
# golden ratio's fractional part, whose every prefix is spread most evenly,
# and 1/p**2 for the plastic number p, whose step shares no short period
# with it or with the block lengths below.
_Z_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, 1.0 / 1.324717957244746**2)

# --seed of op i is base + i * SEED_STRIDE; a stride above every op's trial
# count keeps the per-trial seeds (seed + trial) of different ops disjoint.
SEED_STRIDE = 1000

PROTOCOL_TRIALS = 100
SWEEP_TRIALS = 2
KZ_STEPS = 4
CHSH_SMALL_RESTARTS = 4


@dataclass(frozen=True)
class Op:
    """One ``hesim`` command: its argv (without ``--out``) and its work."""

    command: str
    argv: tuple[str, ...]
    work: int
    trials: int = 0


class _Draws:
    """Seeded draws for one stream.

    z values follow additive-recurrence sequences with seeded offsets: every
    prefix of a stream covers the z range evenly, so runs that complete
    different numbers of ops, or use different seeds, see the same spread
    of z. No z is handed out twice.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.rng = random.Random(f"perfbench/{workload}/{seed}")
        self.seed_base = self.rng.randrange(1_000_000)
        self._offsets = (self.rng.random(), self.rng.random())
        self._index = 0
        self._seen: set[str] = set()

    def zs(self, lo: float, hi: float) -> tuple[str, str]:
        """The next (z, partner z) pair, both scaled to [lo, hi]."""
        while True:
            self._index += 1
            pair = tuple(
                f"{lo + (hi - lo) * ((off + self._index * step) % 1.0):.6f}"
                for off, step in zip(self._offsets, _Z_STEPS)
            )
            if pair[0] != pair[1] and not self._seen.intersection(pair):
                self._seen.update(pair)
                return pair

    def permuted(self, items) -> list:
        out = list(items)
        self.rng.shuffle(out)
        return out

    def amplitudes(self, complex_valued: bool) -> tuple[str, str]:
        """An unnormalised (alpha, beta) pair; the CLI normalises it."""
        mag = self.rng.uniform(0.1, 0.9 * math.pi / 2.0)
        a, b = math.cos(mag), math.sin(mag)
        if complex_valued:
            a *= cmath.exp(1j * self.rng.uniform(0.0, 2.0 * math.pi))
            b *= cmath.exp(1j * self.rng.uniform(0.0, 2.0 * math.pi))
            return _complex(a), _complex(b)
        return f"{a:.6f}", f"{b:.6f}"


def _complex(c: complex) -> str:
    return f"{c.real:.6f}{c.imag:+.6f}j"


def _op_seed(draws: _Draws, index: int) -> str:
    return str(draws.seed_base + index * SEED_STRIDE)


def _protocol_mc(seed: int) -> Iterator[Op]:
    """teleport spin / teleport parity / swap at z, z'', z' in [0.5, 1.5]."""
    d = _Draws("protocol_mc", seed)
    index = itertools.count()
    while True:
        kinds = d.permuted(["spin", "spin", "parity", "parity", "swap", "swap"])
        channels = iter(d.permuted(HES_LABELS))
        complex_flags = iter(d.permuted([False, True, False, True]))
        for kind in kinds:
            i = next(index)
            z, partner = d.zs(0.5, 1.5)
            trials = str(PROTOCOL_TRIALS)
            if kind == "swap":
                argv = ("swap", f"--z={z}", f"--zprime={partner}",
                        f"--trials={trials}", f"--seed={_op_seed(d, i)}")
                yield Op("swap", argv, PROTOCOL_TRIALS, PROTOCOL_TRIALS)
                continue
            alpha, beta = d.amplitudes(next(complex_flags))
            argv = ("teleport", kind, f"--alpha={alpha}", f"--beta={beta}",
                    f"--z={z}", f"--channel={next(channels)}",
                    f"--trials={trials}", f"--seed={_op_seed(d, i)}")
            if kind == "parity":
                argv += (f"--zpp={partner}",)
            yield Op("teleport", argv, PROTOCOL_TRIALS, PROTOCOL_TRIALS)


def _chsh_scan(seed: int) -> Iterator[Op]:
    """chsh over z in [0, 3], all four labels, default and fewer restarts.

    Three of every four ops use the default restart count, so the median
    command time sits inside that class rather than on a class boundary.
    """
    d = _Draws("chsh_scan", seed)
    index = itertools.count()
    while True:
        restarts = d.permuted([None, None, None, CHSH_SMALL_RESTARTS])
        labels = d.permuted(HES_LABELS)
        for r, label in zip(restarts, labels):
            i = next(index)
            z, _ = d.zs(0.0, 3.0)
            argv = ("chsh", f"--z={z}", f"--label={label}", f"--seed={_op_seed(d, i)}")
            if r is not None:
                argv += (f"--restarts={r}",)
            yield Op("chsh", argv, 1)


def _cutoff_sweep(seed: int) -> Iterator[Op]:
    """kz, entropy, few-trial swap and teleport spin at fresh z in [3, 9]."""
    d = _Draws("cutoff_sweep", seed)
    index = itertools.count()
    while True:
        kinds = d.permuted(["kz", "hes", "paritybell", "swap", "teleport"])
        for kind in kinds:
            i = next(index)
            z, partner = d.zs(3.0, 9.0)
            if kind == "kz":
                zmin, zmax = sorted((z, partner), key=float)
                argv = ("kz", f"--zmin={zmin}", f"--zmax={zmax}", f"--steps={KZ_STEPS}")
                yield Op("kz", argv, KZ_STEPS)
            elif kind == "hes":
                label = d.rng.choice(HES_LABELS)
                yield Op("entropy", ("entropy", f"hes:{label}:z={z}"), 1)
            elif kind == "paritybell":
                label = d.rng.choice(PARITY_BELL_LABELS)
                spec = f"paritybell:{label}:z={z},zp={partner}"
                yield Op("entropy", ("entropy", spec), 1)
            elif kind == "swap":
                argv = ("swap", f"--z={z}", f"--zprime={partner}",
                        f"--trials={SWEEP_TRIALS}", f"--seed={_op_seed(d, i)}")
                yield Op("swap", argv, SWEEP_TRIALS, SWEEP_TRIALS)
            else:
                alpha, beta = d.amplitudes(d.rng.random() < 0.5)
                argv = ("teleport", "spin", f"--alpha={alpha}", f"--beta={beta}",
                        f"--z={z}", f"--channel={d.rng.choice(HES_LABELS)}",
                        f"--trials={SWEEP_TRIALS}", f"--seed={_op_seed(d, i)}")
                yield Op("teleport", argv, SWEEP_TRIALS, SWEEP_TRIALS)


WORKLOADS = {
    "protocol_mc": _protocol_mc,
    "chsh_scan": _chsh_scan,
    "cutoff_sweep": _cutoff_sweep,
}


def stream(workload: str, seed: int) -> Iterator[Op]:
    """The endless op stream of one workload at one seed."""
    return WORKLOADS[workload](seed)


def ops(workload: str, seed: int, count: int) -> list[Op]:
    """The first ``count`` ops of a stream."""
    return list(itertools.islice(stream(workload, seed), count))
