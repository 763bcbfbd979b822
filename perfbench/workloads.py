"""The benchmark's workloads: seeded `ietlab` command lines and their verdicts.

Every workload is a closed loop: one client in one process runs one CLI
command at a time.  A seed selects one of ``SEEDS_OF_RECORD`` input sets;
each input set has a reference stdout digest and exact layer counts in
``reference.json``, so every op of every run is checked byte for byte.
The program receives only the exact literals built here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

SEEDS_OF_RECORD = 16
SELF_TEST_LENGTH = 2000

SILVER = "(-1+1*sqrt(2))/1"
GOLDEN = "(-1+1*sqrt(5))/2"


@dataclass(frozen=True)
class Workload:
    name: str
    length: int
    verdicts: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bounds-3iet",
            200_000,
            ("upper_ok", "power_ok", "passed"),
        ),
        Workload(
            "abmp-3iet",
            200_000,
            (
                "roundtrip_ok", "b01_complexity_ok", "b01_balance_ok",
                "b10_complexity_ok", "b10_balance_ok", "rotation_match", "passed",
            ),
        ),
        Workload(
            "theorem3-characteristic",
            300_000,
            ("estimate_leq_sup", "passed"),
        ),
    )
}


def _ratio(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def cli_args(name: str, seed: int, length: int | None = None) -> list[str]:
    """The exact `ietlab` argument list of one workload for one seed."""
    workload = WORKLOADS[name]
    n = str(length or workload.length)
    rng = random.Random(f"{name}/{seed % SEEDS_OF_RECORD}")
    if name == "bounds-3iet":
        # max(eps, 1 - eps) = 2 - sqrt(2) ~ 0.5858 < ell < 1 and 0 <= x0 < ell
        ell = Fraction(rng.randint(591, 999), 1000)
        x0 = Fraction(rng.randint(0, 589), 1000)
        return ["verify", "bounds", "--eps", SILVER, "--ell", _ratio(ell),
                "--x0", _ratio(x0), "-N", n]
    if name == "abmp-3iet":
        # ell in [0.80, 0.82] (inside max(eps, 1 - eps) ~ 0.618 < ell < 1) keeps
        # the B frequency (1 - ell)/ell, and with it the projection length and
        # op cost, within a few percent from seed to seed.
        ell = Fraction(rng.randint(800, 820), 1000)
        x0 = Fraction(rng.randint(0, 619), 1000)
        return ["verify", "abmp", "--eps", GOLDEN, "--ell", _ratio(ell),
                "--x0", _ratio(x0), "-N", n, "--nmax", "12"]
    quotients = ",".join(str(rng.randint(1, 4)) for _ in range(40))
    return ["verify", "theorem3", "--cf", f"0,{quotients}", "-N", n]
