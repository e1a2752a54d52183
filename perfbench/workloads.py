"""The benchmark's workloads: seeded lists of synth-and-verify cases.

Every workload is a function of the seed alone. The program under test
only ever sees the generated moduli and options. `perfbench/README.md`
records why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from gf2kq.catalog import (GENERIC, TRINOMIAL, catalog_entries, catalog_lookup,
                           family_degrees)
from gf2kq.synth import equally_spaced_split, trinomial_split

VARIANTS = ("compact", "linear_depth", "log_depth", "baseline")
KARATSUBA = ("compact", "linear_depth", "log_depth")
RANDOM_TRIALS = 1000


@dataclass(frozen=True)
class Case:
    """One synth-then-verify request, as `gf2kq synth` and `gf2kq verify` take it."""

    variant: str
    family: str
    poly: str  # exponent list, the form the CLI's --poly accepts
    n: int
    form: str = "ccz_form"
    ladder: str = "prefix_ancilla"
    exhaustive: bool = False
    trials: int = RANDOM_TRIALS
    verify_seed: int = 0

    def __post_init__(self):
        # verify_multiplier(trials=0) checks nothing and still reports PASS,
        # so a request that would check nothing is refused here.
        if not self.exhaustive and self.trials < 1:
            raise ValueError(f"verify request with {self.trials} trials checks nothing")

    @property
    def key(self) -> str:
        mode = "exhaustive" if self.exhaustive else f"random{self.trials}"
        return f"{self.variant}/{self.family}/n={self.n}/{self.poly}/{self.form}/{self.ladder}/{mode}"


def _log_depth_applies(poly) -> bool:
    return trinomial_split(poly) is not None or equally_spaced_split(poly) is not None


def compile_large(seed: int, span) -> list[Case]:
    """One circuit per variant at the top of the practical range."""
    rng = random.Random(seed)
    picks = [
        ("compact", 256, GENERIC),
        ("linear_depth", 256, GENERIC),
        ("baseline", 256, GENERIC),
        ("log_depth", 255, TRINOMIAL),
    ]
    cases = []
    for variant, n, family in picks:
        with span("catalog.lookup"):
            entry = catalog_lookup(n, family)
        cases.append(Case(variant, family, entry.polynomial.exponent_list(), n,
                          verify_seed=rng.getrandbits(32)))
    return cases


# Exhaustive verification at n = 8 takes about 5.5 s per case, so its three
# cases alone filled three quarters of a pass. A run then held one pass, and
# with one sample per case compile_s spread 17-24% between seeds. Up to
# n = 7 a pass takes about 7 s and a run holds five.
EXHAUSTIVE_MAX_N = 7


def verify_exhaustive(seed: int, span) -> list[Case]:
    """Every catalog modulus with n <= 7, every variant that applies, all inputs."""
    rng = random.Random(seed)
    cases = []
    for n in range(2, EXHAUSTIVE_MAX_N + 1):
        with span("catalog.lookup"):
            entries = catalog_entries(n)
        for entry in entries:
            for variant in VARIANTS:
                if variant == "log_depth" and not _log_depth_applies(entry.polynomial):
                    continue
                cases.append(Case(variant, entry.family, entry.polynomial.exponent_list(), n,
                                  exhaustive=True, verify_seed=rng.getrandbits(32)))
    return cases


# sweep-mid draws each n as one half of a mirrored pair c - d, c + d around a
# fixed centre c. The pair's costs move in opposite directions as d changes,
# so the workload's totals and geometric means barely depend on the seed
# while the individual degrees do. Every band stays inside one power-of-two
# octave, where the CCZ bound 3^ceil(log2 n) is constant.
_BANDS = ((12, 3), (24, 6), (48, 12))

# (variant, family, form, ladder): the configurations sweep-mid covers.
# Baseline's CNOTs are its reduction stage alone, whose size follows the
# modulus weight, and generic moduli switch between three and five terms
# from one degree to the next; so baseline draws trinomials, and its CNOT
# count follows n rather than the seed.
_SWEEP_CONFIGS = (
    ("compact", "generic", "ccz_form", "prefix_ancilla"),
    ("compact", "generic", "toffoli_form", "prefix_ancilla"),
    ("linear_depth", "generic", "ccz_form", "prefix_ancilla"),
    ("baseline", "trinomial", "ccz_form", "prefix_ancilla"),
    ("baseline", "trinomial", "toffoli_form", "sequential"),
    ("log_depth", "trinomial", "ccz_form", "prefix_ancilla"),
    ("log_depth", "trinomial", "ccz_form", "sequential"),
)

# Equally spaced moduli are too sparse in [9, 128] for mirrored pairs. The
# seed picks one of two pairs in the same octave with nearly equal products.
_EQUALLY_SPACED_PAIRS = ((52, 58), (52, 60))

# The top of the range is one fixed case. It is by far the largest circuit,
# so it, not the draw, sets the workload's peak memory.
_TOP = ("compact", "generic", "ccz_form", "prefix_ancilla", 128)


def sweep_mid(seed: int, span) -> list[Case]:
    """A seeded draw of (variant, catalog modulus) cases with 9 <= n <= 60, then n = 128."""
    rng = random.Random(seed)
    picks = []  # (variant, family, form, ladder, n)
    for ci, (variant, family, form, ladder) in enumerate(_SWEEP_CONFIGS):
        with span("catalog.lookup"):
            available = set(family_degrees(family))
        for bi, (centre, half) in enumerate(_BANDS):
            # Alternate the parity of d, hence of n, so every configuration
            # sees odd and even degrees.
            parity = (ci + bi) % 2
            ds = [d for d in range(1, half + 1)
                  if d % 2 == parity and centre - d in available and centre + d in available]
            d = rng.choice(ds)
            picks += [(variant, family, form, ladder, n) for n in (centre - d, centre + d)]
    for ladder in ("prefix_ancilla", "sequential"):
        picks += [("log_depth", "equally_spaced", "ccz_form", ladder, n)
                  for n in rng.choice(_EQUALLY_SPACED_PAIRS)]
    picks.append(_TOP)

    cases = []
    for variant, family, form, ladder, n in picks:
        with span("catalog.lookup"):
            entry = catalog_lookup(n, family)
        cases.append(Case(variant, family, entry.polynomial.exponent_list(), n, form=form,
                          ladder=ladder, verify_seed=rng.getrandbits(32)))
    return cases


WORKLOADS = {
    "compile-large": compile_large,
    "verify-exhaustive": verify_exhaustive,
    "sweep-mid": sweep_mid,
}
