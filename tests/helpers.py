"""Shared test fixtures: reference schemes, a random-scheme generator and
the per-state reading of enumerated jump moments."""

import random
from fractions import Fraction

VERHULST = """\
phi <-> 2 phi @ lambda, gamma
phi -> 0 @ beta
"""

LOTKA_VOLTERRA = """\
x -> 2 x @ k_1
x + y -> 2 y @ k_2
y -> 0 @ k_3
"""

PURE_DEATH = "phi -> 0 @ beta\n"

_SPECIES_POOL = ("x", "y", "z", "w")


def random_scheme_text(rng: random.Random, max_species: int = 3,
                       max_interactions: int = 4, max_stoich: int = 3,
                       reversible_chance: float = 0.4) -> str:
    """A random syntactically valid scheme over a small species pool.

    Every interaction changes the state and every rate symbol is fresh,
    so the text always parses into a valid scheme.
    """
    n = rng.randint(1, max_species)
    names = _SPECIES_POOL[:n]
    lines = []
    serial = 0
    for _ in range(rng.randint(1, max_interactions)):
        while True:
            init = [rng.randint(0, max_stoich) for _ in range(n)]
            fin = [rng.randint(0, max_stoich) for _ in range(n)]
            if init != fin:
                break
        serial += 1
        rates = [f"k_{serial}"]
        arrow = "->"
        if rng.random() < reversible_chance:
            arrow = "<->"
            serial += 1
            rates.append(f"k_{serial}")
        lines.append(f"{_side(init, names)} {arrow} {_side(fin, names)}"
                     f" @ {', '.join(rates)}")
    return "\n".join(lines) + "\n"


def _side(coeffs, names) -> str:
    parts = []
    for c, name in zip(coeffs, names):
        if c == 1:
            parts.append(name)
        elif c > 1:
            parts.append(f"{c} {name}")
    return " + ".join(parts) if parts else "0"


def per_state_moments(moments) -> list[tuple[list, list]]:
    """A JumpMoments read back per state: one (first, second) pair per
    state, a list and a nested n x n list of exact values, each a Fraction
    or the int 0 for a zero numerator, as jump_moments returned them
    before its integer form."""
    def exact(numerator):
        return Fraction(numerator, moments.denominator) if numerator else 0

    n = moments.first.shape[1]
    return [([exact(v) for v in moments.first[s]],
             [[exact(moments.second[i, j][s]) if (i, j) in moments.second
               else 0 for j in range(n)] for i in range(n)])
            for s in range(len(moments.first))]
