"""The benchmark's workloads: scheme, rates, initial state and sizes.

Every op runs with ``--rate-mode exact --diffusion-sign sum``.  With the
default ``difference`` sign, ``check`` on a reversible scheme exits 1 by
design, so the default flags would turn every check into a failed op.
"""

from __future__ import annotations

from dataclasses import dataclass

DERIVATION_FLAGS = ("--rate-mode", "exact", "--diffusion-sign", "sum")


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str                 # scheme file text
    rates: str                  # rates file text
    initial: tuple[tuple[str, int], ...]
    t_final: float
    dt: float
    trajectories: int
    grid_points: int
    em_noise: str               # --noise for `simulate --engine em`
    # None: the oracle uses default_box from the initial state above.
    # Otherwise it starts from oracle_initial in the explicit box
    # oracle_box, and its mean is not comparable with the simulations.
    oracle_box: tuple[int, ...] | None = None
    oracle_initial: tuple[int, ...] | None = None

    @property
    def initial_arg(self) -> str:
        return ",".join(f"{name}={value}" for name, value in self.initial)

    @property
    def oracle_matches_simulation(self) -> bool:
        return self.oracle_box is None


VERHULST = Workload(
    name="verhulst",
    scheme="phi <-> 2 phi @ lambda, gamma\nphi -> 0 @ beta\n",
    rates="lambda = 1\nbeta = 1/5\ngamma = 1/20\n",
    initial=(("phi", 10),),
    t_final=2.0, dt=1e-3, trajectories=500, grid_points=200,
    em_noise="sqrt")

LOTKA_VOLTERRA = Workload(
    name="lotka-volterra",
    scheme="x -> 2 x @ k_1\nx + y -> 2 y @ k_2\ny -> 0 @ k_3\n",
    rates="k_1 = 1\nk_2 = 1/20\nk_3 = 1\n",
    initial=(("x", 20), ("y", 20)),
    t_final=1.0, dt=2e-3, trajectories=1000, grid_points=10,
    em_noise="per-reaction")

_RING = 8

RING8 = Workload(
    name="ring8",
    scheme="".join(f"3 x{i} <-> 3 x{i % _RING + 1} @ a_{i}, b_{i}\n"
                   for i in range(1, _RING + 1)),
    rates="".join(f"a_{i} = 1/10000\nb_{i} = 1/20000\n"
                  for i in range(1, _RING + 1)),
    initial=tuple((f"x{i}", 100) for i in range(1, _RING + 1)),
    t_final=0.1, dt=1e-3, trajectories=200, grid_points=50,
    em_noise="sqrt",
    # default_box from 100 per species is a 401^8 box.  The oracle starts
    # instead from three particles on x1, in the box of every state one
    # jump away (x8, x1, x2 up to 3, the rest 0); two jumps leave it, with
    # probability about 2e-9 by t_final.
    oracle_box=(3, 3) + (0,) * (_RING - 3) + (3,),
    oracle_initial=(3,) + (0,) * (_RING - 1))

WORKLOADS = {w.name: w for w in (VERHULST, LOTKA_VOLTERRA, RING8)}
