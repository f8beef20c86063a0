"""Seeded inputs of the three workloads, as argv lists for ``modvalsim.sweep_cli.main``.

The program sees only these argv lists; the seed stays in the benchmark.  A
pass is one list; every pass of a run replays the same list in a fresh
process.

* ``figures``: the nine ``figure`` verbs on their pinned grids (16 panel files,
  8,456 rows).  The seed does not change it.  An operation is one CSV row.
* ``check``: ``check`` calls of ``CHECK_CONFIGS`` random configurations each,
  every call with its own seed drawn from the benchmark seed.  An operation is
  one configuration.
* ``point_queries``: independent single-point ``sweep`` calls with fresh
  pointer parameters, selection angles, quantity and ``dim``.  Every
  (family, quantity, dim) combination comes equally often, in seeded order,
  so that the seed changes the inputs but not the mix of work.  An operation
  is one query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("figures", "check", "point_queries")

FIGURE_IDS = tuple(f"fig{i}" for i in range(1, 10))

#: Rows the nine figure verbs write in one pass.
FIGURE_ROWS = 8456

CHECK_CONFIGS = 20
CHECK_CALLS_PER_PASS = 20


DIMS = (64, 128, 256, 512)
FAMILIES = ("coherent", "squeezed", "cat")
QUANTITIES = ("p_n", "mandel_q", "snr", "quad_mean", "quad_second")

#: Queries of each (family, quantity, dim) combination in one pass.
QUERIES_PER_COMBINATION = 16
QUERIES_PER_PASS = QUERIES_PER_COMBINATION * len(FAMILIES) * len(QUANTITIES) * len(DIMS)


def figure_calls(out_dir: Path) -> list[list[str]]:
    """One pass of the figures workload: each figure verb writes into ``out_dir``."""
    return [["figure", fig, "--out", str(out_dir / f"{fig}.csv")] for fig in FIGURE_IDS]


def check_calls(seed: int) -> list[list[str]]:
    """One pass of the check workload: ``CHECK_CALLS_PER_PASS`` calls, each with its own seed."""
    calls = []
    for call in range(CHECK_CALLS_PER_PASS):
        call_seed = int(np.random.SeedSequence([seed, call]).generate_state(1)[0])
        calls.append(["check", "--n-configs", str(CHECK_CONFIGS), "--seed", str(call_seed)])
    return calls


@dataclass(frozen=True)
class PointQuery:
    """One single-point ``sweep`` call: family, quantity and every parameter it sets."""

    family: str
    quantity: str
    params: tuple  # ((flag name, value), ...) in argv order

    def param(self, name: str):
        return dict(self.params)[name]

    def argv(self, out: Path) -> list[str]:
        argv = ["sweep", "--pointer", self.family, "--quantity", self.quantity]
        for name, value in self.params:
            # One token per flag, so a value such as -1e-05 is not read as an option.
            text = value if isinstance(value, str) else repr(value)
            argv.append(f"--{name.replace('_', '-')}={text}")
        return argv + ["--out", str(out)]


def _query(rng: np.random.Generator, family: str, quantity: str, dim: int) -> PointQuery:
    # Every draw stays inside the domain the constructors accept at the given
    # dim (truncation leak below 1e-10, post-selection overlap cos(theta1) >=
    # 0.17), so any refusal the program makes is a failure, not a bad input.
    params: list = []
    if family == "coherent":
        params += [("gamma", rng.uniform(0.2, 4.0)), ("phi", rng.uniform(0.0, 2 * math.pi))]
    else:
        mag, arg = rng.uniform(0.3, 2.0 if family == "squeezed" else 4.0), rng.uniform(0.0, 2 * math.pi)
        params += [("alpha_re", mag * math.cos(arg)), ("alpha_im", mag * math.sin(arg))]
        if family == "squeezed":
            # Squeezed tails decay only geometrically: r <= 1 needs dim >= 128.
            params += [("r", rng.uniform(0.05, 1.0 if dim >= 128 else 0.5)),
                       ("theta_sq", rng.uniform(0.0, 2 * math.pi))]
        else:
            params += [("phi_cat", rng.uniform(0.0, 2 * math.pi))]
    params += [("theta1", rng.uniform(0.0, 1.4)), ("phi1", rng.uniform(0.0, 2 * math.pi)),
               ("g", rng.uniform(0.0, math.pi)), ("m", int(rng.integers(0, 11))), ("dim", dim)]
    if quantity == "p_n":
        params.append(("n", int(rng.integers(0, 16))))
    if quantity in ("snr", "quad_mean", "quad_second"):
        params.append(("quad_theta", rng.uniform(0.0, math.pi)))
    if quantity == "snr":
        params += [("n_total", int(rng.integers(1, 101))),
                   ("snr_mode", ("final", "shift")[int(rng.integers(2))]),
                   ("ps", ("exact", "paper")[int(rng.integers(2))])]
    return PointQuery(family=family, quantity=quantity, params=tuple(params))


def point_queries(seed: int) -> list[PointQuery]:
    """One pass of the point_queries workload; no query repeats within it."""
    rng = np.random.default_rng(seed)
    combinations = [(family, quantity, dim) for family in FAMILIES for quantity in QUANTITIES
                    for dim in DIMS] * QUERIES_PER_COMBINATION
    order = rng.permutation(len(combinations))
    return [_query(rng, *combinations[i]) for i in order]
