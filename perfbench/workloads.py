"""The benchmark's workloads: one dataset shape and fit configuration each.

Every input is a function of the workload seed alone. The program under test
only ever sees the generated data and the seed passed to its fit calls. Why
each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str          # datagen function name, also the span name
    make: Callable          # (seqclust module, seed) -> Dataset
    k: int
    restarts: int
    c_gamma: float
    pam_rows: Optional[int]  # PAM runs on the first pam_rows rows; None skips PAM


def _sim1(sc, seed):
    return sc.sim1_sample(sc.Sim1Config(n=5000, epsilon=0.05, seed=seed))


def _sim2(sc, seed):
    return sc.sim2_sample(sc.Sim2Config(n=1000, d=200, epsilon=0.05, scale=10.0, seed=seed))


def _profiles(sc, seed):
    return sc.profiles_sample(n=5422, d=1440, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim1-lowd",
            generator="sim1_sample", make=_sim1,
            k=3, restarts=10, c_gamma=2.0, pam_rows=2000,
        ),
        Workload(
            name="sim2-highd",
            generator="sim2_sample", make=_sim2,
            k=3, restarts=50, c_gamma=10.0, pam_rows=1000,
        ),
        Workload(
            name="profiles-scale",
            generator="profiles_sample", make=_profiles,
            k=5, restarts=3, c_gamma=0.5, pam_rows=None,
        ),
    )
}
