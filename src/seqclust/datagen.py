"""Synthetic data generators used by the benchmark experiments.

Two Gaussian-mixture designs with point-mass contamination and a large
binary "viewing profile" generator for runtime studies. All generators are
deterministic functions of their seed (numpy PCG64 streams, fixed draw
order), so a seed reproduces a dataset bit for bit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .core import Dataset, _is_int, _write_json, write_csv

__all__ = [
    "Sim1Config",
    "Sim2Config",
    "ProfilesConfig",
    "GENERATORS",
    "generate",
    "sim1_sample",
    "sim2_sample",
    "profiles_sample",
    "save_dataset",
    "SIM1_MEANS",
    "SIM1_COVS",
    "SIM1_OUTLIER",
    "SIM2_RHOS",
    "SIM2_VARIANCE",
    "SIM2_OUTLIER_VALUE",
]

RNG_ID = "numpy-pcg64"

# Mixture of three correlated bivariate Gaussians, outlier atom far outside.
SIM1_MEANS = np.array([[-3.0, -3.0], [3.0, -3.0], [4.5, -4.5]])
SIM1_COVS = np.array(
    [
        [[2.0, 1.0], [1.0, 3.0]],
        [[3.0, 1.0], [1.0, 2.0]],
        [[2.0, -1.0], [-1.0, 3.0]],
    ]
)
SIM1_OUTLIER = np.array([-14.0, 14.0])

# Three phase-shifted sinusoidal mean curves with AR(1) noise.
SIM2_RHOS = (0.1, 0.5, 0.9)
SIM2_PHASES = (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)
SIM2_VARIANCE = 1.5
SIM2_OUTLIER_VALUE = 4.0


def _is_number(v) -> bool:
    """Whether v is a Python or numpy integer or float, and not a bool."""
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


# generator parameter -> its `seqclust generate` option type, what a value must be, and the
# test of a value; a value is checked as given and never converted, so a sidecar records it
Param = namedtuple("Param", "type rule test")
PARAMS = {
    "n": Param(int, "an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "d": Param(int, "an integer >= 2", lambda v: _is_int(v) and v >= 2),
    "epsilon": Param(float, "a number in [0, 1]", lambda v: _is_number(v) and 0 <= v <= 1),
    "scale": Param(float, "a positive finite number",
                   lambda v: _is_number(v) and 0 < v < np.inf),
    "seed": Param(int, "an integer >= 0 or a list of them",
                  lambda v: all(_is_int(s) and s >= 0
                                for s in (v if isinstance(v, (list, tuple)) else [v]))),
}


class _Checked:
    """Checks each field of a generator config against its PARAMS rule."""

    def __post_init__(self):
        for fld in fields(self):
            value, param = getattr(self, fld.name), PARAMS[fld.name]
            if not param.test(value):
                raise ValueError(f"{fld.name} must be {param.rule}, got {value!r}")


@dataclass(frozen=True)
class Sim1Config(_Checked):
    n: int
    epsilon: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class Sim2Config(_Checked):
    n: int
    d: int
    epsilon: float = 0.0
    scale: float = 1.0
    seed: int = 0


@dataclass(frozen=True)
class ProfilesConfig(_Checked):
    n: int = 5422
    d: int = 1440
    seed: int = 0


def sim1_sample(config: Sim1Config) -> Dataset:
    """Contaminated three-component bivariate mixture.

    Each row is independently an outlier with probability epsilon (the atom
    exactly, label -1, flag set) or a draw from a uniformly chosen component
    (label 0..2).
    """
    n = config.n
    rng = np.random.default_rng(config.seed)
    is_out = rng.random(n) < config.epsilon
    comp = rng.integers(0, 3, size=n)
    eta = rng.standard_normal((n, 2))
    chol = np.linalg.cholesky(SIM1_COVS)
    X = np.empty((n, 2))
    for c in range(3):
        sel = comp == c
        X[sel] = SIM1_MEANS[c] + eta[sel] @ chol[c].T
    X[is_out] = SIM1_OUTLIER
    labels = np.where(is_out, -1, comp)
    return Dataset(X, labels=labels, outlier_flags=is_out)


def sim2_sample(config: Sim2Config) -> Dataset:
    """Contaminated sinusoidal-mean mixture in dimension d with AR(1) noise.

    Mean curves mu_ij = 2 sin(phase_i + 2 pi j / (d - 1)) for j = 1..d; the
    noise has stationary variance 1.5 per coordinate and autocorrelation
    rho_i^|j - l| via the forward recursion (O(d) per row). Outlier rows are
    the constant vector 4. The whole row is multiplied by `scale`.
    """
    n, d = config.n, config.d
    rng = np.random.default_rng(config.seed)
    is_out = rng.random(n) < config.epsilon
    comp = rng.integers(0, 3, size=n)
    X = rng.standard_normal((n, d))  # the innovations, turned into the noise in place

    j = np.arange(1, d + 1)
    means = np.stack([2.0 * np.sin(ph + 2.0 * np.pi * j / (d - 1)) for ph in SIM2_PHASES])

    rho = np.array(SIM2_RHOS)[comp]  # each row's own component's rho
    innov = np.sqrt(SIM2_VARIANCE * (1.0 - rho * rho))
    X[:, 0] *= np.sqrt(SIM2_VARIANCE)
    for col in range(1, d):
        X[:, col] = rho * X[:, col - 1] + innov * X[:, col]
    X += means[comp]
    X[is_out] = SIM2_OUTLIER_VALUE
    X *= config.scale
    labels = np.where(is_out, -1, comp)
    return Dataset(X, labels=labels, outlier_flags=is_out)


def profiles_sample(n: int = 5422, d: int = 1440, seed: int = 0) -> Dataset:
    """Binary daily viewing profiles: each row is a union of random
    on-intervals over d minutes, values in {0, 1}. No labels."""
    ProfilesConfig(n, d, seed)  # checks the parameters
    rng = np.random.default_rng(seed)
    X = np.zeros((n, d))
    n_iv = rng.integers(1, 6, size=n)
    for i in range(n):
        starts = rng.integers(0, d, size=n_iv[i])
        lengths = rng.integers(5, 241, size=n_iv[i])
        for s, ln in zip(starts, lengths):
            X[i, s : min(d, s + ln)] = 1.0
    return Dataset(X)


# generator name -> its config class, whose fields are the generator's parameters
# and `seqclust generate` options (required when they have no default), a sampler
# of a config, a one-line help and whether its rows carry labels
Generator = namedtuple("Generator", "config sample help labels")
GENERATORS = {
    "sim1": Generator(Sim1Config, sim1_sample,
                      "contaminated 3-component bivariate mixture", True),
    "sim2": Generator(Sim2Config, sim2_sample,
                      "contaminated sinusoidal mixture with AR(1) noise", True),
    "profiles": Generator(ProfilesConfig, lambda cfg: profiles_sample(cfg.n, cfg.d, cfg.seed),
                          "binary viewing profiles for runtime studies", False),
}


def generate(generator: str, params: dict):
    """Draw a dataset from the named generator; returns (dataset, config).

    `params` are the config's keyword arguments: any of its fields, and
    every field without a default; a key it has no field for raises the
    config's TypeError. The config is what `save_dataset` records in the sidecar.
    """
    gen = GENERATORS[generator]
    config = gen.config(**params)
    return gen.sample(config), config


def save_dataset(dataset: Dataset, csv_path, generator: str, config) -> str:
    """Write the dataset CSV plus a JSON sidecar recording how it was made.

    Returns the sidecar path (same stem, .json extension).
    """
    write_csv(dataset, csv_path)
    params = asdict(config) if hasattr(config, "__dataclass_fields__") else dict(config)
    meta = {
        "generator": generator,
        "params": params,
        "rng": RNG_ID,
        "package_version": __version__,
        "n": dataset.n,
        "d": dataset.d,
        "has_labels": dataset.labels is not None,
        "has_outlier_flags": dataset.outlier_flags is not None,
    }
    sidecar = str(csv_path)
    sidecar = sidecar[: -len(".csv")] + ".json" if sidecar.endswith(".csv") else sidecar + ".json"
    _write_json(meta, sidecar)
    return sidecar
