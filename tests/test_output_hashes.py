"""Pins the bytes of the files seqclust writes for valid input.

tests/data/output_hashes.json holds the sha256 of each output case and the
numpy version and platform they were taken on: a generator draws with numpy's
PCG64 streams and libm's sin, sqrt and pow, so the bytes hold for one build.
A change that moves bytes on purpose regenerates the file with

    PYTHONPATH=src python tests/test_output_hashes.py

and says which cases moved.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from seqclust.datagen import generate, save_dataset

HASHES = Path(__file__).parent / "data" / "output_hashes.json"

# name -> (generator, params): two small configs per generator
DATASETS = {
    "sim1-contaminated": ("sim1", {"n": 40, "epsilon": 0.1, "seed": 3}),
    "sim1-seed-list": ("sim1", {"n": 7, "seed": [11, 0, 3]}),
    "sim2-scaled": ("sim2", {"n": 30, "d": 5, "epsilon": 0.1, "scale": 10.0, "seed": 4}),
    "sim2-d2": ("sim2", {"n": 12, "d": 2, "seed": 0}),
    "profiles-small": ("profiles", {"n": 6, "d": 50, "seed": 1}),
    "profiles-seed-list": ("profiles", {"n": 3, "d": 300, "seed": [2, 1]}),
}


def _build() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _dataset_hashes(name, outdir) -> dict:
    """sha256 of the save_dataset CSV and sidecar of dataset case `name`."""
    generator, params = DATASETS[name]
    ds, config = generate(generator, params)
    csv_path = Path(outdir) / f"{name}.csv"
    sidecar = save_dataset(ds, csv_path, generator, config)
    return {"csv": _sha256(csv_path), "sidecar": _sha256(sidecar)}


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_save_dataset_writes_the_recorded_bytes(name, tmp_path):
    recorded = json.loads(HASHES.read_text())
    assert recorded["datasets"].keys() == DATASETS.keys()
    got = _dataset_hashes(name, tmp_path)
    assert got == recorded["datasets"][name], (
        f"{name}: save_dataset bytes differ from the hashes recorded on "
        f"{recorded['build']}; this build is {_build()}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"build": _build(),
               "datasets": {name: _dataset_hashes(name, tmp) for name in DATASETS}}
    HASHES.parent.mkdir(exist_ok=True)
    HASHES.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {HASHES}", file=sys.stderr)
