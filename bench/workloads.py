"""Benchmark workloads: each one is a dmftsim config derived from a shipped
config, with the workload seed added to every seed field.

``--seed n`` of the benchmark selects the workload seed ``ROTATION[w][n mod
len]``: one of the seeds whose reference scalars are recorded in
reference.json and at which every stage of the pipeline passed when they
were recorded.  ``--workload-seed s`` runs any workload seed instead, the
failing ones included."""

from __future__ import annotations

import configparser
from pathlib import Path

# config key -> value the loader uses when the key is absent
SEED_FIELDS = {
    ("model", "seed"): 0,
    ("dmft", "seed"): 0,
    ("fixedpoint", "seed"): 0,
    ("spectral", "quad_seed"): 0,
}

# name -> (shipped config, overrides); "smoke" is a tiny size for the
# benchmark's own tests and is not part of BENCHMARK.json.
WORKLOADS = {
    "phase_retrieval": ("phase_retrieval.ini", {}),
    "linear_pseudo_huber": ("linear_pseudo_huber.ini", {}),
    "large_d_spectral": ("linear_pseudo_huber.ini", {
        ("model", "n"): "10000",
        ("model", "d"): "5000",
        ("outputs", "stages"): "spectral,simulate",
    }),
    "smoke": ("phase_retrieval.ini", {
        ("model", "n"): "400",
        ("model", "d"): "40",
        ("algo", "m"): "30",
        ("spectral", "gh_nodes"): "32",
        ("spectral", "z_samples"): "2000",
        ("dmft", "K"): "3000",
        ("fixedpoint", "K"): "3000",
        ("fixedpoint", "tol"): "1e-8",
        ("compare", "w2_tol"): "1.0",
        ("compare", "cov_tol"): "1.0",
    }),
}


# Workload seeds the benchmark's --seed rotates over.  Left out, because the
# program fails there (see README.md): phase_retrieval s = 1, 14, 17
# (LinAlgError in dmft) and s = 3, 4, 9, 15 (compare above its W2 tolerance);
# linear_pseudo_huber s = 10 (compare above its W2 tolerance).
ROTATION = {
    "phase_retrieval": (0, 2, 5, 6, 7, 8, 10, 11, 12, 13, 16, 18, 19),
    "linear_pseudo_huber": tuple(s for s in range(20) if s != 10),
    "large_d_spectral": tuple(range(20)),
    "smoke": (0,),
}


def workload_seed(workload: str, seed: int) -> int:
    """The workload seed that benchmark seed ``seed`` selects."""
    rotation = ROTATION[workload]
    return rotation[seed % len(rotation)]


def write_config(root: Path, workload: str, seed: int, out_dir: Path,
                 dest: Path) -> None:
    """Write the config of ``workload`` at workload seed ``seed`` to
    ``dest``; with seed 0 it loads to exactly the shipped config, apart from
    the output directory."""
    shipped, overrides = WORKLOADS[workload]
    cp = configparser.ConfigParser()
    if not cp.read(root / "configs" / shipped):
        raise FileNotFoundError(root / "configs" / shipped)
    for (section, key), value in overrides.items():
        cp.set(section, key, value)
    for (section, key), default in SEED_FIELDS.items():
        if not cp.has_section(section):
            cp.add_section(section)
        base = cp.getint(section, key) if cp.has_option(section, key) else default
        cp.set(section, key, str(base + seed))
    cp.set("outputs", "directory", str(out_dir))
    with open(dest, "w") as fh:
        cp.write(fh)
