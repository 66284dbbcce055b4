"""The benchmark's workloads: fixed shapes, inputs derived from the seed.

Each workload is driven through the command line's public entry point,
``bandit_switch.cli.main``.  Simulation workloads run one preset, shrunk
to a size that a repetition finishes in a few seconds, from a config
file the benchmark writes; the seed argument becomes the scenario's base
seed, so every seed draws other rewards and tie-breaks.  ``verify-solver``
runs two verification suites; their checks carry fixed internal seeds,
so its inputs are the same for every seed argument.

The reasons, and the layers each workload stresses and bypasses, are in
``map.json`` next to this file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str = ""
    runs: int = 0
    horizon: int = 0
    parallelism: int = 1
    suites: tuple = ()

    @property
    def simulates(self) -> bool:
        return bool(self.preset)

    def config(self, seed: int) -> dict:
        """The run config written for ``seed`` (simulation workloads)."""
        return {"preset": self.preset, "runs": self.runs, "horizon": self.horizon, "seed": seed}

    def write_config(self, out_dir: str, seed: int) -> str:
        path = os.path.join(out_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(self.config(seed), fh, indent=2)
        return path

    def argvs(self, config_path: str, out_dir: str) -> list:
        """The ``cli.main`` argument lists of one repetition, in order."""
        common = ["--out-dir", out_dir, "--parallelism", str(self.parallelism)]
        if self.simulates:
            return [["run", config_path, *common]]
        return [["verify", suite, "--runs", str(runs), *common] for suite, runs in self.suites]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig1-left-fanout", preset="fig1-left", runs=200, horizon=600, parallelism=2),
        Workload("verify-solver", suites=(("kinf-oracle", 16), ("ordering", 12)), parallelism=2),
    )
}
