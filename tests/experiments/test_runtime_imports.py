"""The simulator runs without networkx.

networkx is only the reference the topology's property test compares
against (``tests/net/test_topology.py``).  A fresh interpreter imports the
experiments package and runs tiny cells of the surfaces that used to call
into it — the eclipse and partition surfaces the attacks experiment's cells
read, and the ablation's average path length — and must never load it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import sys

import repro.experiments
from repro.experiments.ablation import run_ablations
from repro.experiments.attacks import run_attacks
from repro.experiments.config import ExperimentConfig

config = ExperimentConfig(
    node_count=40, runs=1, seeds=(5,), measuring_nodes=1, run_timeout_s=30.0, workers=1
)
attacks = run_attacks(
    config, protocols=("bitcoin", "bcbpt"), attacks=("eclipse",), attack_blocks=1
)
ablation = run_ablations(config).long_links
assert len(attacks.eclipse) == len(attacks.partition) == 2 and len(ablation) == 3
assert all(point.average_path_length > 1.0 for point in ablation)
print("networkx" in sys.modules)
"""


def test_cells_never_import_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
