"""Structural guards on the hot paths, counted by monkeypatching rather than timed."""

import subprocess
import sys

import numpy as np

from qdilemma import tomography
from qdilemma.game import evolve, parse_profile

from helpers import subprocess_env


def test_one_bit_generator_per_estimate(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    tomography.estimate_expectations(evolve(parse_profile("HIX")), 8192, 7)
    assert len(built) == 1


def test_no_np_kron_on_import_or_evolve():
    # a fresh interpreter, so that the module-level tables are built under the count
    script = (
        "import numpy as np\n"
        "calls = []\n"
        "kron = np.kron\n"
        "np.kron = lambda *a, **k: calls.append(1) or kron(*a, **k)\n"
        "from qdilemma import game, tomography\n"
        "game.evolve(game.parse_profile('HIX'))\n"
        "print(len(calls))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), check=True)
    assert proc.stdout == "0\n"
