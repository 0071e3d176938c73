"""The demos run to completion and print the same bytes on every run."""

import hashlib
import os
import subprocess
import sys

import pytest

import qborel

SRC = os.path.dirname(os.path.dirname(qborel.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

# sha256 of each demo's stdout
FROZEN = {
    "01_roots_and_weyl.py": "b06114952ddb88d3e52a24a2e0a21944deaf4a7436ae12346a62c2477669d98c",
    "02_stratification.py": "8d9e6fbc675fd62928bf5ea4fa4f0235fb941a4b8d87ed8f956099e0107935f6",
    "03_pbw_and_quotients.py": "7da04adc3c261870e91f45511d9fa1ec5ea88fc41e5ae31a8f32a80265e16452",
    "04_twisted_coideals.py": "7781d432b92a92aaee65a68b3f08a6444760e6ae9def5fa4756e1b74a8813da3",
}


def test_every_demo_is_frozen():
    assert sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")) == sorted(FROZEN)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_demo_output_frozen(name):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, name)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == FROZEN[name]
