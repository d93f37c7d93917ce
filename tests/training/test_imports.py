"""The numpy training substrate imports without the network stack."""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def test_training_import_loads_no_network_module():
    """``repro.training`` reaches ``repro.core`` for its LR ramp; the
    core package must not drag ``repro.net`` in with it."""
    script = (
        "import sys, repro.training; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.net')))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert loaded == "[]"
