"""Seeded output is pinned: tools/seeded_digests.py must print these lines.

A change that alters random-number use or the floats of any model on
purpose updates the pin here and says so in CHANGES.md.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "seeded_digests.py"

PINNED = [
    "mdgm-st 05ab8a4dceae9a12",
    "mdgm-rooted 44ce281c5c28303a",
    "mdgm-ao be20dc2fa74625be",
    "amrf 9168f4006003619e",
    "exact-mrf b6d3e84b8aafef79",
    "cftp ffa081d688406592",
    "graph eb959e0b21918e2e",
]


def test_seeded_digests_are_pinned():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                         timeout=120, check=True)
    assert run.stdout.splitlines() == PINNED
