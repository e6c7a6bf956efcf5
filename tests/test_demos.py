"""The demos run to completion, and their stdout is pinned by sha256.

Demo 05 writes a spec file into a temporary directory and echoes its path,
so that directory is replaced by a fixed token before hashing.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = {
    "01_characteristic_polynomial":
        "eacda98521655d96729a52781b6cad27b50ac8e30da8247c5ea30d82de53c0ad",
    "02_normalize_a_surface":
        "8ee189c99c2c183415aa7c420034f6ea2b2a9f744ef221fd2b1c7045172f5782",
    "03_resonances_and_moduli":
        "5997ba55fbd9df547f1c1c829a07db37492dc4dab68076510e2f566a53fcae2b",
    "04_ode_family_and_vector_field":
        "b866a24763e1f366b5a46b0319f9b941b535f9feb8647cad25ebda780f731a3b",
    "05_cli_tour":
        "9b5e5439fb4f17c44968fd411d65f484b4af5c00009dd64a7ea333080e22f877",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = re.sub(re.escape(str(tmp_path)) + r"/\w+", "<tmpdir>", proc.stdout)
    assert hashlib.sha256(out.encode()).hexdigest() == DEMOS[name]
