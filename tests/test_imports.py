"""Importing the package's modules leaves scipy unloaded: only
``interleave.match`` needs it, and imports it when called. Training and
decoding never call it, so they run without scipy's resident memory."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_importing_cosmo_does_not_load_scipy():
    code = ("import sys\n"
            "import cosmo.model, cosmo.training, cosmo.synthetic, cosmo.select, "
            "cosmo.interlink, cosmo.interleave\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
