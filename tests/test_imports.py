"""What importing the package costs. It needs numpy alone: with scipy made
unimportable, every module imports and the noisy-matching ``prep_shard``, the
one place that solves an assignment, still runs. And no module loads ssl."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CODE = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import importlib, pkgutil
import numpy as np
import cosmo
for module in pkgutil.iter_modules(cosmo.__path__):
    importlib.import_module("cosmo." + module.name)
from cosmo.docs import Document, MediaItem, MediaRef, TextSpan

class Captioner:
    def generate(self, media):
        return "a generated caption"

media = [MediaItem("image", np.zeros((1, 2, 4))) for _ in range(2)]
doc = Document(segments=[MediaRef(0), TextSpan("a cat"), MediaRef(1), TextSpan("a dog")],
               media=media, doc_id="d0")
out, report = cosmo.interleave.prep_shard(
    [doc], {"d0": [[0.1, 0.15], [0.9, 0.1]]}, Captioner(), np.random.default_rng(0))
print(report["d0"]["assignment"], [s.text for s in out[0].text_spans()])
"""


def _run(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter that imports
    ``cosmo`` from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_cosmo_runs_without_scipy():
    out = _run(CODE)
    # image 0's best text scores below the threshold, so it is re-captioned
    assert out.strip() == "[[0, 1], [1, 0]] ['a cat', 'a generated caption']"


def test_importing_cosmo_loads_no_ssl():
    # urllib.request loads ssl (about 5 MB of RSS), which no module needs
    out = _run("""
import importlib, pkgutil, sys
import cosmo
for module in pkgutil.iter_modules(cosmo.__path__):
    importlib.import_module("cosmo." + module.name)
print(sorted({"ssl", "urllib.request"} & set(sys.modules)))
""")
    assert out.strip() == "[]"
