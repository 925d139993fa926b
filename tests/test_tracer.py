"""The benchmark's tracer patches program functions by name, so deleting or
renaming a traced function fails here as well as in a traced benchmark run."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402


def test_tracer_installs_and_uninstalls():
    targets = [(tracing.autodiff, name)
               for name in tracing.PRIMITIVES + ("backward",)]
    targets += [(owner, attr) for owner, attr, _ in tracing.SPANNED]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), fn in zip(targets, originals):
            assert owner.__dict__[attr] is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr), fn in zip(targets, originals):
        assert owner.__dict__[attr] is fn, attr
