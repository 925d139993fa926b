"""The benchmark's tracer patches program functions by name, so deleting or
renaming a traced function fails here as well as in a traced benchmark run."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402

TARGETS = [(tracing.autodiff, name) for name in tracing.PRIMITIVES + ("backward",)]
TARGETS += [(owner, attr) for owner, attr, _ in tracing.SPANNED]


@pytest.mark.parametrize("owner,attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_every_traced_name_is_defined_where_it_is_patched(owner, attr):
    """The tracer reads ``owner.__dict__[attr]``: a function deleted from its
    module, or a method a class only inherits, would make every traced
    benchmark run die with a ``KeyError``."""
    assert callable(owner.__dict__.get(attr)), f"{owner.__name__} defines no {attr}"


def test_tracer_installs_and_uninstalls():
    originals = [owner.__dict__[attr] for owner, attr in TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), fn in zip(TARGETS, originals):
            assert owner.__dict__[attr] is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr), fn in zip(TARGETS, originals):
        assert owner.__dict__[attr] is fn, attr
