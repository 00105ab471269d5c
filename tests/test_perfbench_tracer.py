"""The benchmark's traced mode still finds every ``src/`` name it wraps.

``perfbench/tracer.py`` patches layer entry points and kernel ops by name
(module globals, class attributes, the ``repro.bdd._array`` and
``repro.bdd.snapshot`` shims).  A rename in ``src/`` that it does not
follow breaks ``perfbench/run.py --trace 1`` and nothing else, so this
test installs the tracer, checks that it wrapped something, and checks
that uninstalling puts every original back.
"""

import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_install_wraps_and_uninstall_restores(tracer_module):
    from repro.bdd import BddManager

    original_and = BddManager.and_
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        assert BddManager.and_ is not original_and
        for owner, attribute, original in patches:
            assert getattr(owner, attribute) is not original
    finally:
        tracer.uninstall()
    assert tracer._patches == []
    assert BddManager.and_ is original_and
    for owner, attribute, original in patches:
        assert getattr(owner, attribute) is original
