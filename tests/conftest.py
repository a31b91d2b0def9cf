import sys

import pytest

import corrgap.core as core


@pytest.fixture
def orbit_entries(monkeypatch) -> list[int]:
    """n of every call of the orbit regime's entry check, core.orbit_classes,
    that enters the regime, recorded in every corrgap module that holds it."""
    entered = []
    check = core.orbit_classes

    def counted(f, p):
        members = check(f, p)
        if members is not None:
            entered.append(f.n)
        return members

    for name, module in list(sys.modules.items()):
        if name.startswith("corrgap") and getattr(module, "orbit_classes", None) is check:
            monkeypatch.setattr(module, "orbit_classes", counted)
    return entered
