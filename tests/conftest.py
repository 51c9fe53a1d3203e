import pytest
from hypothesis import settings

import shortsight as ss
from shortsight import mdp as mdp_module
from shortsight import half_behavior  # noqa: F401  (imported by test modules)

settings.register_profile("exact", deadline=None, derandomize=True)
settings.load_profile("exact")


@pytest.fixture
def prefix3():
    return ss.build_prefix(3)


@pytest.fixture
def greedy310():
    return ss.build_greedy(3, 10)


@pytest.fixture
def aliasing3():
    return ss.build_aliasing(3)


@pytest.fixture
def mdp_checks(monkeypatch):
    """Each MDP that the full check behind `validate_mdp` runs on, in order."""
    checked = []
    inner = mdp_module._mdp_problems

    def wrapper(mdp):
        checked.append(mdp)
        return inner(mdp)

    monkeypatch.setattr(mdp_module, "_mdp_problems", wrapper)
    return checked
