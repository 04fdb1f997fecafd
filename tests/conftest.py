import pytest

from cregcert import symmetry
from cregcert.classify import build_report, certify_theorem, classify
from cregcert.designs import enumerate_designs
from cregcert.hadamard import code_of, paley_hadamard_12
from cregcert.symmetry import (
    BlockFamily,
    code_automorphism_group,
    setwise_stabilizer_perms,
)


@pytest.fixture
def element_budget(monkeypatch):
    """Sets ``symmetry.ELEMENT_BUDGET``, the cap on every group order, for
    one test."""

    def set_budget(value: int) -> None:
        monkeypatch.setattr(symmetry, "ELEMENT_BUDGET", value)

    return set_budget


@pytest.fixture
def matcher_budget(monkeypatch):
    """Sets ``symmetry.MATCHER_BUDGET``, the cap on the containment tests
    of one group or equivalence search, for one test."""

    def set_budget(value: int) -> None:
        monkeypatch.setattr(symmetry, "MATCHER_BUDGET", value)

    return set_budget


@pytest.fixture(scope="session")
def hadamard12():
    return paley_hadamard_12()


@pytest.fixture(scope="session")
def code12(hadamard12):
    return code_of(hadamard12)


@pytest.fixture(scope="session")
def code11(code12):
    return code12.puncture(1)


@pytest.fixture(scope="session")
def aut12(code12):
    return code_automorphism_group(code12)


@pytest.fixture(scope="session")
def aut11(code11):
    return code_automorphism_group(code11)


@pytest.fixture(scope="session")
def m11_stabilizer(code12):
    return setwise_stabilizer_perms(BlockFamily(code12.weight_class(6), 12))


@pytest.fixture(scope="session")
def design11():
    classes = enumerate_designs(2, 11, 5, 2)
    assert len(classes) == 1
    return classes[0]


@pytest.fixture(scope="session")
def design12():
    classes = enumerate_designs(3, 12, 6, 2)
    assert len(classes) == 1
    return classes[0]


@pytest.fixture(scope="session")
def run12():
    return classify(12, 6)


@pytest.fixture(scope="session")
def run11():
    return classify(11, 5)


@pytest.fixture(scope="session")
def theorem12():
    return certify_theorem(12, 6)


@pytest.fixture(scope="session")
def theorem11():
    return certify_theorem(11, 5)


@pytest.fixture(scope="session")
def report12(run12, theorem12):
    return build_report(run12, theorem12)


@pytest.fixture(scope="session")
def report11(run11, theorem11):
    return build_report(run11, theorem11)
