import pytest
from hypothesis import HealthCheck, settings

from orbitsym import SpecialLinearModel
from orbitsym.cli import _resolve_chamber

settings.register_profile(
    "numeric",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


@pytest.fixture(scope="session")
def model2():
    return SpecialLinearModel(2)


@pytest.fixture(scope="session")
def model3():
    return SpecialLinearModel(3)


@pytest.fixture(scope="session")
def model4():
    return SpecialLinearModel(4)


@pytest.fixture(scope="session")
def chamber2(model2):
    return model2.chamber_element([1, -1])


@pytest.fixture(scope="session")
def chamber3(model3):
    return model3.chamber_element([1, 0, -1])


@pytest.fixture(scope="session")
def wall3(model3):
    return model3.chamber_element([1, 1, -2])


@pytest.fixture(scope="session")
def chamber4(model4):
    return model4.chamber_element([1.5, 0.5, -0.5, -1.5])


@pytest.fixture(scope="session")
def wall4(model4):
    return model4.chamber_element([1, 1, -1, -1])


@pytest.fixture
def fresh_chambers():
    """An empty ``cli`` chamber memo, emptied again afterwards, for tests
    that count the chambers ``main`` builds."""
    _resolve_chamber.cache_clear()
    yield
    _resolve_chamber.cache_clear()
