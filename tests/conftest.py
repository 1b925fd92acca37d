import pytest

from orlicap.strongtype import SHAPES, TestFunctionSpec


@pytest.fixture(scope="session")
def default_suite():
    """Every shape at its default parameters, random_smooth at seed 7: the
    suite that acceptance criteria 3 and 4 and the strong-type tests sweep."""
    return [TestFunctionSpec(shape, seed=7) for shape in SHAPES]
