import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "thorough",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("thorough")


@pytest.fixture(autouse=True)
def _fresh_newton_memo():
    """Each test starts without kept Newton solves, so a test that patches
    liouville internals sees its patch take effect."""
    from g2torsion.liouville import _newton_solve

    _newton_solve.cache_clear()
