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
def _fresh_memos():
    """Each test starts without kept Newton solves and without kept
    Theorem-1 hypotheses, so a test that patches liouville, coframe or
    bundle internals sees its patch take effect."""
    from g2torsion.bundle import _kept_panel
    from g2torsion.liouville import _newton_solve

    _newton_solve.cache_clear()
    _kept_panel.cache_clear()
