"""Suite-wide pytest configuration."""


def pytest_configure(config):
    # The confidential-asset and ZKP tests take about a quarter of the
    # suite's time; CI runs them in a job of their own (``-m slow``)
    # beside the rest (``-m "not slow"``).  A plain run collects both.
    config.addinivalue_line(
        "markers", "slow: long-running test, run in CI's own slow job"
    )
