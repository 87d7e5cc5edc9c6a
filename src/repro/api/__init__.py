"""``repro.api`` — the session/futures client surface.

The canonical way to drive any system in this repo:

- :class:`~repro.api.network.Network` wraps a deployment with
  lifecycle (context manager, storage teardown) and constructs
  workflows and sessions;
- :class:`~repro.api.session.Session` exposes typed verbs
  (``put``/``get``/``invoke``) that build, seal, and submit
  transactions internally, plus replica inspection (``read``/``sees``);
- :class:`~repro.api.futures.TxHandle` futures resolve by advancing
  the discrete-event simulator until the reply quorum lands, reporting
  a structured :class:`~repro.api.futures.TxResult`
  (:class:`~repro.api.futures.TxStatus` COMMITTED/ABORTED/TIMED_OUT);
  :func:`~repro.api.futures.wait_all` resolves batches in one pass;
- :class:`~repro.api.driver.SystemDriver` is the protocol every
  benchmarked system implements so one generic ``run_point(spec)``
  measures them all (implementations in :mod:`repro.bench.drivers`).

See ``docs/api.md`` for the full tour and the migration table from the
raw ``Client``/``Deployment`` plumbing.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "driver": ("SystemDriver",),
        "futures": ("TxHandle", "TxResult", "TxStatus", "wait_all"),
        "network": ("Network",),
        "session": ("Session",),
    },
)
