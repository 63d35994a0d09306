"""The paper's evaluation (Section 6): ``python -m repro experiments``.

- :mod:`repro.bench.experiments` — one entry point per figure
  (``run_fig4`` ... ``run_fig8``, each timing engines from the registry,
  :func:`repro.api.create_engine`), the representation-size study
  (``run_sizes``) and the optimiser study, each rendering its table;
- :mod:`repro.bench.reporting` — CSV/JSON export of the measurements
  (``python -m repro experiments --output DIR``).

Throughput and per-layer latency of the engine under load are measured
by ``perfbench/``, not here.
"""
