"""The repo benchmark (see ``bench/README.md`` and ``BENCHMARK.json``).

Everything here drives :mod:`repro` through its public functions and
times it from outside; nothing under ``src/`` knows this package exists.
"""
