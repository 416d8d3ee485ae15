"""The replicated state machine: a deterministic key-value store.

The log that feeds it lives in :mod:`repro.service` (docs/SERVICE.md).
"""
