"""``repro.net`` — the deployed runtime (docs/NET.md).

Runs the unchanged :mod:`repro.service` replica stack as real OS
processes over asyncio TCP: wire codec, authenticated transport,
replica host, quorum client and local-cluster orchestration.
"""
