"""Observability: per-module instrumentation, run metrics, JSONL export.

The paper's contribution is *modularity* — five cooperating modules per
process (signature, muteness FD, non-muteness FD, certification,
protocol). This package makes that structure observable: every module
reports counters, gauges and histograms into a per-run
:class:`MetricsRegistry`, attributed to the module that produced them,
and a run can be exported as a versioned JSONL artifact
(:mod:`repro.observability.export`) that pairs the metrics with the
event trace.

Everything recorded here is derived from virtual time and deterministic
event order, so a fixed-seed run exports **byte-identical** artifacts.
The only exception is wall-clock :class:`~repro.observability.span.Span`
profiles, which live in a separate section and are never exported.

See ``docs/OBSERVABILITY.md`` for the metric catalogue and the JSONL
schema.
"""
