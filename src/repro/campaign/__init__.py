"""Scenario-matrix fault-injection campaigns (the correctness backbone).

The paper's modularity claim — every failure class of the Section-2
taxonomy is caught by exactly one of the five Figure-1 modules — is only
credible when exercised *systematically*: across protocols, system
sizes, fault assignments (including collusion), delay models and seeds.
This package sweeps that scenario space and turns every run into a
deterministic, replayable record:

* :mod:`repro.campaign.scenario` — one scenario = one fully-specified
  world; its config round-trips through JSON and hashes to a stable id;
* :mod:`repro.campaign.matrix` — deterministic enumeration of the
  scenario space from a :class:`~repro.campaign.matrix.CampaignSpec`;
* :mod:`repro.campaign.oracles` — the oracle catalogue: consensus
  invariants plus the detection-attribution oracle;
* :mod:`repro.campaign.runner` — run scenarios, evaluate oracles;
* :mod:`repro.campaign.artifact` — the versioned JSONL campaign
  artifact (``repro.campaign/v1``, byte-identical for a fixed master
  seed);
* :mod:`repro.campaign.shrink` — scenario neighbours for the one
  delta-debugging loop (:mod:`repro.faults.shrink`): minimise a failing
  scenario to a small counterexample.

``python -m repro campaign run|list|replay|shrink`` is the CLI surface;
``docs/TESTING.md`` documents the workflow.
"""
