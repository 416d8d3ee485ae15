#!/usr/bin/env python
"""A long-lived BFT replicated key-value service, end to end.

Four replicas run the service runtime from ``repro.service``: open-loop
clients submit commands, replicas pack them into batches and pipeline
the Vector Consensus slots, certify a checkpoint every two applied slots
(f+1 matching signed digests), and compact their logs under it. Midway,
replica 2 is taken down and restarted with its state wiped — it rejoins
through certified state transfer and commits new slots.

Run:  python examples/replicated_kv_store.py
"""

from repro.service import ServiceConfig, build_service_system, service_digest

config = ServiceConfig(
    n_replicas=4,
    n_clients=2,
    requests_per_client=25,
    rate=0.5,              # open-loop Poisson arrivals per client
    batch_size=4,
    window=2,              # pipelining: two slots in flight
    checkpoint_interval=2,
    seed=99,
)
system = build_service_system(config, recoveries=((2, 15.0, 30.0),))
result = system.run(max_time=2_500.0)
print(f"run: {result.reason} at t={result.end_time:.1f}, "
      f"{system.world.network.messages_sent} messages")

# -- clients -> batches -> commits ------------------------------------------
total = config.n_clients * config.requests_per_client
print(f"\nclients completed {system.completed_requests()}/{total} requests; "
      f"the service committed {system.committed_commands()} commands.")
assert system.all_clients_done(), "a client is still waiting!"

# -- checkpoints -------------------------------------------------------------
assert system.checkpoints_agree(), "checkpoint digests diverged!"
print(f"checkpoints: {system.certified_checkpoints()} counts certified "
      f"(f+1 matching signed digests each), logs compacted under them.")
digests = {
    service_digest(system.replicas[pid].store, system.replicas[pid].executed)
    for pid in system.correct_pids
}
assert len(digests) == 1, "stores diverged!"
print(f"final state digest {next(iter(digests))[:16]}..., "
      f"identical on every correct replica.")

# -- recovery ----------------------------------------------------------------
replica = system.replicas[2]
assert replica.state_transfers_completed, "replica 2 never caught up!"
when, installed, frontier = replica.state_transfers_completed[-1]
print(f"\nreplica 2 went down at t=15, restarted empty at t=30,")
print(f"  installed a certified snapshot of {installed} slots at t={when:.1f}")
print(f"  and kept committing: applied frontier now {replica.next_apply} "
      f"(> {installed}, so it rejoined the pipeline).")
assert replica.next_apply > installed
print("\nThe restarted replica recovered by state transfer and rejoined.")
