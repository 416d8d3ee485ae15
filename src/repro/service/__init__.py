"""repro.service — a long-lived BFT replicated service on the log.

The consensus stack proves agreement one instance at a time; this
package runs the *service* the paper's modular transformation exists to
protect: clients submit commands, replicas batch them into pipelined
Vector Consensus slots, apply the decided log in order to a replicated
key-value store, checkpoint and compact the log under f+1-signed
certificates, and bring lagging or restarted replicas back with
certified state transfer. See docs/SERVICE.md.
"""
