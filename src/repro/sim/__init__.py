"""Discrete-event simulation substrate: an asynchronous message-passing
system with reliable FIFO channels, virtual time and deterministic seeds.

This package implements the system model of Section 2 of the paper —
``n`` processes, every pair connected by a reliable FIFO channel, no
assumption on relative speeds or transfer delays — as a reproducible
simulator.
"""
