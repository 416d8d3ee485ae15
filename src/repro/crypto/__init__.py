"""Simulated unforgeable signatures (the paper's private/public key pairs).

See DESIGN.md for the substitution note: RSA in the paper becomes keyed
MACs behind a capability API here; unforgeability and sender
authentication — the only properties the methodology relies on — are
preserved inside the simulation.
"""
