"""One campaign engine, three fidelities: unified fault plans from pure
simulation to real TCP clusters (docs/FAULTS.md), with the adversary
zoo's families as ordinary plan axes (docs/ADVERSARIES.md)."""
