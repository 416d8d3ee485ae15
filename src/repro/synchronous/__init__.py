"""Synchronous substrate and the Interactive Consistency baseline [11]."""
