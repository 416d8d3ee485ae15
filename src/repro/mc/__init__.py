"""Small-scope model checking of the real module stack.

``repro.mc`` drives the *actual* transformed protocol — the same
processes, monitors, certification layer and scheduler the tests and
campaigns run — through **all** interleavings of a bounded world
(n = 4, F = 1, bounded rounds, a bounded adversary-action alphabet),
checking the paper's safety properties in every reachable state and
emitting any counterexample as a replayable, shrinkable campaign
scenario. See docs/MODELCHECK.md for the scope bounds and the worked
counterexample example.
"""
