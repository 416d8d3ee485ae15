"""Unreliable failure-detector substrate: ◇S (crash) and ◇M (muteness)."""
