"""Analysis layer: property checking, metrics, batch experiments."""
