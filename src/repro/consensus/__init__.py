"""Consensus protocols: the crash-model originals and the transformed one."""
