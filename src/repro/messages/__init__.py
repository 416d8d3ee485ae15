"""Protocol message bodies (unsigned, uncertified payloads)."""
