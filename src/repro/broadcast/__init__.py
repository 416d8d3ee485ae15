"""Byzantine reliable broadcast — an extension substrate (see DESIGN.md)."""
