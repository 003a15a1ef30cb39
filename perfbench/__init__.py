"""End-to-end and per-layer benchmark of the reslearn CLI (see README.md)."""
