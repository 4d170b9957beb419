"""End-to-end and per-layer benchmark of diracpol; see bench/README.md."""
