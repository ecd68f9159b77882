"""The repo's two-clock benchmark (see ledger/README.md)."""
