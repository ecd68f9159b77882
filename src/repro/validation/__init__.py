"""Validation-based index maintenance (DESIGN.md §14).

The fifth point on the scheme spectrum, after Luo & Carey: index updates
ship blindly with no read-before-write (:class:`ValidationObserver` in
``repro.core.observers``), reads filter stale hits against the base
rows' indexed-column timestamps (``_validate`` in ``repro.core.reader``,
over the SSTables' timestamp sidecars), and this package's
:class:`ValidationCleaner` garbage-collects the dead entries the filter
discovers.  The compaction-time purge of entries the *reads never
touched* lives in ``RegionServer.compact_region``.
"""

from repro.validation.cleaner import ValidationCleaner

__all__ = ["ValidationCleaner"]
