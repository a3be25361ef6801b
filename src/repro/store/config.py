"""StoreConfig: the one knob block that turns persistence on.

Execution-layer configs (:class:`repro.datagen.pipeline.DatagenConfig`,
:class:`repro.serve.service.ServeConfig`,
:class:`repro.core.api.PipelineConfig`) embed an optional
``StoreConfig``; like every other execution knob it never changes
results — only whether artifacts survive the process.

- ``path=None`` (default): a process-local :class:`MemoryStore` — the
  pre-store behaviour, nothing touches disk;
- ``path=<dir>``: a :class:`DiskStore` rooted there, fronted by a
  :class:`MemoryStore` unless ``memory_entries=0`` — artifacts persist
  across runs, processes, and (on a shared filesystem) hosts;
- ``enabled=False``: no store at all.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.knobs import EXECUTION, configclass, knob
from repro.store.disk import DEFAULT_MAX_BYTES, DiskStore
from repro.store.memory import MemoryStore
from repro.store.tiered import TieredStore


@configclass
class StoreConfig:
    """Where (and whether) artifacts persist, and how big they may grow."""

    path: Optional[Union[str, Path]] = knob(
        None, kind=(str, Path), optional=True, role=EXECUTION)
    max_bytes: int = knob(DEFAULT_MAX_BYTES, kind=int, ge=1, role=EXECUTION)
    memory_entries: int = knob(2048, kind=int, ge=0, role=EXECUTION)
    enabled: bool = knob(True, kind=bool, role=EXECUTION)

    def _check(self) -> None:
        if self.path is None and self.memory_entries == 0 and self.enabled:
            raise ValueError("memory_entries=0 with no disk path leaves "
                             "nothing to store into; set a path or disable")

    def store_path(self) -> str:
        """The disk root as a plain string, ``""`` when memory-only.

        Picklable and cheap — this is what travels to process-pool
        workers (via initializer args) so each worker attaches its own
        :class:`DiskStore` handle to the shared directory.
        """
        if not self.enabled or self.path is None:
            return ""
        return str(self.path)

    def make_store(self):
        """Build the configured store (``None`` when disabled)."""
        if not self.enabled:
            return None
        if self.path is None:
            return MemoryStore(max_entries=self.memory_entries)
        disk = DiskStore(self.path, max_bytes=self.max_bytes)
        if self.memory_entries == 0:
            return disk
        return TieredStore(MemoryStore(max_entries=self.memory_entries), disk)
