"""StoreConfig: the one knob block that turns persistence on.

Execution-layer configs (:class:`repro.datagen.pipeline.DatagenConfig`,
:class:`repro.serve.service.ServeConfig`,
:class:`repro.core.api.PipelineConfig`) embed an optional
``StoreConfig``; like every other execution knob it never changes
results — only whether artifacts survive the process.  ``store=None``
(their default) means no store at all.

- ``path=None``: a process-local :class:`MemoryStore` of
  :data:`MEMORY_ENTRIES` entries — nothing touches disk;
- ``path=<dir>``: a :class:`DiskStore` rooted there, fronted by such a
  :class:`MemoryStore` — artifacts persist across runs, processes, and
  (on a shared filesystem) hosts.  The directory is also the compile
  cache's persistent tier while an engine built from the config is open
  (see :func:`repro.verilog.compile.hold_compile_store`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from repro.knobs import EXECUTION, configclass, knob
from repro.store.disk import DEFAULT_MAX_BYTES, DiskStore
from repro.store.memory import MemoryStore
from repro.store.tiered import TieredStore

#: Entries the memory tier of :meth:`StoreConfig.make_store` keeps.
MEMORY_ENTRIES = 2048


@configclass
class StoreConfig:
    """Where artifacts persist, and how big the disk tier may grow."""

    path: Optional[Union[str, Path]] = knob(
        None, kind=(str, Path), optional=True, role=EXECUTION)
    max_bytes: int = knob(DEFAULT_MAX_BYTES, kind=int, ge=1, role=EXECUTION)

    def store_path(self) -> str:
        """The disk root as a plain string, ``""`` when memory-only."""
        return "" if self.path is None else str(self.path)

    def make_store(self):
        """Build the configured store."""
        memory = MemoryStore(max_entries=MEMORY_ENTRIES)
        if self.path is None:
            return memory
        return TieredStore(memory, DiskStore(self.path,
                                             max_bytes=self.max_bytes))
