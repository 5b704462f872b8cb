"""repro.journal — crash-consistent run store and checkpoint/resume layer.

Three pieces, one contract:

* :mod:`repro.journal.atomic` — atomic artifact writes (temp file +
  fsync + rename): readers and resumed runs never see a torn manifest,
  trace, or experiment output.
* :mod:`repro.journal.store` — the append-only, per-record-CRC
  execution journal (:class:`RunJournal`): each completed unit of work
  is one fsynced record carrying its results, RNG draw ledger, and
  captured telemetry.  A ``kill -9`` at any byte leaves either a clean
  journal or a torn tail that resume truncates; real corruption raises
  :class:`~repro.errors.JournalError` naming the record.
* :mod:`repro.journal.checkpoint` — replay glue: the journaled chaos
  runner, which captures and grafts each in-process unit's telemetry.

The contract: ``<command> --resume RUN_DIR``, interrupted anywhere and
re-run, produces byte-identical stdout and a deterministic-twin
``--obs-dir`` manifest versus the same command never interrupted.
"""

from repro.journal.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.journal.checkpoint import journaled_chaos
from repro.journal.store import (
    CRASH_ENV,
    JOURNAL_FILENAME,
    JOURNAL_MAGIC,
    RunJournal,
    scan_journal,
)

__all__ = [
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "CRASH_ENV",
    "JOURNAL_FILENAME",
    "JOURNAL_MAGIC",
    "RunJournal",
    "scan_journal",
    "journaled_chaos",
]
