"""The concurrent-program simulator: the substrate replacing Jikes RVM."""

from .program import (
    Acquire,
    Alloc,
    Enter,
    Exit,
    Fork,
    Join,
    Op,
    Program,
    Read,
    Release,
    VolRead,
    VolWrite,
    Work,
    Write,
)
from .runtime import MemorySnapshot, Runtime, RuntimeConfig
from .scheduler import DeadlockError, Recording, Scheduler, record, run_program

__all__ = [
    "Program",
    "Op",
    "Read",
    "Write",
    "Acquire",
    "Release",
    "Fork",
    "Join",
    "VolRead",
    "VolWrite",
    "Enter",
    "Exit",
    "Alloc",
    "Work",
    "Scheduler",
    "DeadlockError",
    "Recording",
    "record",
    "run_program",
    "Runtime",
    "RuntimeConfig",
    "MemorySnapshot",
]
