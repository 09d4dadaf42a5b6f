"""An online LITERACE (Marino, Musuvathi & Narayanasamy; paper §5.3).

LITERACE lowers overhead by sampling *code*: it always instruments
synchronization (so it never misses happens-before edges) but samples
read/write instrumentation per method×thread, betting on the
*cold-region hypothesis* — races live disproportionately in cold code.

This is the paper's own online reimplementation (§5.3):

* per method×thread *adaptive* rate, starting at 100% and decaying
  inversely with invocation count down to ``min_rate`` (0.1%);
* *bursty* sampling [Hirzel & Chilimbi]: when an invocation is chosen,
  the next ``burst_length`` accesses in that method×thread are analyzed
  (the paper uses 10, then 1,000 for most benchmarks);
* randomized counter reset, so different trials catch different races.
  The generator is seeded (``seed``, default :data:`DEFAULT_SEED`), so
  one trace and seed always give the same report bytes; vary ``seed``
  across trials to vary the bursts.

The race analysis underneath is FASTTRACK.  Two properties distinguish
it from PACER, both demonstrated in the benchmarks: races between two
*hot* accesses are found at only ≈min_rate² (Figure 6), and metadata is
never discarded, so space overhead tracks live data rather than the
sampling rate (Figure 10).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from .fasttrack import FastTrackDetector

__all__ = ["LiteRaceDetector"]

#: method id used for code outside any ``m_enter``/``m_exit`` bracket
TOP_LEVEL_METHOD = 0

#: burst-randomization seed used when the caller does not pick one
DEFAULT_SEED = 0


class LiteRaceDetector(FastTrackDetector):
    """FASTTRACK with LITERACE's adaptive bursty code sampling."""

    name = "literace"

    def __init__(
        self,
        burst_length: int = 1000,
        min_rate: float = 0.001,
        seed: int = DEFAULT_SEED,
        backend: Optional[str] = None,
    ) -> None:
        super().__init__(backend)
        self.burst_length = burst_length
        self.min_rate = min_rate
        self._rng = random.Random(seed)
        self._stack: Dict[int, List[int]] = {}  # tid -> method stack
        self._invocations: Dict[Tuple[int, int], int] = {}
        self._burst: Dict[Tuple[int, int], int] = {}
        self.sampled_accesses = 0
        self.skipped_accesses = 0

    # -- code sampling ------------------------------------------------------

    def method_enter(self, tid: int, method: int) -> None:
        self._stack.setdefault(tid, []).append(method)
        key = (method, tid)
        count = self._invocations.get(key, 0) + 1
        self._invocations[key] = count
        # Adaptive rate: inversely proportional to execution frequency,
        # clamped at min_rate (LITERACE's cold-region heuristic).
        rate = max(self.min_rate, 1.0 / count)
        if self._rng.random() < rate:
            # Randomized burst start (the paper adds randomness when
            # resetting the counter to vary races across trials).
            self._burst[key] = max(1, int(self.burst_length * (0.5 + self._rng.random())))

    def method_exit(self, tid: int, method: int) -> None:
        stack = self._stack.get(tid)
        if stack and stack[-1] == method:
            stack.pop()

    def _current_method(self, tid: int) -> int:
        stack = self._stack.get(tid)
        return stack[-1] if stack else TOP_LEVEL_METHOD

    def _instrumenting(self, tid: int) -> bool:
        key = (self._current_method(tid), tid)
        remaining = self._burst.get(key, 0)
        if remaining <= 0:
            # Top-level code (no enclosing method) is always instrumented
            # the first burst_length times, like a cold method.
            if key[0] == TOP_LEVEL_METHOD and key not in self._burst:
                self._burst[key] = self.burst_length
                return self._instrumenting(tid)
            return False
        self._burst[key] = remaining - 1
        return True

    @property
    def effective_rate(self) -> float:
        """Achieved fraction of data accesses that were analyzed."""
        total = self.sampled_accesses + self.skipped_accesses
        return self.sampled_accesses / total if total else 0.0

    # -- accesses: sampled; synchronization stays fully instrumented ----------

    def read(self, tid: int, var: int, site: int = 0) -> None:
        if self._instrumenting(tid):
            self.sampled_accesses += 1
            super().read(tid, var, site)
        else:
            self.skipped_accesses += 1
            self.counters.reads_fast_nonsampling += 1

    def write(self, tid: int, var: int, site: int = 0) -> None:
        if self._instrumenting(tid):
            self.sampled_accesses += 1
            super().write(tid, var, site)
        else:
            self.skipped_accesses += 1
            self.counters.writes_fast_nonsampling += 1
