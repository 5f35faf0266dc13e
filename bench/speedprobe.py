"""CPU-speed probe for the winspell benchmark.

The benchmark runs on virtual CPUs that share physical cores with other
work, and the speed one vCPU delivers drifts smoothly by up to a factor of two
over seconds. A wall time measured there says as much about the neighbours as
about the program. The probe measures that speed from inside the measured
process: every ``INTERVAL_S`` seconds a SIGALRM handler times a fixed mix of
the two kinds of work winspell does, ``PROBE_LOOPS`` turns of an arithmetic
loop and ``PROBE_LOOKUPS`` lookups of scattered keys in a dictionary of
``TABLE_KEYS`` strings (taken in a shuffled order that revisits a key only
every ``TABLE_KEYS / PROBE_LOOKUPS`` probes, so they miss the cache). Because
the probe runs on the same vCPU, interleaved with the program every few
milliseconds, its mean duration tracks how fast the program ran over the same
stretch of time, and ``scaled`` turns an elapsed time into seconds at the
probe's reference speed:

    scaled = (elapsed - probe overhead) * REFERENCE_S / mean probe time

where the overhead is the probes' own time plus building their table. On the
2-vCPU Intel Xeon host the bounds were tuned on, the medians of eight 15 s
train-50sets runs spread 32% of their median (IQR) unscaled and 8% scaled;
the arithmetic loop alone or the lookups alone did about as well there, but
the loop alone slows less than dictionary work does on some stretches and the
lookups alone depend more on what the program leaves in the cache. Scaling
removes most of the host's swing, not all: slow stretches still read a few
percent slower.

The probe's table adds about 6 MB to the process, so peak memory is measured
on repetitions run without it.

Two uses:

- in-process, around code the benchmark itself runs (a probe may be entered
  again; each time starts a new reading)::

      probe = SpeedProbe()
      start = time.perf_counter()
      with probe:
          work()
      seconds = scaled(time.perf_counter() - start, probe.reading())

- as a wrapper in place of ``python -m winspell``, which writes the reading
  of the whole command as JSON to READING_FILE and exits with main's code::

      python3 bench/speedprobe.py READING_FILE -- <winspell arguments>

  winspell is imported from PYTHONPATH.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time

TABLE_KEYS = 50_000
PROBE_LOOKUPS = 150
PROBE_LOOPS = 500
# About the probe's duration on an uncontended vCPU of the host the bounds
# were tuned on (Intel Xeon, Python 3.11): scaled times are seconds at that speed.
REFERENCE_S = 100e-6
INTERVAL_S = 0.005


class SpeedProbe:
    """Times a probe on entry, on exit and every ``interval`` seconds in
    between. Only one may be active in a process (it owns SIGALRM)."""

    def __init__(self, interval: float = INTERVAL_S):
        start = time.perf_counter()
        rng = random.Random(0)
        keys = [f"k{rng.getrandbits(40):x}" for _ in range(TABLE_KEYS)]
        self._table = dict.fromkeys(keys, 1)
        rng.shuffle(keys)
        self._order = keys[:TABLE_KEYS - TABLE_KEYS % PROBE_LOOKUPS]
        self._next = 0
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None
        self.build_s = time.perf_counter() - start

    def _tick(self, _signum=None, _frame=None):
        start = time.perf_counter()
        at = self._next
        table = self._table
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        for key in self._order[at:at + PROBE_LOOKUPS]:
            total += table[key]
        self._next = (at + PROBE_LOOKUPS) % len(self._order)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def reading(self) -> dict:
        """Samples of the last use, and their time as the overhead."""
        probe_s = sum(self.samples)
        return {"samples": len(self.samples), "overhead_s": probe_s,
                "mean_probe_s": probe_s / len(self.samples)}


def scaled(elapsed: float, reading: dict) -> float:
    """``elapsed`` wall seconds, less the probe's overhead, at reference speed."""
    return (elapsed - reading["overhead_s"]) * REFERENCE_S / reading["mean_probe_s"]


def _main(argv) -> int:
    reading_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: speedprobe.py READING_FILE -- ARGS...")
    probe = SpeedProbe()
    with probe:
        import winspell.cli

        code = winspell.cli.main(cli_args)
        sys.stdout.flush()
    reading = probe.reading()
    # The caller times the whole process, table building included.
    reading["overhead_s"] += probe.build_s
    with open(reading_path, "w", encoding="utf-8") as fh:
        json.dump(reading, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
