"""Unit conversion helpers shared across the library.

The planner (``repro.core``) works in **GB and hours** — the natural units
of cloud billing (instance-hours, GB-months).  The simulator
(``repro.sim``, ``repro.mapreduce``) works in **MB/s and seconds** — the
natural units of data transfer.  Every conversion between the two worlds
goes through this module so the factors live in exactly one place.

The paper uses decimal prefixes for network rates (16 Mbit/s = 2 MB/s) and
binary-ish data sizes; we follow its arithmetic: 1 GB = 1024 MB, and
"16 Mbit/s" is treated as exactly 2 MB/s as in Section 6.1.
"""

from __future__ import annotations

MB_PER_GB = 1024.0
SECONDS_PER_HOUR = 3600.0


def mbit_s_to_mb_s(mbit_per_second: float) -> float:
    """Network rate in Mbit/s to MB/s (paper: 16 Mbit/s -> 2 MB/s)."""
    return mbit_per_second / 8.0


def mb_s_to_gb_h(mb_per_second: float) -> float:
    """Transfer rate in MB/s to GB/hour."""
    return mb_per_second * SECONDS_PER_HOUR / MB_PER_GB


def gb_h_to_mb_s(gb_per_hour: float) -> float:
    """Transfer rate in GB/hour to MB/s."""
    return gb_per_hour * MB_PER_GB / SECONDS_PER_HOUR


def seconds_to_hours(seconds: float) -> float:
    return seconds / SECONDS_PER_HOUR
