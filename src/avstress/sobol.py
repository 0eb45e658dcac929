"""Unscrambled Sobol sequence from Joe-Kuo direction numbers.

Indexing starts at 1; index 0 would be the all-zeros point, which is never
used as a sample. Supports up to 21 dimensions. The search cube has 2
coordinates per prompted agent and the GP's restart cube 2 more, so this
caps a scenario at 9 simulated agents (`scenario.load_scenario` checks it).
The table entries are those of the new-joe-kuo-6.21201 file that scipy
ships, so the points equal `scipy.stats.qmc.Sobol(d, scramble=False)`'s.
"""
from __future__ import annotations

import functools
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_BITS = 32

# (degree s, coefficient bits a, initial m values), per dimension starting at
# the second; the first dimension is the base-2 van der Corput sequence.
_JOE_KUO = [
    (1, 0, [1]),
    (2, 1, [1, 3]),
    (3, 1, [1, 3, 1]),
    (3, 2, [1, 1, 1]),
    (4, 1, [1, 1, 3, 3]),
    (4, 4, [1, 3, 5, 13]),
    (5, 2, [1, 1, 5, 5, 17]),
    (5, 4, [1, 1, 5, 5, 5]),
    (5, 7, [1, 1, 7, 11, 19]),
    (5, 11, [1, 1, 5, 1, 1]),
    (5, 13, [1, 1, 1, 3, 11]),
    (5, 14, [1, 3, 5, 5, 31]),
    (6, 1, [1, 3, 3, 9, 7, 49]),
    (6, 13, [1, 1, 1, 15, 21, 21]),
    (6, 16, [1, 3, 1, 13, 27, 49]),
    (6, 19, [1, 1, 1, 15, 7, 5]),
    (6, 22, [1, 3, 1, 15, 13, 25]),
    (6, 25, [1, 1, 5, 5, 19, 61]),
    (7, 1, [1, 3, 7, 11, 23, 15, 103]),
    (7, 4, [1, 3, 7, 13, 13, 15, 69]),
]

MAX_DIM = len(_JOE_KUO) + 1


@functools.cache
def _direction_numbers(dim: int) -> list[list[int]]:
    """Direction integers v_j << (BITS - j) for each of `dim` dimensions."""
    if not (1 <= dim <= MAX_DIM):
        raise ValueError(f"dimension {dim} outside [1, {MAX_DIM}]")
    vs = []
    # first dimension: v_j = 2^(BITS - j)
    vs.append([1 << (_BITS - j) for j in range(1, _BITS + 1)])
    for s, a, m_init in _JOE_KUO[: dim - 1]:
        m = list(m_init)
        for j in range(s, _BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if (a >> (s - 1 - k)) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        vs.append([m[j] << (_BITS - j - 1) for j in range(_BITS)])
    return vs


def sobol_point(index: int, dim: int = 2) -> tuple[float, ...]:
    """The index-th point (index >= 1) of the unscrambled Sobol sequence."""
    if index < 1:
        raise ValueError("sobol index must be >= 1")
    vs = _direction_numbers(dim)
    gray = index ^ (index >> 1)
    out = []
    for d in range(dim):
        x = 0
        g = gray
        j = 0
        while g:
            if g & 1:
                x ^= vs[d][j]
            g >>= 1
            j += 1
        out.append(x / float(1 << _BITS))
    return tuple(out)


def sobol_points(n: int, dim: int = 2, start: int = 1) -> np.ndarray:
    """Points start .. start+n-1 of the sequence as an (n, dim) array.

    The array is built once per (n, dim, start) and shared by every call
    with those arguments, so it is read-only."""
    return _points(n, dim, start)


@functools.cache
def _points(n: int, dim: int, start: int) -> np.ndarray:
    # numpy only here: Sobol campaigns draw single points and never load it
    import numpy as np

    pts = np.array([sobol_point(start + i, dim) for i in range(n)], dtype=float)
    pts.flags.writeable = False
    return pts
