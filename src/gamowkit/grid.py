"""Uniform grids as Python floats, ``np.linspace``'s bit for bit, without numpy.

The grid commands compute, format and write their rows a block at a time, and
``rep-check`` checks on whole grids; neither loads numpy or the other's module.
"""

# Rows computed, formatted and written at a time.  From 16 to 128 rows, every 50001-point run
# peaked at a 3-step run's RSS; at 512 up to 0.4 MiB above it (Python 3.11, Linux x86-64).
_BLOCK_ROWS = 32


def linspace_points(start, stop, steps: int, indices) -> list[float]:
    """Points ``indices`` (ascending) of ``np.linspace(start, stop, steps)`` by numpy's own
    arithmetic: point i is i * step + start, or (i / div) * delta + start where the step rounds
    to 0, and the last is stop."""
    start, stop, div = float(start), float(stop), steps - 1
    delta = stop - start
    step = delta / div
    points = [i * step + start if step else i / div * delta + start for i in indices]
    if indices[-1] == div:
        points[-1] = stop
    return points


def linspace_blocks(start, stop, steps: int):
    """Every point of the grid, in order, as lists of at most _BLOCK_ROWS Python floats."""
    for first in range(0, steps, _BLOCK_ROWS):
        yield linspace_points(start, stop, steps, range(first, min(first + _BLOCK_ROWS, steps)))

