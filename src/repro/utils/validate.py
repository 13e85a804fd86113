"""Argument-checking helpers.

Every public entry point of the library validates its inputs eagerly
so that configuration mistakes (a negative conductance, a mis-shaped
power vector) surface at the call site rather than as a cryptic linear
algebra failure three layers down.
"""

from __future__ import annotations

import numpy as np


def check_positive(value, name):
    """Require ``value`` to be a finite, strictly positive scalar."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError("{} must be a positive finite number, got {!r}".format(name, value))
    return value


def check_nonnegative(value, name):
    """Require ``value`` to be a finite scalar >= 0."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ValueError(
            "{} must be a non-negative finite number, got {!r}".format(name, value)
        )
    return value


def check_limit(limit_c, ambient_c, name="limit_c"):
    """Require a finite temperature limit (C) above ``ambient_c``.

    A limit at or below the ambient is unachievable and an infinite
    one is no limit at all; both are refused with the same message at
    every front end (CLI, sweep spec, HTTP).
    """
    limit = float(limit_c)
    if not np.isfinite(limit) or not limit > ambient_c:
        raise ValueError(
            "{} must be a finite temperature above the {} C ambient, "
            "got {!r}".format(name, ambient_c, limit)
        )
    return limit


def check_in_range(value, name, low, high, *, inclusive=(True, True)):
    """Require ``low (<=|<) value (<=|<) high``; return the float value."""
    value = float(value)
    lo_ok = value >= low if inclusive[0] else value > low
    hi_ok = value <= high if inclusive[1] else value < high
    if not (np.isfinite(value) and lo_ok and hi_ok):
        lo_b = "[" if inclusive[0] else "("
        hi_b = "]" if inclusive[1] else ")"
        raise ValueError(
            "{} must lie in {}{}, {}{}, got {!r}".format(name, lo_b, low, high, hi_b, value)
        )
    return value


def check_finite(array, name):
    """Require every element of ``array`` to be finite; return an ndarray."""
    arr = np.asarray(array, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("{} contains non-finite entries".format(name))
    return arr


def check_shape(array, shape, name):
    """Require ``array`` to have exactly ``shape``; return an ndarray.

    ``shape`` entries set to ``None`` match any size along that axis.
    """
    arr = np.asarray(array)
    if arr.ndim != len(shape):
        raise ValueError(
            "{} must have {} dimensions, got {}".format(name, len(shape), arr.ndim)
        )
    for axis, (actual, expected) in enumerate(zip(arr.shape, shape)):
        if expected is not None and actual != expected:
            raise ValueError(
                "{} has shape {}, expected {} along axis {}".format(
                    name, arr.shape, expected, axis
                )
            )
    return arr


def check_index(value, name, size):
    """Require ``value`` to be an integer index valid for a size-``size`` axis."""
    index = int(value)
    if index != value:
        raise ValueError("{} must be an integer, got {!r}".format(name, value))
    if not 0 <= index < size:
        raise IndexError(
            "{} out of range: {} not in [0, {})".format(name, index, size)
        )
    return index


def check_tile_indices(tiles, num_tiles, name="tec_tiles"):
    """Require integer tile indices in ``[0, num_tiles)``.

    Returns them deduplicated and sorted.  Raises ValueError rather
    than IndexError: an out-of-range tile is bad input, and every
    front end (CLI, sweep spec, HTTP) reports ValueErrors as a
    validation message.
    """
    indices = set()
    for tile in tiles:
        try:
            index = int(tile)
        except (TypeError, ValueError):
            index = None
        if index is None or index != tile or not 0 <= index < num_tiles:
            raise ValueError(
                "{} entry {!r} is not a tile index in [0, {})".format(
                    name, tile, num_tiles
                )
            )
        indices.add(index)
    return tuple(sorted(indices))
