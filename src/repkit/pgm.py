"""ASCII PGM (P2) image I/O that round-trips real-valued images.

Stored integers are ``round((value - offset) / scale)`` in 16-bit range;
``scale`` (and ``offset``, written only when nonzero) travel in comment
lines, so standard viewers read the files while the float values survive
to quantization accuracy.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .jsontext import write_text

MAXVAL = 65535


def write_pgm(path, image) -> np.ndarray:
    """Write a real-valued image as ASCII PGM with a scale comment; return
    the image the file holds, bit for bit what :func:`read_pgm` reads.

    ``ValueError``, writing nothing, if the image holds a NaN or an
    infinity, or its values span more than a float holds: no finite
    ``# scale`` and ``# offset`` would describe it."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("expected a 2-d image")
    offset = min(float(image.min(initial=0.0)), 0.0)
    span = float(image.max(initial=0.0)) - offset
    if not math.isfinite(span):  # NaN and infinities propagate to it
        raise ValueError("PGM image values must be finite and span less "
                         "than the largest float")
    # 1 for a flat image, and for a span so small that the quantum is 0
    scale = span / MAXVAL if span / MAXVAL > 0 else 1.0
    stored = np.round((image - offset) / scale).astype(int)
    stored = np.clip(stored, 0, MAXVAL)
    h, w = image.shape
    lines = [
        "P2",
        f"# scale {scale!r}",
    ]
    if offset != 0.0:
        lines.append(f"# offset {offset!r}")
    lines.append(f"{w} {h}")
    lines.append(str(MAXVAL))
    lines.extend(" ".join(map(str, row)) for row in stored.tolist())
    write_text(path, "\n".join(lines) + "\n")
    return stored.astype(float) * scale + offset


def _header_int(token, name, high=None) -> int:
    """A header token as an integer of at least 1 (and at most ``high``)."""
    value = int(token) if token.isdigit() else 0
    if value < 1 or (high is not None and value > high):
        bounds = f"1..{high}" if high is not None else "at least 1"
        raise ValueError(f"PGM {name} must be an integer in {bounds}, "
                         f"not {token!r}")
    return value


def read_pgm(path) -> np.ndarray:
    """Read an ASCII PGM written by :func:`write_pgm` (or any plain P2).

    The header is the magic ``P2``, the width, the height and a maxval in
    ``1..65535``; lines starting with ``#`` may come between its tokens,
    and ``# scale <s>`` (finite, positive) and ``# offset <o>`` (finite)
    set the affine map of the stored integers. Exactly ``width * height``
    integer samples in ``0..maxval`` follow. Anything else raises
    ``ValueError``.
    """
    scale, offset = 1.0, 0.0
    header = []
    with open(path, "r", encoding="ascii") as fh:
        while len(header) < 4:
            line = fh.readline()
            if not line:
                raise ValueError("PGM header ends before the maxval")
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] == "scale":
                    scale = float(parts[1])
                elif len(parts) == 2 and parts[0] == "offset":
                    offset = float(parts[1])
                continue
            header += line.split()
            if header and header[0] != "P2":
                raise ValueError("not an ASCII PGM (P2) file")
        body = fh.read()
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("PGM scale must be finite and positive")
    if not math.isfinite(offset):
        raise ValueError("PGM offset must be finite")
    w = _header_int(header[1], "width")
    h = _header_int(header[2], "height")
    maxval = _header_int(header[3], "maxval", MAXVAL)
    if len(header) > 4:  # samples on the maxval's line
        body = " ".join(header[4:]) + " " + body
    # fromstring reads a blank string as one 0; older numpy warns, rather
    # than raise, at a token that is not an integer
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            samples = (np.fromstring(body, dtype=np.int64, sep=" ")
                       if body and not body.isspace()
                       else np.empty(0, dtype=np.int64))
        except (DeprecationWarning, ValueError):
            raise ValueError("PGM samples must be integers") from None
    if samples.size != w * h:
        raise ValueError(f"PGM holds {samples.size} samples for a {w}x{h} "
                         f"image")
    if samples.min() < 0 or samples.max() > maxval:
        raise ValueError(f"PGM samples must lie in 0..{maxval}")
    return samples.reshape(h, w).astype(float) * scale + offset
