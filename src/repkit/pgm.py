"""ASCII PGM (P2) image I/O that round-trips real-valued images.

Stored integers are ``round((value - offset) / scale)`` in 16-bit range;
``scale`` (and ``offset``, written only when nonzero) travel in comment
lines, so standard viewers read the files while the float values survive
to quantization accuracy.
"""

from __future__ import annotations

import numpy as np

MAXVAL = 65535


def write_pgm(path, image) -> None:
    """Write a real-valued image as ASCII PGM with a scale comment."""
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError("expected a 2-d image")
    offset = float(min(image.min(initial=0.0), 0.0))
    span = float(image.max(initial=0.0) - offset)
    scale = span / MAXVAL if span > 0 else 1.0
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
    for row in stored:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pgm(path) -> np.ndarray:
    """Read an ASCII PGM written by :func:`write_pgm` (or any plain P2)."""
    scale = 1.0
    offset = 0.0
    tokens = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) == 2 and parts[0] in ("scale", "offset"):
                    if parts[0] == "scale":
                        scale = float(parts[1])
                    else:
                        offset = float(parts[1])
                continue
            tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not an ASCII PGM (P2) file")
    w, h = int(tokens[1]), int(tokens[2])
    values = np.array([int(t) for t in tokens[4:4 + w * h]], dtype=float)
    if values.size != w * h:
        raise ValueError("truncated PGM data")
    return values.reshape(h, w) * scale + offset
