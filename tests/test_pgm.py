import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repkit.pgm import MAXVAL, read_pgm, write_pgm


def test_roundtrip_within_quantum(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.uniform(-0.7, 1.2, (13, 17))
    path = tmp_path / "img.pgm"
    write_pgm(path, u)
    v = read_pgm(path)
    quantum = (u.max() - u.min()) / MAXVAL
    assert v.shape == u.shape
    assert np.abs(u - v).max() <= 0.51 * quantum


def test_constant_image_exact(tmp_path):
    path = tmp_path / "c.pgm"
    write_pgm(path, np.full((4, 6), 3.25))
    assert np.array_equal(read_pgm(path), np.full((4, 6), 3.25))


def test_negative_values_roundtrip(tmp_path):
    u = np.array([[-0.5, 0.0], [0.25, 0.8]])
    path = tmp_path / "n.pgm"
    write_pgm(path, u)
    v = read_pgm(path)
    assert np.abs(u - v).max() <= 1.3 / MAXVAL


def test_header_format(tmp_path):
    path = tmp_path / "h.pgm"
    write_pgm(path, np.array([[0.0, 1.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# scale ")
    assert lines[-2].split() == ["2", "1"] or "2 1" in lines
    # plain readers see ordinary integers
    assert all(tok.isdigit() for tok in lines[-1].split())


def test_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(1)
    u = rng.uniform(0, 1, (5, 5))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(p1, u)
    write_pgm(p2, u.copy())
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros(5))
    bad = tmp_path / "bad.pgm"
    bad.write_text("P5\n1 1\n255\n0\n")
    with pytest.raises(ValueError):
        read_pgm(bad)


def _reference_write_pgm(path, image):
    """Reference: the writer formatting one ``str`` per numpy sample."""
    image = np.asarray(image, dtype=float)
    offset = float(min(image.min(initial=0.0), 0.0))
    span = float(image.max(initial=0.0) - offset)
    scale = span / MAXVAL if span / MAXVAL > 0 else 1.0
    stored = np.clip(np.round((image - offset) / scale).astype(int), 0,
                     MAXVAL)
    h, w = image.shape
    lines = ["P2", f"# scale {scale!r}"]
    if offset != 0.0:
        lines.append(f"# offset {offset!r}")
    lines += [f"{w} {h}", str(MAXVAL)]
    for row in stored:
        lines.append(" ".join(str(v) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_read_pgm(path):
    """Reference: the token-by-token reader, one ``int()`` per sample."""
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


@st.composite
def _images(draw):
    """Images of 1 to 12 pixels a side: random values of either sign,
    negative values only, or one constant."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "negative", "constant"]))
    if kind == "constant":
        return np.full((h, w), draw(st.floats(-1e6, 1e6)))
    high = 0.0 if kind == "negative" else 1e6
    values = draw(st.lists(st.floats(-1e6, high), min_size=h * w,
                           max_size=h * w))
    return np.array(values).reshape(h, w)


@settings(max_examples=150, deadline=None)
@given(_images())
def test_reader_matches_reference(tmp_path_factory, image):
    path = tmp_path_factory.mktemp("pgm") / "u.pgm"
    write_pgm(path, image)
    got, want = read_pgm(path), _reference_read_pgm(path)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(_images())
def test_writer_matches_reference(tmp_path_factory, image):
    root = tmp_path_factory.mktemp("pgm")
    write_pgm(root / "a.pgm", image)
    _reference_write_pgm(root / "b.pgm", image)
    assert (root / "a.pgm").read_bytes() == (root / "b.pgm").read_bytes()


def test_golden_bytes(tmp_path):
    image = np.array([[-0.5, 0.0, 0.25], [0.8, 1.3, -0.5]])
    path, ref = tmp_path / "g.pgm", tmp_path / "r.pgm"
    write_pgm(path, image)
    _reference_write_pgm(ref, image)
    assert path.read_bytes() == ref.read_bytes() == (
        b"P2\n# scale 2.746623941405356e-05\n# offset -0.5\n3 2\n65535\n"
        b"0 18204 27306\n47331 65535 0\n")


def test_subnormal_span_round_trips(tmp_path):
    # a span whose quantum underflows to 0 is written as a flat image
    path = tmp_path / "s.pgm"
    write_pgm(path, np.array([[0.0, 5e-324]]))
    assert "# scale 1.0" in path.read_text()
    assert np.array_equal(read_pgm(path), np.zeros((1, 2)))


@pytest.mark.parametrize("image", [
    [[0.5, np.nan]], [[np.inf, 0.0]], [[-np.inf, 1.0]], [[np.nan]],
    [[-1e308, 1e308]],  # finite values whose span is not
], ids=["nan", "inf", "minus-inf", "all-nan", "span-overflows"])
def test_refuses_image_no_pgm_holds(tmp_path, image):
    # no finite scale and offset describe it, and read_pgm requires both
    path = tmp_path / "x.pgm"
    with pytest.raises(ValueError, match="finite"):
        write_pgm(path, np.array(image))
    assert not path.exists()


def test_widest_finite_span_round_trips(tmp_path):
    path = tmp_path / "w.pgm"
    write_pgm(path, np.array([[-8e307, 8e307]]))
    assert np.array_equal(read_pgm(path), [[-8e307, 8e307]])


def test_comments_between_header_tokens(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2\n# a viewer's note\n2 1\n# scale 0.5\n3\n0 3\n")
    assert np.array_equal(read_pgm(path), [[0.0, 1.5]])
    path.write_text("P2 2 1 3 0 3\n")  # one line, samples included
    assert np.array_equal(read_pgm(path), [[0.0, 3.0]])


# Files the reader rejects, beyond those that tests/test_cli.py runs
# through ``repkit audit``.
MALFORMED = {
    "no-maxval": "P2\n2 1\n",
    "maxval-0": "P2\n2 1\n0\n0 0\n",
    "maxval-above-16-bit": "P2\n2 1\n65536\n0 1\n",
    "width-0": "P2\n0 1\n3\n",
    "too-few-samples": "P2\n2 1\n3\n0\n",
    "no-samples": "P2\n2 1\n3\n  \n",
    "non-integer-sample": "P2\n2 1\n3\n0 1.5\n",
    "word-sample": "P2\n2 1\n3\n0 x\n",
    "comment-among-samples": "P2\n2 1\n3\n0\n# note\n1\n",
    "scale-negative": "P2\n# scale -2\n2 1\n3\n0 1\n",
    "scale-inf": "P2\n# scale inf\n2 1\n3\n0 1\n",
    "offset-nan": "P2\n# offset nan\n2 1\n3\n0 1\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_rejects_malformed_file(tmp_path, name):
    path = tmp_path / "m.pgm"
    path.write_text(MALFORMED[name])
    with pytest.raises(ValueError):
        read_pgm(path)
