"""The bulk CSV fields of jswsim._rows: every float field is the bytes of
``repr``, in the digits it finds itself (finite |x| in [1e-4, 1e16)) and in
the ``repr`` splices it takes for every other value."""

import numpy as np
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from jswsim import _rows
from jswsim.comparison import SystemConfig


def formatted(values):
    """Each float of ``values`` as :func:`~jswsim._rows.float_slots` writes
    it, without the "," that opens a field."""
    values = np.asarray(values, dtype=np.float64)
    slots = np.zeros((len(values), _rows.FLOAT_WORDS + 1), dtype=np.uint64)
    slots[:, -1] = ord("\n")
    _rows.float_slots(values, slots[:, :-1], _rows._Scratch(len(values)))
    text = slots.tobytes().translate(None, b"\0").decode("ascii")
    assert text.count(",") == len(values)
    return [field[1:] for field in text.splitlines()]


def assert_repr(values):
    got = formatted(values)
    want = list(map(repr, np.asarray(values, dtype=np.float64).tolist()))
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, bad[:10]
    assert len(got) == len(want)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), max_size=50))
def test_every_float_is_its_repr(values):
    assert_repr(values)


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


def test_corpus_is_repr():
    rng = np.random.default_rng(20201230)
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False)
    corpus = [
        bits.view(np.float64),
        10.0 ** rng.uniform(-4, 16, 10**5),
        2.0 ** np.arange(-20, 61),
        neighbours(10.0 ** np.arange(-5, 18)),
        2.0**53 + np.arange(-1000, 1001),
        [5e-324, 1.7976931348623157e308, 0.0, -0.0, 1e-4, 1e16],
    ]
    for values in corpus:
        assert_repr(values)
    # the bit patterns hold both signs already
    for values in corpus[1:]:
        assert_repr(-np.asarray(values))


def test_fast_range_ends_and_binade_ends():
    # every double within 500 ulps of 1e-4 and 1e16, where repr changes
    # notation, and within 30 of each power of two between: the powers are
    # the doubles whose next one below is nearer than the one above, which
    # the formatter does not tell apart
    ends = np.array([1e-4, 1e16]).view(np.int64)
    near = (ends[:, None] + np.arange(-500, 500)).ravel().view(np.float64)
    powers = (np.arange(-14, 54) + 1023) << 52
    binades = (powers[:, None] + np.arange(-30, 30)).ravel().view(np.float64)
    assert_repr(near)
    assert_repr(binades)


def test_rows_of_a_block_and_a_scratch_kept():
    # one scratch, two blocks in turn; the second one shorter. The scratch
    # holds two rows of the first block, which takes two passes.
    rng = np.random.default_rng(7)
    scratch = _rows._Scratch(2 * 300)
    for n in (300, 17):
        values = rng.exponential(1.0, (3, n))
        values[0, ::4] = 0.0
        values[1, ::5] = 3e-7
        slots = np.zeros((n, 3, _rows.FLOAT_WORDS), dtype=np.uint64)
        _rows.float_slots(values, slots.transpose(1, 0, 2), scratch)
        rows = slots.tobytes().translate(None, b"\0").decode("ascii")
        assert rows == "".join("," + ",".join(map(repr, row)) for row in values.T.tolist())


def test_int_slots_are_str():
    values = np.concatenate([np.arange(0, 10**4 + 2), [10**8 - 1, 10**8, 10**11, 10**12 - 1]])
    slots = np.zeros((len(values), 3), dtype=np.uint64)
    _rows.int_slots(values, slots)
    assert [bytes(s).replace(b"\0", b"").decode() for s in slots] == list(map(str, values))


def test_rows_text_drops_the_padding():
    rows = _rows.Rows(3, 2, 0)
    rows.put(0, b"ab")
    rows.put(9, b"c\n")
    assert rows.text(3) == b"abc\n" * 3
    # the rows past those asked for are left out, whatever they hold
    rows.bytes[2, 1:3] = np.frombuffer(b"\0x", np.uint8)
    assert rows.text(3) == b"abc\n" * 2 + b"axc\n"
    assert rows.text(2) == b"abc\n" * 2
    assert rows.text(1) == b"abc\n"


def test_a_block_is_one_pass_and_holds_only_its_text():
    # simulate at S = 2: the 3 * 4096 floats of a whole block are formatted
    # in one pass through the kept scratch, and a block, whole or not,
    # allocates no more than the text of its whole store
    rng = np.random.default_rng(3)
    columns = 4096
    rows = _rows.SimulateRows(12345, 200_000, SystemConfig(2), columns)
    assert rows.rows.scratch.lanes == 3 * columns
    for n in (columns, columns - 96, 1):
        path = np.sort(rng.exponential(2.0, (2, n)), axis=0)
        totals = path.sum(axis=0)
        rows.block(1, path, totals)  # numpy's first calls are done
        peak = traced_peak(lambda: rows.block(1 + n, path, totals))
        assert peak <= rows.rows.words.nbytes + 2**14, peak / rows.rows.words.nbytes
