"""The bulk CSV fields of jswsim._rows: every float field is the bytes of
``repr``, in the digits it finds itself (finite |x| in [1e-4, 1e16)) and in
the ``repr`` splices it takes for every other value; every step field is
``str``; and the rows of a block are those a ``repr`` join gives."""

import math

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from jswsim import _rows
from jswsim.comparison import SystemConfig


def formatted(values):
    """Each float of ``values`` as :func:`~jswsim._rows.float_slots` writes
    it, without the "," that opens a field."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    slots = np.zeros((len(values), _rows.FLOAT_WORDS), dtype=np.uint64)
    _rows.float_slots(values, slots, _rows._Scratch(len(values)))
    # a slot's last byte is left for a row's newline
    assert not slots.view(np.uint8)[:, -1].any()
    fields = [bytes(slot).replace(b"\0", b"").decode("ascii") for slot in slots]
    assert all(field.startswith(",") for field in fields)
    return [field[1:] for field in fields]


def assert_repr(values):
    got = formatted(values)
    want = list(map(repr, np.asarray(values, dtype=np.float64).reshape(-1).tolist()))
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
        # trailing zeros on both sides of the dot, and the dot in each word
        np.floor(rng.uniform(0, 1e6, 10**4)) / 10.0 ** rng.integers(0, 5, 10**4),
        10.0 ** np.arange(0, 16) * np.array([[1.0], [1.5], [9.25]]),
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
    # one Rows, two blocks in turn, the second one shorter: its scratch has
    # lanes for 2 * 300 floats, so the first block's 900 take passes, and
    # the second block's cells replace all of the first's
    rng = np.random.default_rng(7)
    rows = _rows.Rows(300, 3 * _rows.FLOAT_WORDS, 2 * 300)
    assert rows.scratch.lanes == 600
    at = rows.offsets(_rows.FLOAT_WORDS * np.arange(3))
    for n in (300, 17):
        values = rng.exponential(1.0, (n, 3))
        values[::4, 0] = 0.0
        values[::5, 1] = 3e-7
        values[::7, 2] = -0.0
        rows.floats(values, at[:n])
        text = rows.words[:n].tobytes().translate(None, b"\0").decode("ascii")
        assert text == "".join("," + ",".join(map(repr, row)) for row in values.tolist())


def steps_text(cells):
    return [bytes(cell).replace(b"\0", b"").decode("ascii") for cell in cells]


def test_step_cells_are_str():
    # consecutive steps in one block, across the counts of digits, each
    # block written twice, so that each write replaces all of another's;
    # then across a trailing axis, as the S rows of a trajectories step
    for step, n, horizon in [
        (0, 4096, 200_000),  # more digits in the horizon than in any step
        (0, 11, 10),  # a field of four bytes for steps of one and two digits
        (9_990, 20, 10**4 + 9),
        (96_000, 4096, 200_000),  # 99999 -> 100000
        (998_000, 4096, 10**6),  # 999999 -> 1000000
        (10**11 - 7, 15, 10**12),
    ]:
        digits = _rows.step_digits(horizon)
        cells = np.zeros((n, 8 * -(-digits // 8)), dtype=np.uint8)[:, -digits:]
        for start in (horizon - n + 1, step):
            _rows.write_steps(cells, start)
            assert steps_text(cells) == list(map(str, range(start, start + n)))
        lines = np.zeros((n, 3, 8 * -(-digits // 8)), dtype=np.uint8)[..., -digits:]
        _rows.write_steps(lines, step)
        for k in range(3):
            assert steps_text(lines[:, k]) == list(map(str, range(step, step + n)))


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


def test_a_simulate_row_is_at_most_19_words_at_two_servers():
    # a 10-digit seed and its "," share three words with a 6-digit step;
    # then four slots of four words: w1, w2, the total and the wait, the
    # wait's last byte the newline
    rows = _rows.SimulateRows(8_101_000_001, 200_000, SystemConfig(2), 4096)
    assert rows.rows.words.shape[1] <= 19


# Cells of a block: +0.0, which takes the constant slot, doubles within 500
# ulps of 1e-4 and 1e16, where repr changes notation, any double of the
# fast range, and values repr writes in exponent form, which are spliced.
def _near(x):
    return st.integers(-500, 500).map(lambda k: float(np.int64(np.float64(x).view(np.int64) + k).view(np.float64)))


_cells = st.one_of(
    st.just(0.0),
    _near(1e-4),
    _near(1e16),
    st.floats(1e-4, 1e16),
    st.floats(0.0, 1e-4, exclude_max=True),
    st.floats(1e16, 1e300),
)


@st.composite
def _profiles(draw, servers):
    """A block's profiles, one a column, sorted, with +0.0 for an idle
    queue: all idle, one busy, or any cells."""
    n = draw(st.integers(1, 12))
    columns = []
    for _ in range(n):
        kind = draw(st.sampled_from(["idle", "one busy", "any"]))
        profile = [0.0] * servers
        if kind == "one busy":
            profile[-1] = draw(_cells)
        elif kind == "any":
            profile = sorted(draw(st.lists(_cells, min_size=servers, max_size=servers)))
        columns.append(profile)
    return np.array(columns, dtype=np.float64).T.copy()


def simulate_reference(seed, step, blocks, rank):
    """The rows of ``blocks`` of (path, totals), from ``step`` on, joined
    from ``repr`` cells; the first row's wait is empty."""
    lines, wait = [], ""
    for path, totals in blocks:
        for profile, total in zip(path.T.tolist(), totals.tolist()):
            cells = ",".join(map(repr, [*profile, total]))
            lines.append(f"{seed},{step},{cells},{wait}\n")
            wait, step = repr(profile[rank - 1]), step + 1
    return "".join(lines)


@given(st.integers(1, 8), st.data())
def test_simulate_rows_are_repr(servers, data):
    # consecutive blocks of one seed, through one SimulateRows, for a rank
    # of every count of servers; each total is fsum's, so that a profile
    # with one busy queue, or none, has its last coordinate's bits
    rank = data.draw(st.integers(1, servers))
    seed = data.draw(st.sampled_from([0, 7, 8_101_000_001, 2**63 - 1]))
    step = data.draw(st.sampled_from([0, 1, 9_995, 99_990, 999_995]))
    blocks = [(p, np.array([math.fsum(c) for c in p.T.tolist()])) for p in data.draw(st.lists(_profiles(servers), min_size=1, max_size=3))]
    columns = max(p.shape[1] for p, _ in blocks)
    horizon = step + sum(p.shape[1] for p, _ in blocks) + data.draw(st.sampled_from([0, 10**7]))
    rows = _rows.SimulateRows(seed, horizon, SystemConfig(servers, rank), columns)
    got, at = [], step
    for path, totals in blocks:
        got.append(rows.block(at, path, totals).decode("ascii"))
        at += path.shape[1]
    assert "".join(got) == simulate_reference(seed, step, blocks, rank)


@pytest.mark.parametrize("start", [(-0.0, -0.0), (-0.0, -0.0, 2.5)])
def test_negative_zero_start_keeps_its_sign(start):
    # a start that holds -0.0: its row prints -0.0, and so does the next
    # row's wait when rank reads it; only +0.0 takes the constant cell, as
    # does the step-0 total that fsum sums to 0.0
    servers = len(start)
    path = np.array([start, [0.0] * (servers - 1) + [1.5]]).T.copy()
    totals = np.array([math.fsum(start), 1.5])
    for rank in range(1, servers + 1):
        rows = _rows.SimulateRows(1, 5, SystemConfig(servers, rank), 8)
        text = rows.block(0, path, totals).decode("ascii")
        assert text == simulate_reference(1, 0, [(path, totals)], rank)
        assert text.startswith(f"1,0,{','.join(map(repr, start))},{math.fsum(start)!r},\n")


@given(st.integers(1, 8), st.data())
def test_trajectory_rows_are_repr(servers, data):
    label = data.draw(st.sampled_from(["seed1:S1P1", "seed8101000001:S8P8"]))
    step = data.draw(st.sampled_from([0, 9_995, 999_995]))
    paths = data.draw(st.lists(_profiles(servers), min_size=1, max_size=3))
    columns = max(p.shape[1] for p in paths)
    horizon = step + sum(p.shape[1] for p in paths)
    rows = _rows.TrajectoryRows(label, servers, horizon, columns)
    got, want = [], []
    for path in paths:
        got.append(rows.block(step, path).decode("ascii"))
        for profile in path.T.tolist():
            want += [f"{step},{label},{i},{v!r}\n" for i, v in enumerate(profile, 1)]
            step += 1
    assert "".join(got) == "".join(want)
