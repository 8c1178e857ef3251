"""Philox streams: raw-word draws against numpy's own methods."""

import os
import subprocess
import sys

import numpy as np
import pytest

from hconvexlab import streams
from hconvexlab.streams import Words, stream


def _crafted(buffer, seed=5, **state):
    """A Philox generator whose next words are ``buffer`` (four), then its
    stream at counter 1; ``state`` sets other fields of its state."""
    rng = stream(seed, 0)
    rng.bit_generator.state = {**rng.bit_generator.state, "buffer_pos": 0,
                               "buffer": np.array(buffer, dtype=np.uint64),
                               **state}
    return rng


def _words_against_numpy(make, ops):
    """Each op on the rows of Words.of(make()) at once, and by numpy's own
    method on each generator of a second make(): the values bit for bit,
    and the states the draws leave."""
    ours, theirs = make(), make()
    words, ks = Words.of(ours), np.arange(len(ours))
    words.reserve(ks, 8)  # a draw's first fetch; the ops need more
    for op in ops:
        if op[0] == "integers":
            got = words.integers(ks, op[1], op[2])
            want = [int(rng.integers(op[1], op[2] + 1)) for rng in theirs]
            assert got.tolist() == want, op
            continue
        counts = np.broadcast_to(op[1], ks.shape)
        got = words.take(ks, op[1], op[0])
        for i, (rng, n) in enumerate(zip(theirs, counts.tolist())):
            assert got[i, :n].tobytes() == getattr(rng, op[0])(n).tobytes(), \
                (op, i)
    words.leave()
    assert [repr(rng.bit_generator.state) for rng in ours] \
        == [repr(rng.bit_generator.state) for rng in theirs]


def test_word_draws_match_numpy_bit_for_bit():
    # the words' conversions against numpy's methods, on 3000 streams side
    # by side (which run past the words first fetched, and take numpy's
    # slower paths now and then) and on crafted Philox buffers
    _words_against_numpy(lambda: [stream(41, i) for i in range(3000)], [
        ("integers", 2, 5), ("random", 1), ("standard_normal", 9),
        ("integers", 3, 3), ("standard_exponential", np.arange(3000) % 9 + 1),
        ("random", np.arange(3000) % 4 + 1), ("integers", 0, 2),
        ("integers", 1, 64), ("standard_normal", np.arange(3000) % 40 + 1),
        ("standard_exponential", 30), ("integers", 2, 8)])
    normal = streams._ziggurat("standard_normal")[:, 1].astype(np.uint64)
    expo = streams._ziggurat("standard_exponential")[:, 1].astype(np.uint64)
    assert normal[1] == expo[1] == 0 and (normal[2:256] > 0).all() \
        and (expo[2:] > 0).all()
    # layers 0 (the tail), 1 (no one-word path) and others, at magnitudes
    # just below and at the bound, and at the largest
    rows = []
    for idx in (0, 1, 2, 3, 100, 255):
        for m in (max(int(normal[idx]) - 1, 0), int(normal[idx]),
                  2 ** 52 - 1):
            rows.append(("standard_normal", [
                idx | m << 9, idx | 1 << 8 | m << 9, idx | 1 << 9, 7]))
        for m in (max(int(expo[idx]) - 1, 0), int(expo[idx]), 2 ** 53 - 1):
            rows.append(("standard_exponential",
                         [idx << 3 | m << 11, idx << 3 | 1 << 11, 9, 3]))
    for method in ("standard_normal", "standard_exponential"):
        buffers = [b for name, b in rows if name == method]
        _words_against_numpy(lambda: [_crafted(b) for b in buffers],
                             [(method, 2), (method, 5), ("random", 1)])
    # a low half of 0: integers(0, 3) keeps it (numpy's threshold is 0) and
    # integers(0, 2) rejects it and reads the high half; a range of one
    # uses no word; a half pending in the state is read first; the high
    # half waits through random and the normals for the next integers
    lemire = [[5 << 32, 1, 2, 3], [0, 1, 2, 3], [6 << 32 | 1, 2, 3, 4]]
    for lo, hi in ((0, 3), (0, 2)):
        _words_against_numpy(lambda: [_crafted(b) for b in lemire], [
            ("integers", lo, hi), ("integers", 4, 4), ("random", 1),
            ("integers", lo, hi), ("standard_normal", 2),
            ("integers", lo, hi), ("integers", lo, hi)])
    _words_against_numpy(
        lambda: [_crafted([1, 2, 3, 4], buffer_pos=3, has_uint32=1,
                          uinteger=12345), _crafted([1, 2, 3, 4])],
        [("integers", 2, 5), ("integers", 2, 5), ("standard_normal", 11),
         ("integers", 7, 7), ("random", 2), ("integers", 2, 5)])
    # any other bit generator is refused
    with pytest.raises(TypeError):
        Words.of([np.random.Generator(np.random.PCG64(1))])


def test_streams_and_enclosure_load_neither_falsify_nor_mpmath():
    # both are leaves that other lab modules import: a fresh interpreter
    # that imports them loads no campaign code and no 60-digit arithmetic
    code = ("import sys, hconvexlab.streams, hconvexlab.enclosure; "
            "print(sorted({'hconvexlab.falsify', 'mpmath'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout == "[]\n"
