"""Philox streams of a campaign's samples, drawn from their raw words.

Sample i of a campaign at seed s draws from a counter-based stream of its
own, stream(s, i).  A block of such streams is a Words, a row each
(Streams.many).  Each row fetches, in one random_raw call, the raw words a
draw takes, and a method's variates are computed from the words in numpy
over many rows at once, as numpy's C code does: random() from a word's top
53 bits, integers for a size n by Lemire's method on a 32-bit half, the
other half pending for the next integers as numpy's has_uint32 keeps it,
and the standard exponentials or normals by the ziggurat's one-word fast
path, its tables read off numpy on first use (_ziggurat).  A row whose
value needs numpy's slower path, or whose Lemire draw numpy may reject,
draws that value by numpy's own method on its generator placed at the
row's word cursor, and a row that runs out of words fetches more.  A row's
draws are numpy's, bit for bit, and Words.leave places each generator
where numpy's own calls would have left it.
"""

from __future__ import annotations

import functools
import struct

import numpy as np
from numpy.random import Generator, Philox


def stream(seed: int, index: int) -> Generator:
    """Independent counter-based stream for sample `index`."""
    return Generator(Philox(key=seed, counter=index << 128))


_MASK32, _MASK64 = 2 ** 32 - 1, 2 ** 64 - 1
_COUNTER_MASK = 2 ** 256 - 1
_COUNTER_WORDS = struct.Struct("<4Q")  # a counter's words, low word first
# a ziggurat word's fields: (key shift, key mask, magnitude shift, magnitude
# bits).  standard_normal's key is the layer's byte and the sign bit above
# it, standard_exponential's the layer's byte at bit 3
_ZIGGURAT_WORDS = {"standard_normal": (0, 0x1FF, 9, 52),
                   "standard_exponential": (3, 0xFF, 11, 53)}


def _counter(words: np.ndarray) -> int:
    """A Philox counter's four words as one 256-bit integer."""
    w0, w1, w2, w3 = words.tolist()
    return w0 | w1 << 64 | w2 << 128 | w3 << 192


def _one_word(gen: Generator, method: str, words: list):
    """The values of numpy's method for Philox buffer ``words`` (at key and
    counter 0), and whether numpy took each from its own word and no
    other."""
    bits = gen.bit_generator
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": [0] * 4, "key": [0] * 2},
                  "buffer": words + [0] * (4 - len(words)), "buffer_pos": 0,
                  "has_uint32": 0, "uinteger": 0}
    values = getattr(gen, method)(len(words))
    after = bits.state
    once = after["buffer_pos"] == len(words) \
        and not after["state"]["counter"].any()
    if once or len(words) == 1:
        return values, np.full(len(words), once)
    singles = [_one_word(gen, method, [w]) for w in words]
    return (np.concatenate([v for v, _ in singles]),
            np.concatenate([t for _, t in singles]))


@functools.lru_cache(maxsize=None)
def _ziggurat(method: str) -> np.ndarray:
    """numpy's ziggurat for standard_normal or standard_exponential, read
    off numpy on first use, as a table keyed by a word's layer idx (for
    standard_normal, its sign bit above the layer's byte): a word of
    magnitude m takes numpy's one-word path, m * table[key, 0], when m <
    table[key, 1] (a bound of 0 trusts no word of the layer).

    A word of magnitude 1 gives the layer's width.  numpy's own bound sits
    within a few units of 2**bits * width[idx - 1] / width[idx]; the bound
    is that estimate less 8, kept only where a word of magnitude bound - 1
    is seen to take the one-word path, which every smaller magnitude then
    takes too.  Four words go to a Philox state at a time.
    """
    key_shift, _, m_shift, bits = _ZIGGURAT_WORDS[method]
    gen, idx = Generator(Philox(key=0)), np.arange(256, dtype=np.uint64)

    def probe(ms):
        words = idx << key_shift | ms << m_shift
        out = [_one_word(gen, method, batch)
               for batch in words.reshape(-1, 4).tolist()]
        return (np.concatenate([v for v, _ in out]),
                np.concatenate([t for _, t in out]))
    widths, trusted = probe(np.uint64(1))
    with np.errstate(all="ignore"):
        estimate = np.floor(2.0 ** bits * np.roll(widths, 1) / widths) - 8
    bounds = np.clip(np.nan_to_num(estimate), 1, 2 ** bits).astype(np.uint64)
    _, fast = probe(bounds - np.uint64(1))
    bounds[~(trusted & fast)] = 0
    table = np.stack([widths, bounds.astype(float)], 1)  # exact below 2**53
    if method == "standard_normal":  # a set sign bit negates the value
        table = np.concatenate([table, table * [-1.0, 1.0]])
    table.flags.writeable = False
    return table


def _ziggurat_words(method: str, w: np.ndarray):
    """method's one-word values of words w, and where they are numpy's."""
    key_shift, key_mask, m_shift, bits = _ZIGGURAT_WORDS[method]
    table = _ziggurat(method)
    key = (w >> key_shift & key_mask).astype(np.intp)
    m = (w >> m_shift & (2 ** bits - 1)).astype(float)
    return m * table[key, 0], m < table[key, 1]


class Words:
    """The raw Philox words of a block of streams, one row each, and where
    each row's draws stand in them.

    Row k holds the words of its stream in blocks of four from column 0,
    block b made by counter origin[k] + dropped[k] + b, and its next word
    is the one at ``cur[k]``; ``half[k]`` is the high half of the last word
    an integers draw cut in two, pending while ``has[k]`` (numpy's
    uinteger and has_uint32).  Its generator, gens[k], sits at column
    ``have[k]``, past the words fetched so far.  A row that needs more
    fetches them with random_raw, and a value numpy draws from more than
    one word is drawn by numpy's own method on the generator placed at the
    row's cursor, the words it used read back from the state it leaves.  A
    row's draws are those numpy's calls make from its stream, bit for bit,
    and ``state(k)`` is the state they leave.
    """

    def __init__(self, gens: list, keys: list, origin: list,
                 buffers: np.ndarray, cur, has, half):
        self.gens, self.keys, self.origin = gens, keys, origin
        self.size = len(gens)
        self.words = buffers
        self.cur = np.array(cur, dtype=np.int64)
        self.have = self.cur.copy()
        self.dropped = np.zeros(self.size, dtype=np.int64)
        self.has = np.array(has, dtype=bool)
        self.half = np.array(half, dtype=np.uint64)

    @classmethod
    def of(cls, gens: list) -> "Words":
        """The words of Philox generators from their current states, a
        pending half included; any other bit generator is a TypeError."""
        states = [gen.bit_generator.state for gen in gens]
        if any(s["bit_generator"] != "Philox" for s in states):
            raise TypeError("a draw reads the words of a Philox generator")
        return cls(gens, [s["state"]["key"].tolist() for s in states],
                   [_counter(s["state"]["counter"]) for s in states],
                   np.array([s["buffer"] for s in states], dtype=np.uint64),
                   [s["buffer_pos"] for s in states],
                   [s["has_uint32"] for s in states],
                   [s["uinteger"] for s in states])

    def _block0(self, k: int) -> int:
        return self.origin[k] + self.dropped.item(k)

    def state(self, k: int) -> dict:
        """The Philox state of row k at its cursor, as numpy leaves it."""
        at = self.cur.item(k)
        block = max(at - 1, 0) // 4
        counter = (self._block0(k) + block) & _COUNTER_MASK
        return {"bit_generator": "Philox",
                "state": {"counter": list(_COUNTER_WORDS.unpack(
                              counter.to_bytes(32, "little"))),
                          "key": self.keys[k]},
                "buffer": self.words[k, 4 * block:4 * block + 4].tolist(),
                "buffer_pos": at - 4 * block,
                "has_uint32": int(self.has.item(k)),
                "uinteger": self.half.item(k)}

    def leave(self) -> None:
        """Place each row's generator where the row's draws left it."""
        for k, gen in enumerate(self.gens):
            gen.bit_generator.state = self.state(k)

    def _widen(self, width: int) -> None:
        extra = width - self.words.shape[1]
        if extra > 0:
            self.words = np.concatenate(
                [self.words, np.zeros((self.size, extra), np.uint64)], 1)

    def reserve(self, ks: np.ndarray, counts):
        """Fetch words so that each row ks holds counts of them past its
        cursor; returns the rows' cursors and the columns counts more words
        would leave them at."""
        start = self.cur[ks]
        end = start + counts
        short = end > self.have[ks]
        if np.count_nonzero(short):
            self._fetch(ks[short], end[short])
            start = self.cur[ks]
            end = start + counts
        return start, end

    def _fetch(self, ks: np.ndarray, need: np.ndarray) -> None:
        """Fetch the words of rows ks up to column need[i], and on to the
        end of its block of four; a row first drops the blocks before the
        one its cursor's last word is in."""
        drop = np.maximum(self.cur[ks] - 1, 0) // 4 * 4
        if drop.any():
            width = self.words.shape[1]
            self.words[ks] = self.words[ks[:, None], np.minimum(
                drop[:, None] + np.arange(width), width - 1)]
            self.cur[ks] -= drop
            self.have[ks] -= drop
            self.dropped[ks] += drop // 4
            need = need - drop
        end = -(-need // 4) * 4
        self._widen(int(end.max()))
        for k, h, e in zip(ks.tolist(), self.have[ks].tolist(), end.tolist()):
            self.words[k, h:e] = self.gens[k].bit_generator.random_raw(e - h)
        self.have[ks] = end

    def numpy(self, k: int, method: str, *args):
        """numpy's own method on row k, from the row's generator placed at
        its cursor; the cursor, half and words are read back from the state
        it leaves, and the generator stays there."""
        bits = self.gens[k].bit_generator
        bits.state = self.state(k)
        out = getattr(self.gens[k], method)(*args)
        after = bits.state
        col = 4 * ((_counter(after["state"]["counter"]) - self._block0(k))
                   & _COUNTER_MASK)
        self._widen(col + 4)
        self.words[k, col:col + 4] = after["buffer"]
        self.cur[k] = self.have[k] = col + after["buffer_pos"]
        self.has[k], self.half[k] = after["has_uint32"], after["uinteger"]
        return out

    def integers(self, ks: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Each row's integers(lo, hi + 1), by numpy's Lemire method on a
        32-bit half: the pending half, else a word's low half, whose high
        half is then pending.  A range of one uses no word.  numpy may
        reject a leftover below the range: such a row draws by numpy's own
        method.  falsify caps the sizes (N_CAP, DIM_CAP), so the range fits
        numpy's 32-bit path."""
        span = hi - lo + 1
        if span == 1:
            return np.full(ks.size, lo, dtype=np.int64)
        start, _ = self.reserve(ks, 1)
        word, fresh = self.words[ks, start], ~self.has[ks]
        m = np.where(fresh, word & _MASK32, self.half[ks]) * span
        ok = (m & _MASK32) >= span
        cut = ok & fresh
        self.cur[ks[cut]] += 1
        self.half[ks[cut]] = word[cut] >> 32
        self.has[ks[ok]] = fresh[ok]
        out = (m >> 32).astype(np.int64) + lo
        for i in np.flatnonzero(~ok).tolist():
            out[i] = self.numpy(int(ks[i]), "integers", lo, hi + 1)
        return out

    def take(self, ks: np.ndarray, counts, method: str) -> np.ndarray:
        """A (rows ks, most counts) array whose row i starts with the
        counts[i] values method(counts[i]) of numpy draws for the row
        (counts: an int for every row, or an array): random,
        standard_normal or standard_exponential, each value from its own
        word but for a row where one takes numpy's slower path, which draws
        by numpy's own method."""
        start, end = self.reserve(ks, counts)
        self.cur[ks] = end
        # a shorter row reads past its words, at most to the last
        at = start[:, None] + np.arange(int(np.max(counts, initial=0)))
        w = self.words[ks[:, None], np.minimum(at, self.words.shape[1] - 1)]
        if method == "random":  # the top 53 bits over 2**53
            return (w >> 11) * 2.0 ** -53
        values, fast = _ziggurat_words(method, w)
        for i in np.flatnonzero((~fast & (at < end[:, None])).any(1)).tolist():
            k, n = int(ks[i]), int(end[i] - start[i])
            self.cur[k] = start[i]
            values[i, :n] = self.numpy(k, method, n)
        return values


class Streams:
    """The streams of stream from the process's pool of generators, as the
    rows of a block's Words.

    Resetting a Philox state to (key=seed, counter=index << 128) with an
    empty buffer yields the same words as a new Philox and costs a tenth
    as much: the state holds Python ints, which the setter reads faster
    than numpy's.  The pool is one per process, shared by every Streams and
    grown to the largest block drawn so far, so a chunk or a block
    constructs no generator once a block as large was drawn (a worker
    process builds its own).  A row fetches its words with one random_raw
    call, and its generator stays at the end of what it fetched.
    """

    _pool: list = []  # the generators of ``many``, for the process

    def __init__(self, seed: int):
        # Philox(key=seed).state: counter 0, buffer empty; the key's low
        # and high 64 bits
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0] * 4,
                                 "key": [seed & _MASK64, seed >> 64]},
                       "buffer": [0] * 4, "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        self._counter = self._state["state"]["counter"]

    def many(self, indices) -> Words:
        """The words of the streams ``indices``, each at its start, a row
        each and none fetched yet.  Each row's generator is a Philox of
        its own, taken from the process's pool: the Words is valid until
        the next call of ``many`` on any Streams, which resets them."""
        pool, n = Streams._pool, len(indices)
        while len(pool) < n:
            pool.append(Generator(Philox(key=0)))  # state set below
        gens = pool[:n]
        for rng, index in zip(gens, indices):
            self._counter[2] = index  # the setter copies the state
            rng.bit_generator.state = self._state
        return Words(gens, [self._state["state"]["key"]] * n,
                      [index << 128 for index in indices],
                      np.zeros((n, 4), dtype=np.uint64), np.full(n, 4),
                      np.zeros(n), np.zeros(n))
