"""The RocksDB seek path (§3.4, §5.2) against brute force.

The LeCo index compares ``(min-padded integer, length)`` order keys instead
of strings; these tests pin the order claim that makes that exact, the
index's answers against a restart interval of 1 (every key stored in full),
and the raw data-block read against a scan of the entries.
"""
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.string_codec import StringLeCo
from repro.rocksdb_sim.index import LeCoIndex, RestartIndex
from repro.rocksdb_sim.sstable import IndexEntry, block_get, build_sstable


@st.composite
def charset_strings(draw):
    alphabet = draw(st.text(min_size=1, max_size=10))
    return draw(st.lists(st.text(alphabet, max_size=10), min_size=1, max_size=60))


@given(strings=charset_strings(), pow2=st.booleans())
@settings(max_examples=300, deadline=None)
def test_order_key_is_lexicographic_order(strings, pow2):
    """Within one partition, sorting by ``mapped_value`` sorts the strings,
    and a stored string's ``map_query`` is its ``mapped_value``."""
    codec = StringLeCo(partition_len=len(strings), pow2_base=pow2)
    enc = codec.encode(strings)
    keys = [codec.mapped_value(enc, i) for i in range(len(strings))]
    by_key = [s for _, s in sorted(zip(keys, strings))]
    assert by_key == sorted(strings)
    assert [codec.map_query(enc.partitions[0], s) for s in strings] == keys


@st.composite
def key_sets(draw):
    """Sorted distinct byte keys over a small alphabet, with shared prefixes
    and keys that are prefixes of other keys, plus queries that are stored
    keys, extensions and truncations of them, out-of-charset, longer than any
    key, empty and past the last key."""
    alphabet = draw(st.lists(st.integers(0, 255), min_size=2, max_size=10, unique=True))
    word = st.lists(st.sampled_from(alphabet), max_size=8).map(bytes)
    keys = draw(st.lists(word, min_size=1, max_size=150))
    keys += [k + draw(word) for k in draw(st.lists(st.sampled_from(keys), max_size=30))]
    keys = sorted(set(keys))
    stored = st.sampled_from(keys)
    queries = draw(st.lists(st.one_of(
        stored,
        st.tuples(stored, st.binary(max_size=3)).map(lambda t: t[0] + t[1]),
        st.tuples(stored, st.integers(0, 8)).map(lambda t: t[0][: t[1]]),
        st.binary(max_size=10),
        st.tuples(stored, st.binary(min_size=12, max_size=20)).map(lambda t: t[0] + t[1]),
    ), max_size=60))
    return keys, queries + [b"", keys[-1] + b"\x00", max(keys[-1], bytes([alphabet[-1]])) + b"\xff"]


@given(ks=key_sets(), partition_len=st.sampled_from([4, 16, 64]))
@example(ks=([], [b"", b"a", b"\xff" * 12]), partition_len=4)  # the empty key set
@settings(max_examples=300, deadline=None)
def test_leco_seek_equals_full_key_index(ks, partition_len):
    keys, queries = ks
    sizes = [100 - i % 7 for i in range(len(keys))]  # blocks lie back to back
    entries = [IndexEntry(k, sum(sizes[:i]), sizes[i]) for i, k in enumerate(keys)]
    leco, full = LeCoIndex(entries, partition_len), RestartIndex(entries, 1)
    for q in queries:
        assert leco.seek(q) == full.seek(q), q


@given(
    items=st.dictionaries(st.binary(min_size=1, max_size=24), st.binary(max_size=40), min_size=1, max_size=40),
    absent=st.lists(st.binary(max_size=24), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_block_get_equals_scan(items, absent):
    items = sorted(items.items())
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.sst")
        (entry,) = build_sstable(path, items, block_size=1 << 20)
        with open(path, "rb") as f:
            blob = f.read()
    assert (entry.offset, entry.size) == (0, len(blob))
    lookup = dict(items)
    first, last = items[0][0], items[-1][0]
    for q in [k for k, _ in items] + absent + [first[:-1], b"", last + b"\x00", last + b"\xff"]:
        assert block_get(blob, q) == lookup.get(q), q
