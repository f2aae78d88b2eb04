"""Property-based differential fuzz of the byte-level decoder.

``tests/ipt/test_decode_bytes.py`` checks equivalence of the single-pass
byte decoder against the two-phase reference (``decode_resilient`` +
``decode_stream``) exhaustively but only for *single* faults — one
flipped byte, one truncation point.  This module drives the same oracle
with Hypothesis over compound fault patterns the exhaustive sweep cannot
reach: stacked corruptions, mid-round PSB resync points, truncated final
rounds, spliced garbage runs, and fully synthetic packet streams
(nested/stray/overflowing rounds) — both paths must agree on every
reconstructed round, every ``TraceGap`` span and reason, and on the
exact ``TraceError`` message when the stream is structurally bad.
"""

from hypothesis import given, settings, strategies as st

from repro.compiler import compile_device
from repro.errors import TraceError
from repro.ipt import Decoder
from repro.ipt.packets import (
    PSB, PSB_PATTERN, Fup, Ovf, Tip, TipPgd, TipPge, Tnt, decode_resilient,
    encode,
)

from tests.toydev import ToyLogic
from tests.ipt.test_decode_bytes import _traced_session

PROGRAM, BASE_TRACE = _traced_session(ops=3)
#: Real block addresses so synthetic rounds actually walk the program,
#: plus a couple of wild ones to hit the hijack/raise paths.
ADDRESSES = tuple(PROGRAM.addr_to_block) + (0xDEAD, 0)
#: Tight block budget keeps pathological synthetic walks cheap; both
#: paths share it, so the runaway TraceError stays symmetric.
MAX_BLOCKS = 5_000


def _assert_equivalent(data):
    try:
        parsed = decode_resilient(data)
        ref_rounds = Decoder(
            PROGRAM, max_blocks=MAX_BLOCKS).decode_stream(parsed.packets)
        ref_err = None
    except TraceError as exc:
        ref_err = str(exc)
    try:
        raw_rounds, raw_result = Decoder(
            PROGRAM, max_blocks=MAX_BLOCKS).decode_bytes(data)
        raw_err = None
    except TraceError as exc:
        raw_err = str(exc)
    assert raw_err == ref_err
    if ref_err is None:
        assert raw_rounds == ref_rounds
        assert raw_result.gaps == parsed.gaps
        # The byte path keeps only the anomaly packets.
        assert raw_result.packets == [p for p in parsed.packets
                                      if isinstance(p, (Fup, Ovf))]


# -- strategies -----------------------------------------------------------

_corruptions = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(BASE_TRACE) - 1),
              st.integers(min_value=1, max_value=255)),
    min_size=1, max_size=4)

_splices = st.lists(
    st.tuples(st.integers(min_value=0, max_value=len(BASE_TRACE)),
              st.one_of(st.just(PSB_PATTERN),          # mid-round resync
                        st.just(bytes([0x07])),        # on-the-wire OVF
                        st.binary(min_size=1, max_size=12))),
    min_size=0, max_size=3)


@st.composite
def mutated_traces(draw):
    """A real trace with stacked corruptions, splices and a truncation."""
    data = bytearray(BASE_TRACE)
    for pos, mask in draw(_corruptions):
        data[pos] ^= mask
    for pos, blob in sorted(draw(_splices), reverse=True):
        data[pos:pos] = blob
    cut = draw(st.integers(min_value=0, max_value=len(data)))
    if draw(st.booleans()):
        data = data[:cut]        # truncated final round
    return bytes(data)


_addresses = st.sampled_from(ADDRESSES)
_packets = st.one_of(
    st.builds(TipPge, _addresses),
    st.builds(TipPgd, _addresses),
    st.builds(Tip, _addresses),
    st.builds(Fup, _addresses),
    st.just(Ovf()),
    st.just(PSB()),
    st.builds(Tnt, st.lists(st.booleans(), min_size=1,
                            max_size=6).map(tuple)),
)


@st.composite
def synthetic_streams(draw):
    """Arbitrary packet soup: stray packets outside rounds, rounds that
    never close, PSBs and OVFs in the middle of rounds."""
    stream = draw(st.lists(_packets, max_size=30))
    data = encode(stream)
    if draw(st.booleans()):
        cut = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:cut]
    return data


# -- properties -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(mutated_traces())
def test_mutated_real_traces_decode_identically(data):
    _assert_equivalent(data)


@settings(max_examples=200, deadline=None)
@given(synthetic_streams())
def test_synthetic_packet_soup_decodes_identically(data):
    _assert_equivalent(data)
