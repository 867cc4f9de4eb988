"""The packet path's shortcuts give the same answers as the long way round.

``TcpConnection._handle_ack`` stops scanning at the first unacked segment
and ``Node.is_local`` is a set lookup; each is checked here against the
full-scan logic it replaced, written out as the reference.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.net import Network, NetworkStack
from repro.net.tcp import TcpConnection
from repro.sim import Simulator


def full_scan_ack(conn: TcpConnection, ackno: int) -> None:
    """Reference: ACK handling as two scans over every held segment."""
    if ackno <= conn._base:
        return
    sample_seq = None
    for seq in conn._segments:
        if conn._base <= seq < ackno and seq not in conn._retransmitted:
            if sample_seq is None or seq > sample_seq:
                sample_seq = seq
    if sample_seq is not None and sample_seq in conn._send_times:
        conn._rtt_sample(conn.sim.now - conn._send_times[sample_seq])
    for seq in [s for s in conn._segments if s < ackno]:
        conn.bytes_acked += conn._segments[seq][0]
        del conn._segments[seq]
        conn._send_times.pop(seq, None)
        conn._retransmitted.discard(seq)
    conn._base = ackno


def _conn(sim: Simulator) -> TcpConnection:
    net = Network(sim)
    a, b = net.add_host("a"), net.add_host("b")
    net.connect(a, b)
    net.build_routes()
    return TcpConnection(NetworkStack(sim, a, net).tcp, 5000, b.addr, 80)


def _fill(conn: TcpConnection, sizes, retransmitted) -> None:
    """Hold a window of segments the way ``_pump`` does: ascending seqs,
    each stamped with a distinct send time; ``retransmitted`` indexes the
    segments that were sent again."""
    seq = 0
    for i, nbytes in enumerate(sizes):
        conn._segments[seq] = (nbytes, ("DATA", None, False, 0))
        conn._send_times[seq] = 0.01 * i
        if i in retransmitted:
            conn._retransmitted.add(seq)
        seq += nbytes
    conn._next_seq = seq


def _state(conn: TcpConnection):
    return (conn.bytes_acked, conn._srtt, conn._rttvar, conn.rto, conn._base,
            list(conn._segments.items()), dict(conn._send_times),
            set(conn._retransmitted))


def _replay(sizes, retransmitted, acks):
    """Run ``acks`` through the real and the reference handler, in two
    identical worlds, comparing the state after each ACK."""
    worlds = []
    for handle in (TcpConnection._handle_ack, full_scan_ack):
        sim = Simulator()
        conn = _conn(sim)
        _fill(conn, sizes, retransmitted)
        worlds.append((sim, conn, handle))
    states = []
    for k, ackno in enumerate(acks):
        after = []
        for sim, conn, handle in worlds:
            sim.run(until=0.5 + 0.1 * k)
            handle(conn, ackno)
            after.append(_state(conn))
        assert after[0] == after[1], f"diverged at ack {ackno}"
        states.append(after[0])
    return states


class TestAckRetirement:
    def test_retransmit_then_partial_then_cumulative(self):
        sizes = [1000] * 5  # seqs 0, 1000, 2000, 3000, 4000
        # seq 1000 was retransmitted: the partial ACK 2000 samples seq 0
        states = _replay(sizes, retransmitted={1}, acks=[2000, 1500, 5000])
        acked, srtt, _, rto, base, segments, send_times, rexmit = states[0]
        assert (acked, base) == (2000, 2000)
        # sampled seq 0 (sent at t=0, acked at t=0.5), not retransmitted 1000
        assert (srtt, rto) == (0.5, 0.5 + 4 * 0.25)
        assert [seq for seq, _ in segments] == [2000, 3000, 4000]
        assert sorted(send_times) == [2000, 3000, 4000]
        assert rexmit == set()
        # a stale ACK below the base changes nothing
        assert states[1] == states[0]
        acked, srtt, _, rto, base, segments, send_times, _ = states[2]
        assert (acked, base, segments, send_times) == (5000, 5000, [], {})
        assert srtt != states[0][1] and rto >= 0.05

    def test_ack_mid_segment_retires_only_whole_segments_below(self):
        # a cumulative ACK inside a segment (ackno not on a boundary)
        states = _replay([500, 700, 900], retransmitted=set(), acks=[800])
        assert [seq for seq, _ in states[0][5]] == [1200]
        assert states[0][0] == 1200

    @given(st.lists(st.integers(min_value=1, max_value=3000),
                    min_size=1, max_size=12),
           st.sets(st.integers(min_value=0, max_value=11)),
           st.lists(st.integers(min_value=0, max_value=40_000),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_full_scan(self, sizes, retransmitted, acks):
        _replay(sizes, retransmitted, sorted(acks))


class TestIsLocal:
    def test_router_with_several_nics(self):
        net = Network(Simulator())
        router = net.add_router("r")
        hosts = [net.add_host(f"h{i}") for i in range(3)]
        for h in hosts:
            net.connect(h, router)
        assert len(router.nics) == 3
        every = [nic.addr for node in (router, *hosts) for nic in node.nics]
        for node in (router, *hosts):
            for addr in every + ["10.9.9.9"]:
                assert node.is_local(addr) == any(
                    nic.addr == addr for nic in node.nics), (node.name, addr)
        assert all(router.is_local(addr) for addr in router.addresses)
