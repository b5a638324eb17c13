from dagrepl.broadcast import BroadcastMessage, ReliableBroadcast
from dagrepl.dag import Command, EPSILON


def make_msg(issuer=1, seq=1):
    return BroadcastMessage(Command(("push", seq), issuer, seq),
                            frozenset({EPSILON}))


class Net:
    """Synchronous in-memory transport."""

    def __init__(self, ids):
        self.ids = ids
        self.sent = []          # (src, dst, msg)
        self.delivered = []     # (rid, msg)
        self.rb = ReliableBroadcast(
            ids, self.send, lambda rid, m: self.delivered.append((rid, m)))
        self.queue = []

    def send(self, src, dsts, msg):
        for dst in dsts:
            self.sent.append((src, dst, msg))
            self.queue.append((dst, msg))

    def flush(self):
        while self.queue:
            dst, msg = self.queue.pop(0)
            self.rb.on_receive(dst, msg)


def test_everyone_delivers_once():
    net = Net([1, 2, 3])
    net.rb.r_broadcast(1, make_msg())
    net.flush()
    assert sorted(net.delivered) == [(2, make_msg()), (3, make_msg())]


def test_dedup_suppresses_forward_storm():
    net = Net([1, 2, 3, 4])
    net.rb.r_broadcast(1, make_msg())
    net.flush()
    # Each replica delivers exactly once despite n-1 forwarded copies.
    assert sorted(rid for rid, _ in net.delivered) == [2, 3, 4]
    # Sends bounded by n^2: originator n-1, each receiver forwards n-1 on
    # first receipt only.
    n = 4
    assert len(net.sent) <= n * n


def test_forward_before_deliver():
    order = []
    rb = ReliableBroadcast(
        [1, 2, 3],
        lambda s, dsts, m: order.extend(("send", s, d) for d in dsts),
        lambda rid, m: order.append(("deliver", rid)))
    rb.r_broadcast(1, make_msg())
    order.clear()
    rb.on_receive(2, make_msg())
    assert order == [("send", 2, 1), ("send", 2, 3), ("deliver", 2)]


def test_relay_covers_for_crashed_origin():
    # Origin 1 reaches only replica 2 before its remaining copies are
    # lost; 2's forwarding still gets the message to 3.
    net = Net([1, 2, 3])
    net.rb.r_broadcast(1, make_msg())
    # Drop the direct 1 -> 3 copy, keep everything forwarded later.
    direct = [(dst, msg) for dst, msg in net.queue if dst == 2]
    net.queue = direct
    net.flush()
    assert (3, make_msg()) in net.delivered


def test_distinct_uids_not_confused():
    net = Net([1, 2])
    net.rb.r_broadcast(1, make_msg(1, 1))
    net.rb.r_broadcast(1, make_msg(1, 2))
    net.flush()
    assert len(net.delivered) == 2

