"""Closed-loop NDJSON load generator: at most four connections, one thread.

Each connection holds at most one request in flight and sends its next
request only after the reply to the previous one has arrived, so a slower
server receives proportionally less load and no queue builds up behind
the generator. All connections are multiplexed with a selector from the
calling thread; the generator never starts a thread of its own.
"""

import gc
import selectors
import socket
import time

MAX_CONNECTIONS = 4


class Completion:
    __slots__ = ("tag", "line", "sent_ns", "recv_ns", "reply")

    def __init__(self, tag, line, sent_ns, recv_ns, reply):
        self.tag = tag
        self.line = line
        self.sent_ns = sent_ns
        self.recv_ns = recv_ns
        self.reply = reply

    @property
    def round_trip_ms(self):
        return (self.recv_ns - self.sent_ns) / 1e6


class ClosedLoop:
    """Drives `connections` sockets to host:port from the calling thread."""

    def __init__(self, host, port, connections=MAX_CONNECTIONS, timeout_s=60):
        if not 1 <= connections <= MAX_CONNECTIONS:
            raise ValueError("connections must be 1..%d" % MAX_CONNECTIONS)
        self.timeout_s = timeout_s
        self._selector = selectors.DefaultSelector()
        self._conns = []
        try:
            for index in range(connections):
                sock = socket.create_connection((host, port), timeout=timeout_s)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.setblocking(False)
                conn = _Conn(index, sock)
                self._conns.append(conn)
                self._selector.register(sock, selectors.EVENT_READ, conn)
        except BaseException:
            self.close()
            raise

    @property
    def connections(self):
        return len(self._conns)

    def close(self):
        for conn in self._conns:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError):
                pass
            conn.sock.close()
        self._conns = []
        self._selector.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def run(self, source, stop=None):
        """Sends (tag, line) items from the iterator `source`, one in flight
        per connection, until `source` is exhausted or stop(now_ns) turns
        true; then waits for every outstanding reply. Returns the
        completions in reply order. The garbage collector is paused while
        requests are in flight, so its pauses never land inside a timed
        round trip."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._run(source, stop)
        finally:
            if was_enabled:
                gc.enable()

    def _run(self, source, stop):
        done = []
        idle = list(self._conns)
        exhausted = False
        in_flight = 0
        deadline = time.monotonic() + self.timeout_s
        while True:
            while idle and not exhausted:
                now = time.perf_counter_ns()
                if stop is not None and stop(now):
                    exhausted = True
                    break
                item = next(source, None)
                if item is None:
                    exhausted = True
                    break
                conn = idle.pop()
                conn.send(item, now)
                in_flight += 1
            if in_flight == 0:
                return done
            events = self._selector.select(timeout=1.0)
            if not events and time.monotonic() > deadline:
                raise TimeoutError("no reply within %ss" % self.timeout_s)
            for key, _ in events:
                conn = key.data
                completion = conn.receive()
                if completion is not None:
                    deadline = time.monotonic() + self.timeout_s
                    in_flight -= 1
                    done.append(completion)
                    idle.append(conn)

    def request(self, line, tag=None):
        """One request, waited for; returns its Completion."""
        return self.run(iter([(tag, line)]))[0]


class _Conn:
    def __init__(self, index, sock):
        self.index = index
        self.sock = sock
        self.buffer = bytearray()
        self.pending = None

    def send(self, item, now_ns):
        tag, line = item
        self.pending = (tag, line, now_ns)
        # One short line per idle connection never fills the socket send
        # buffer, so sendall on the non-blocking socket completes at once.
        self.sock.sendall(line + b"\n")

    def receive(self):
        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return None
        if not chunk:
            raise ConnectionError("server closed connection %d" % self.index)
        self.buffer += chunk
        newline = self.buffer.find(b"\n")
        if newline < 0:
            return None
        recv_ns = time.perf_counter_ns()
        if self.pending is None or newline != len(self.buffer) - 1:
            raise ConnectionError("unexpected reply framing on connection %d"
                                  % self.index)
        reply = bytes(self.buffer[:newline])
        del self.buffer[:]
        tag, line, sent_ns = self.pending
        self.pending = None
        return Completion(tag, line, sent_ns, recv_ns, reply)
