"""Tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import socketserver
import threading
import time
import unittest

import loadgen
import measure
import run


def proc_stat(comm, utime, stime):
    # Fields 3..13 as a real /proc/<pid>/stat line has them, then utime
    # (14), stime (15) and the rest.
    return ("4242 (%s) S 1 4242 4242 0 -1 4194560 100 0 0 0 %d %d 0 0 20 0 "
            "3 0 1000 1000000 250 18446744073709551615\n"
            % (comm, utime, stime))


def host_stat(user, idle, steal):
    return ("cpu  %d 0 0 %d 0 0 0 %d 0 0\ncpu0 1 0 0 1 0 0 0 0 0 0\n"
            % (user, idle, steal))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_count(self):
        p = measure.Percentile([5, 1, 4, 2, 3], 0.5)
        self.assertEqual(p.value, 3)
        self.assertEqual(p.count, 5)
        self.assertEqual(p.rank, 3)
        self.assertEqual(p.beyond, 2)

    def test_p99_needs_ten_samples_beyond(self):
        short = measure.Percentile(range(999), 0.99)
        self.assertEqual(short.beyond, 9)
        self.assertFalse(short.reportable)
        self.assertIsNone(measure.percentile(range(999), 0.99))
        enough = measure.Percentile(range(1000), 0.99)
        self.assertEqual(enough.beyond, 10)
        self.assertTrue(enough.reportable)
        self.assertEqual(enough.value, 989)
        self.assertEqual(enough.count, 1000)

    def test_median_reportable_from_twenty_samples(self):
        self.assertIsNone(measure.percentile(range(19), 0.5))
        self.assertEqual(measure.percentile(range(20), 0.5), 9)

    def test_empty_and_bad_quantile(self):
        self.assertFalse(measure.Percentile([], 0.5).reportable)
        with self.assertRaises(ValueError):
            measure.Percentile([1], 1.0)


class ProcStatTest(unittest.TestCase):
    def test_cpu_ticks_skip_parenthesised_name(self):
        text = proc_stat("net out) (x", 120, 30)
        self.assertEqual(measure.parse_proc_stat_cpu_ticks(text), 150)

    def test_cpu_delta_ms(self):
        before = proc_stat("netout_serve", 100, 50)
        after = proc_stat("netout_serve", 340, 60)
        self.assertEqual(measure.cpu_delta_ms(before, after, 100), 2500.0)
        with self.assertRaises(ValueError):
            measure.cpu_delta_ms(after, before, 100)

    def test_steal_share(self):
        before = host_stat(100, 300, 0)
        after = host_stat(160, 330, 10)
        self.assertAlmostEqual(measure.steal_share(before, after), 0.1)
        self.assertEqual(measure.steal_share(before, before), 0.0)


class OpAccountTest(unittest.TestCase):
    def test_attempted_is_ok_plus_failed(self):
        account = measure.OpAccount()
        for i in range(7):
            account.record("query", i != 3)
        account.record("add_edge", True)
        account.record("probe", False)
        for op in (None, "query", "add_edge", "probe", "absent"):
            self.assertEqual(account.attempted(op),
                             account.ok(op) + account.failed(op))
        self.assertEqual(account.attempted(), 9)
        self.assertEqual(account.failed(), 2)
        self.assertEqual(account.as_dict()["query"],
                         {"attempted": 7, "ok": 6, "failed": 1})


class Done:
    def __init__(self, recv_ns):
        self.recv_ns = recv_ns


class QuietBinTest(unittest.TestCase):
    def samples(self, steals):
        out = []
        stolen = 0
        for i in range(len(steals) + 1):
            out.append((i * 10**9, host_stat(100 * i, 100 * i, stolen),
                        proc_stat("s", 10 * i, 0)))
            if i < len(steals):
                stolen += steals[i]
        return out

    def test_bins_hold_their_completions(self):
        bins = measure.make_bins(self.samples([0, 50, 0]),
                                 [Done(5 * 10**8), Done(15 * 10**8),
                                  Done(25 * 10**8), Done(35 * 10**8)], 100)
        self.assertEqual([len(b.completions) for b in bins], [1, 1, 1])
        self.assertAlmostEqual(bins[1].steal, 0.2)
        self.assertEqual(bins[0].cpu_ms, 100.0)

    def test_short_last_bin_is_merged(self):
        samples = self.samples([0, 0])
        samples[-1] = (int(1.2 * 10**9), samples[-1][1], samples[-1][2])
        self.assertEqual(len(measure.make_bins(samples, [], 100)), 1)

    def test_selects_every_quiet_bin_then_the_quietest(self):
        bins = measure.make_bins(self.samples([0, 90, 1, 40, 0]), [], 100)
        picked = measure.select_quiet(bins, lambda s: True, 0.02, 1.0)
        self.assertEqual([b.start_ns // 10**9 for b in picked], [0, 2, 4])
        picked = measure.select_quiet(bins, lambda s: True, 0.02, 4.0)
        self.assertEqual([b.start_ns // 10**9 for b in picked], [0, 2, 3, 4])
        self.assertIsNone(
            measure.select_quiet(bins, lambda s: False, 0.02, 1.0))


class OutliersBytesTest(unittest.TestCase):
    def test_extracts_member_with_brackets_in_names(self):
        line = (b'{"ok":true,"latency_ms":1.5,"result":{"outliers":[{"name":'
                b'"a]b\\"[c","score":1}],"degraded":false}}')
        self.assertEqual(run.outliers_bytes(line),
                         b'"outliers":[{"name":"a]b\\"[c","score":1}]')
        self.assertEqual(run.reply_latency_ms(line), 1.5)
        self.assertIsNone(run.outliers_bytes(b'{"ok":false}'))


class FakeServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), FakeHandler)
        self.lock = threading.Lock()
        self.connections = 0
        self.max_pending = 0


class FakeHandler(socketserver.BaseRequestHandler):
    """Answers each request line with an echo; records the most request
    lines ever buffered unanswered on one connection."""

    def handle(self):
        with self.server.lock:
            self.server.connections += 1
        buffer = b""
        while True:
            chunk = self.request.recv(1 << 16)
            if not chunk:
                return
            buffer += chunk
            lines = buffer.split(b"\n")
            buffer = lines.pop()
            with self.server.lock:
                self.server.max_pending = max(self.server.max_pending,
                                              len(lines))
            for line in lines:
                self.request.sendall(b'{"ok":true,"echo":' + line + b"}\n")


class ClosedLoopTest(unittest.TestCase):
    def setUp(self):
        self.server = FakeServer()
        self.thread = threading.Thread(target=self.server.serve_forever)
        self.thread.start()

    def tearDown(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()

    def test_rejects_more_than_four_connections(self):
        with self.assertRaises(ValueError):
            loadgen.ClosedLoop("127.0.0.1", self.server.server_address[1], 5)
        with self.assertRaises(ValueError):
            loadgen.ClosedLoop("127.0.0.1", self.server.server_address[1], 0)

    def test_four_connections_one_thread_one_request_in_flight(self):
        port = self.server.server_address[1]
        caller = threading.get_ident()
        with loadgen.ClosedLoop("127.0.0.1", port) as loop:
            self.assertEqual(loop.connections, loadgen.MAX_CONNECTIONS)
            # Wait until the fake server has a handler per connection, so
            # the thread count below is the generator's alone.
            deadline = time.monotonic() + 10
            while (self.server.connections < loadgen.MAX_CONNECTIONS
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            baseline = threading.active_count()
            seen = []

            def stop(now):
                seen.append((threading.get_ident(), threading.active_count()))
                return False

            lines = ((i, b"%d" % i) for i in range(500))
            done = loop.run(lines, stop)
        self.assertEqual(len(done), 500)
        self.assertEqual(sorted(c.tag for c in done), list(range(500)))
        for c in done:
            self.assertEqual(c.reply, b'{"ok":true,"echo":%s}' % c.line)
            self.assertGreaterEqual(c.recv_ns, c.sent_ns)
        self.assertEqual(self.server.connections, loadgen.MAX_CONNECTIONS)
        self.assertEqual(self.server.max_pending, 1)
        self.assertTrue(all(t == caller and n == baseline for t, n in seen))


if __name__ == "__main__":
    unittest.main()
