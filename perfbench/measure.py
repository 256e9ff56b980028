"""Estimators and /proc readers shared by run.py and its tests.

Latency percentiles use the nearest-rank rule on the sorted samples. A
percentile is reportable only when at least ten samples lie strictly
beyond its rank, so p99 needs at least 1000 samples; below that the
estimate would rest on a handful of outliers and not repeat run to run.
"""

import bisect
import math
import os

MIN_BEYOND = 10


class Percentile:
    """A nearest-rank percentile with the sample count it rests on."""

    def __init__(self, samples, q):
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")
        ordered = sorted(samples)
        self.count = len(ordered)
        if self.count == 0:
            self.rank = 0
            self.beyond = 0
            self.value = None
            return
        self.rank = max(1, math.ceil(q * self.count))  # 1-based
        self.beyond = self.count - self.rank
        self.value = ordered[self.rank - 1]

    @property
    def reportable(self):
        return self.count > 0 and self.beyond >= MIN_BEYOND


def percentile(samples, q):
    """The nearest-rank q-quantile of samples, or None when it is not
    reportable (fewer than MIN_BEYOND samples beyond it)."""
    p = Percentile(samples, q)
    return p.value if p.reportable else None


def parse_proc_stat_cpu_ticks(text):
    """utime + stime (clock ticks) from the contents of /proc/<pid>/stat.

    The command name (field 2) is parenthesised and may itself contain
    spaces or ')', so fields are counted from the last ')'. utime and
    stime are fields 14 and 15 of the file.
    """
    rest = text[text.rindex(")") + 1:].split()
    # rest[0] is field 3 (state), so field n sits at rest[n - 3].
    return int(rest[14 - 3]) + int(rest[15 - 3])


def cpu_delta_ms(before_text, after_text, clk_tck):
    """CPU milliseconds a process used between two /proc/<pid>/stat reads."""
    delta = (parse_proc_stat_cpu_ticks(after_text)
             - parse_proc_stat_cpu_ticks(before_text))
    if delta < 0:
        raise ValueError("CPU time went backwards: not the same process")
    return delta * 1000.0 / clk_tck


def parse_host_cpu(text):
    """(steal, total) jiffies from the aggregate 'cpu' line of /proc/stat."""
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            values = [int(v) for v in fields[1:9]]
            values += [0] * (8 - len(values))
            return values[7], sum(values)
    raise ValueError("no aggregate cpu line in /proc/stat")


def steal_share(before_text, after_text):
    """Share of host CPU time stolen by the hypervisor between two reads."""
    steal0, total0 = parse_host_cpu(before_text)
    steal1, total1 = parse_host_cpu(after_text)
    total = total1 - total0
    return (steal1 - steal0) / total if total > 0 else 0.0


def peak_rss_mb(pid):
    """VmHWM of a live process, in MiB."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM for pid %d" % pid)


class OpAccount:
    """Ops attempted / ok / failed per op type. Every attempt ends as
    exactly one of ok or failed, so attempted == ok + failed holds by
    construction, per type and in total."""

    def __init__(self):
        self._ok = {}
        self._failed = {}

    def record(self, op, ok):
        table = self._ok if ok else self._failed
        table[op] = table.get(op, 0) + 1

    def ok(self, op=None):
        return self._count(self._ok, op)

    def failed(self, op=None):
        return self._count(self._failed, op)

    def attempted(self, op=None):
        return self.ok(op) + self.failed(op)

    def ops(self):
        return sorted(set(self._ok) | set(self._failed))

    def as_dict(self):
        return {op: {"attempted": self.attempted(op), "ok": self.ok(op),
                     "failed": self.failed(op)} for op in self.ops()}

    @staticmethod
    def _count(table, op):
        return sum(table.values()) if op is None else table.get(op, 0)


class Bin:
    """One slice of the measured window: the host's steal share, the
    server's CPU time and the completions received within it."""

    def __init__(self, start_ns, end_ns, steal, cpu_ms):
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.steal = steal
        self.cpu_ms = cpu_ms
        self.completions = []

    @property
    def seconds(self):
        return (self.end_ns - self.start_ns) / 1e9


def make_bins(samples, completions, clk_tck, min_fraction=0.5):
    """Bins between consecutive (t_ns, /proc/stat, /proc/<pid>/stat)
    samples, each holding the completions received in it. A last bin
    shorter than min_fraction of the one before it is merged into it."""
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    edges = list(samples)
    if len(edges) > 2:
        last = edges[-1][0] - edges[-2][0]
        previous = edges[-2][0] - edges[-3][0]
        if last < min_fraction * previous:
            del edges[-2]
    bins = [Bin(a[0], b[0], steal_share(a[1], b[1]),
                cpu_delta_ms(a[2], b[2], clk_tck))
            for a, b in zip(edges, edges[1:])]
    starts = [b.start_ns for b in bins]
    for c in completions:
        i = bisect.bisect_right(starts, c.recv_ns) - 1
        if 0 <= i and c.recv_ns <= bins[-1].end_ns:
            bins[i].completions.append(c)
    return bins


def select_quiet(bins, enough, quiet_steal, min_seconds):
    """Every bin whose steal share is at most quiet_steal, plus the next
    quietest bins (earliest first on ties) while the selection covers
    less than min_seconds or enough(selected) is false. Returns the
    selection in time order, or None if all bins together fall short."""
    order = sorted(range(len(bins)), key=lambda i: (bins[i].steal, i))
    quiet = sum(1 for b in bins if b.steal <= quiet_steal)
    for n in range(max(1, quiet), len(order) + 1):
        selected = [bins[j] for j in sorted(order[:n])]
        if (sum(b.seconds for b in selected) >= min_seconds
                and enough(selected)):
            return selected
    return None
