"""Statistics used by the benchmark: percentiles, spreads and lag pairing.

Pure functions over plain lists so tests/test_stats.py can pin them.
"""

import bisect
import math
import statistics


def percentile(values, q):
    """Percentile q in [0, 100] by linear interpolation between order
    statistics (numpy's default method). None for an empty list."""
    if not values:
        return None
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 50.0)


def iqr_share(values):
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def pair_lags(handover, onbin):
    """Result lag per bin, in the units of the timestamps.

    handover: [(bin, t)] -- when the bin's last packet was handed over;
    onbin:    [(bin, t)] -- when BinObserver::OnBin fired for the bin.
    A bin is paired when both sides saw it. If a bin lists several
    hand-overs, the latest one is its last packet. Bins that closed before
    their last packet was handed over (the packet then arrives late and is
    dropped) have no defined lag; they are returned as `early`.
    Returns (pairs, early): pairs = [(onbin_t, lag)] in bin order.
    """
    last = {}
    for b, t in handover:
        if b not in last or t > last[b]:
            last[b] = t
    lags, early = [], 0
    for b, t in sorted(onbin):
        if b not in last:
            continue  # an empty bin: nothing was handed over
        if t < last[b]:
            early += 1
        else:
            lags.append((t, t - last[b]))
    return lags, early


# Windows on either side of a stolen one that also count as stolen. The
# kernel reports steal in whole clock ticks (10 ms), so a few milliseconds
# of steal show up only once they add up to a tick, often in a later window.
STEAL_GUARD = 2


def quiet_windows(samples_per_pass, min_share=0.05):
    """The windows of a run that the host left alone.

    samples_per_pass: per pass, [(t, packets, cpu_s, steal_ticks)] in time
    order, each field cumulative from the pass start. A window spans two
    consecutive samples and is quiet when no steal tick fell in it or in
    the STEAL_GUARD windows on either side of it in the same pass. If the
    quiet windows cover less than `min_share` of the sampled time, the
    least-stolen windows (steal ticks in and around them per unit of time,
    earlier first) covering `min_share` are returned instead.
    Returns [(pass_index, t0, t1, packets, cpu_s)] in pass and time order.
    """
    windows = []
    for i, samples in enumerate(samples_per_pass):
        own = [(i, a[0], b[0], b[1] - a[1], b[2] - a[2], b[3] - a[3])
               for a, b in zip(samples, samples[1:]) if b[0] > a[0]]
        for k, w in enumerate(own):
            near = sum(x[5] for x in own[max(0, k - STEAL_GUARD):k + STEAL_GUARD + 1])
            windows.append(w[:5] + (near,))
    total = sum(w[2] - w[1] for w in windows)
    chosen = [w for w in windows if w[5] == 0]
    if sum(w[2] - w[1] for w in chosen) < min_share * total:
        ranked = sorted(windows, key=lambda w: (w[5] / (w[2] - w[1]), w[0], w[1]))
        chosen, covered = [], 0
        for w in ranked:
            if covered >= min_share * total:
                break
            chosen.append(w)
            covered += w[2] - w[1]
        chosen.sort()
    return [w[:5] for w in chosen]


def in_windows(t, spans):
    """Whether t falls in one of the sorted, disjoint [t0, t1] spans."""
    k = bisect.bisect_right(spans, (t, math.inf)) - 1
    return k >= 0 and spans[k][0] <= t <= spans[k][1]


def chunked_percentile(per_pass, q, min_samples=1000):
    """Median over chunks of the q-th percentile within each chunk.

    per_pass: one list of samples per pass, in run order. Consecutive passes
    are grouped into chunks of at least `min_samples` samples (a short tail
    joins the last chunk), so each chunk's p99 has at least ten samples
    beyond it; the median across chunks keeps one disturbed stretch of the
    run from setting the run's figure. None when there are no samples.
    """
    chunks, cur = [], []
    for samples in per_pass:
        cur.extend(samples)
        if len(cur) >= min_samples:
            chunks.append(cur)
            cur = []
    if cur:
        if chunks:
            chunks[-1].extend(cur)
        else:
            chunks.append(cur)
    if not chunks:
        return None
    return median([percentile(c, q) for c in chunks])


def hist_quantile(bounds, counts, q):
    """Quantile q in [0, 1] of a fixed-bucket histogram (upper edges
    `bounds`, per-bucket `counts` with a trailing +Inf bucket), linear
    within the bucket, like Prometheus' histogram_quantile."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for i, c in enumerate(counts):
        if c and seen + c >= rank:
            lo = bounds[i - 1] if i > 0 else 0.0
            if i >= len(bounds):
                return float(bounds[-1])  # the +Inf bucket
            return lo + (bounds[i] - lo) * (rank - seen) / c
        seen += c
    return float(bounds[-1])
