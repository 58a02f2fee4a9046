package main

import (
	"math"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// The end-to-end metrics, in the order BENCHMARK.json lists them. Every
// workload reports every one of them (see the package comment for what each
// means on each workload).
var endToEndMetrics = []metricName{
	{"wall_write_p50_us", "us"},
	{"wall_read_p50_us", "us"},
	{"vt_write_p50_ns", "ns"},
	{"vt_write_p99_ns", "ns"},
	{"recovery_vt_ms", "ms"},
	{"write_amp", "ratio"},
	{"host_cpu_ns_per_op", "ns"},
	{"setup_s", "s"},
}

type metricName struct{ name, unit string }

// The spans the traced run records, one per public call it times.
var spanNames = []string{"client.WriteAt", "client.ReadAt", "core.WriteAt", "core.ReadAt", "core.Mount"}

// perLayerMetrics lists the traced run's metrics in BENCHMARK.json order.
// Every workload reports all of them; a layer a workload never reaches
// reads 0 there.
func perLayerMetrics() []metricName {
	out := []metricName{
		{"server.batch_ops_mean", "count"},
		{"server.meta_entries_per_ack", "count"},
		{"server.group_commits_per_s", "1/s"},
		{"client.fsync_rtt_p50_us", "us"},
		{"core.read_vt_p50_ns", "ns"},
		{"core.read_vt_p99_ns", "ns"},
		{"core.vt_mib_per_s", "MiB/s"},
		{"core.toggles_per_write", "count"},
		{"core.min_search_hit_ratio", "ratio"},
		{"core.greedy_op_ratio", "ratio"},
		{"core.meta_entries_per_op", "count"},
		{"core.meta_cas_retries_per_op", "count"},
		{"core.meta_cursor_writes", "count"},
		{"core.mgl_try_fails_per_op", "count"},
		{"core.greedy_demotions_per_op", "count"},
		{"core.descends_per_op", "count"},
		{"core.opt_read_success_ratio", "ratio"},
		{"nvm.media_write_bytes_per_op", "B"},
		{"nvm.media_read_bytes_per_op", "B"},
		{"nvm.flushes_per_op", "count"},
		{"nvm.fences_per_op", "count"},
		{"alloc.log_bytes_per_file_byte", "ratio"},
		{"recovery.entries_replayed", "count"},
		{"recovery.entries_skipped", "count"},
		{"recovery.slots_bounded", "count"},
		{"host.wall_write_p90_us", "us"},
		{"host.wall_read_p90_us", "us"},
		{"host.ops_per_s", "1/s"},
		{"host.alloc_bytes_per_op", "B"},
		{"host.allocs_per_op", "count"},
		{"host.gc_cycles_per_kop", "count"},
		{"failed_op_ratio", "ratio"},
	}
	for _, s := range spanNames {
		p := "span." + s + "."
		out = append(out, metricName{p + "count", "count"}, metricName{p + "wall_p50_us", "us"}, metricName{p + "wall_p90_us", "us"})
		if strings.HasPrefix(s, "core.") {
			out = append(out, metricName{p + "vt_p50_ns", "ns"}, metricName{p + "vt_p90_ns", "ns"})
		}
	}
	return append(out,
		metricName{"trace.overhead_wall_write_p50_us", "us"},
		metricName{"trace.overhead_wall_read_p50_us", "us"},
		metricName{"trace.overhead_cpu_ns_per_op", "ns"},
	)
}

// quantile returns the q-quantile of xs (which it sorts in place) by the
// mid-distribution method: each distinct value sits at the midpoint of the
// cumulative share its ties cover, and q is interpolated linearly between
// neighbours. Without ties this is the Hazen plotting-position quantile.
// Virtual-time samples tie heavily (the cost model charges equal work
// equally), and the plain order statistic would then read the same on every
// seed; the mid-distribution quantile moves with the share of samples on
// either side instead of jumping between tied values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := float64(len(xs))
	prevV, prevF := math.NaN(), 0.0
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		v, f := xs[i], (float64(i)+float64(j-i)/2)/n
		if q <= f {
			if math.IsNaN(prevV) {
				return v
			}
			return prevV + (v-prevV)*(q-prevF)/(f-prevF)
		}
		prevV, prevF = v, f
		i = j
	}
	return prevV
}

// histQuantile estimates the q-quantile from log2 histogram buckets (bucket
// i holds values of bit length i, i.e. [2^(i-1), 2^i)) by interpolating
// linearly within the bucket that holds rank q. It is how the virtual
// latencies mgspd keeps in its STAT histograms are read from outside.
func histQuantile(buckets *[64]int64, q float64) float64 {
	var total int64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= rank {
			if i == 0 {
				return 0
			}
			lo := math.Ldexp(1, i-1)
			return lo + lo*(rank-cum)/float64(n)
		}
		cum += float64(n)
	}
	return 0
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hostSnap is a reading of the process's host-side cost counters.
type hostSnap struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the whole process
	alloc   uint64        // bytes allocated on the heap
	mallocs uint64
	gc      uint32
}

func takeHost() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSnap{
		wall:    time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gc:      ms.NumGC,
	}
}

// hostCost accumulates host-side cost over the measured phases of a run.
type hostCost struct {
	ops     int64
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gc      uint32
}

// add charges the interval between two snapshots, in which ops operations
// completed.
func (h *hostCost) add(a, b hostSnap, ops int64) {
	h.ops += ops
	h.wall += b.wall.Sub(a.wall)
	h.cpu += b.cpu - a.cpu
	h.alloc += b.alloc - a.alloc
	h.mallocs += b.mallocs - a.mallocs
	h.gc += b.gc - a.gc
}

func (h *hostCost) cpuPerOp() float64 { return ratio(float64(h.cpu.Nanoseconds()), float64(h.ops)) }

// counters are registry counter deltas by name, read from an FS registry
// snapshot (FS.Obs, which publishes FS.Stats and Device.Stats) or from
// mgspd's STAT snapshot, which merges the same registry under "shard<i>.".
type counters map[string]float64

// delta returns b-a for every value under prefix, named without it.
func delta(a, b map[string]float64, prefix string) counters {
	d := make(counters)
	for name, v := range b {
		if rest, ok := strings.CutPrefix(name, prefix); ok {
			d[rest] = v - a[name]
		}
	}
	return d
}
