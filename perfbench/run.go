package main

import (
	"fmt"
	"runtime"
	"time"

	"mgsp"
	"mgsp/internal/server/client"
)

// vtRounds is how many rounds of a core workload feed its virtual-time
// metrics. Later rounds only add host-side samples, so a seed fixes the
// virtual figures however many rounds the wall-clock budget allows.
const vtRounds = 3

// run accumulates one workload's measurements across its rounds. Only the
// goroutine driving the rounds touches it; concurrent workers return their
// samples and it merges them.
type run struct {
	seed int64
	tr   *tracer // nil when untraced

	rounds int
	workerTally

	hostRounds []hostRound
	host       hostCost // summed over untraced rounds' measured phases

	vtW, vtR         []float64 // virtual ns per call, first vtRounds rounds
	vtHistW, vtHistR [64]int64 // kv-serve: mgspd's commit and read latency buckets
	vtBytes, vtNs    float64   // user bytes moved in vtNs of virtual time
	mediaW, userW    float64   // media and user write bytes
	recovery         []float64 // virtual ns per Mount
	setup            []float64 // wall seconds per round's set-up

	layers              counters
	logBytes, fileBytes float64
	replayed, skipped   float64
	bounded, mounts     float64

	// kv-serve only.
	batchOps, batches float64
	metaAcked, acked  float64
	groupCommits      float64
	fsyncRTT          []float64 // ns
}

// merge folds a concurrent worker's tallies into the run.
func (r *run) merge(w *workerTally) {
	r.attempted += w.attempted
	r.failed += w.failed
	for _, f := range w.failures {
		if len(r.failures) < maxFailures {
			r.failures = append(r.failures, f)
		}
	}
}

// addLayers accumulates one measured phase's counter deltas.
func (r *run) addLayers(d counters) {
	if r.layers == nil {
		r.layers = make(counters)
	}
	for name, v := range d {
		r.layers[name] += v
	}
}

// hostRound is one round's host-side figures. The end-to-end host metrics
// are medians over rounds, so a burst of noise from the rest of the machine
// that spoils one round does not move them.
type hostRound struct {
	traced             bool
	writes, reads      int
	w50, w90, r50, r90 float64 // wall ns per call
	opsPerS, cpuPerOp  float64
}

// addHostRound records a round's wall latencies and its measured phase,
// which ran from a to b and completed ops operations. Only untraced rounds
// add to the run's host cost: the tracer allocates for its spans.
func (r *run) addHostRound(rd *round, wallW, wallR []float64, a, b hostSnap, ops int64) {
	var h hostCost
	h.add(a, b, ops)
	if rd.tr == nil {
		r.host.add(a, b, ops)
	}
	r.hostRounds = append(r.hostRounds, hostRound{
		traced: rd.tr != nil,
		writes: len(wallW), reads: len(wallR),
		w50: quantile(wallW, 0.5), w90: quantile(wallW, 0.9),
		r50: quantile(wallR, 0.5), r90: quantile(wallR, 0.9),
		opsPerS:  ratio(float64(ops), h.wall.Seconds()),
		cpuPerOp: h.cpuPerOp(),
	})
}

// hostMedian is the median of one host-side figure over the traced or
// the untraced rounds.
func (r *run) hostMedian(traced bool, f func(*hostRound) float64) float64 {
	var xs []float64
	for i := range r.hostRounds {
		h := &r.hostRounds[i]
		if h.traced == traced {
			xs = append(xs, f(h))
		}
	}
	return quantile(xs, 0.5)
}

// workerTally counts operations and checks attempted and failed, keeping
// the first few failures for the log. The run keeps one; so does each
// concurrent worker, folded in with merge.
type workerTally struct {
	attempted, failed int64
	failures          []string
}

const maxFailures = 5

// fail counts one failed operation or check.
func (w *workerTally) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < maxFailures {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// roundSeed derives round i's seed from the run seed.
func roundSeed(seed int64, i int) int64 {
	return seed*1_000_003 + int64(i)*0x9E3779B9
}

// round is what one round of a workload knows about itself.
type round struct {
	seed int64   // derived from the run seed and the round index
	tr   *tracer // nil when the round is untraced
	root uint64  // the round's span, parent of every call it times
	det  bool    // the round feeds the virtual-time metrics
}

// loop runs rounds until the budget is spent, at least minRounds of them.
// Rounds alternate traced and untraced when the run is traced, starting
// traced. The heap is collected between rounds, outside every timed phase,
// so one round's devices are gone before the next allocates its own.
func (r *run) loop(minRounds int, budget time.Duration, body func(rd *round) error) error {
	start := time.Now()
	for i := 0; i < minRounds || time.Since(start) < budget; i++ {
		rd := &round{seed: roundSeed(r.seed, i), det: i < vtRounds}
		if i%2 == 0 {
			rd.tr = r.tr
		}
		rd.root = rd.tr.newID()
		r.rounds++
		w0 := time.Now()
		if err := body(rd); err != nil {
			return fmt.Errorf("round %d: %w", i, err)
		}
		if rd.tr != nil {
			rd.tr.add(span{ID: rd.root, Req: uint64(i), Name: "bench.round",
				WallStartNs: rd.tr.wallNs(w0), WallEndNs: rd.tr.wallNs(time.Now())})
		}
		runtime.GC()
	}
	return nil
}

// coreCall times one File.WriteAt or File.ReadAt from outside, on both
// clocks, and records a span when the round is traced.
func (rd *round) coreCall(req uint64, ctx *mgsp.Ctx, dev *mgsp.Device, f mgsp.File, write bool, buf []byte, off int64) (wallNs, vtNs int64, err error) {
	tr := rd.tr
	var d0 devCounters
	if tr != nil {
		d0 = readDev(dev)
	}
	v0 := ctx.Now()
	w0 := time.Now()
	if write {
		_, err = f.WriteAt(ctx, buf, off)
	} else {
		_, err = f.ReadAt(ctx, buf, off)
	}
	w1 := time.Now()
	v1 := ctx.Now()
	if tr != nil {
		name := "core.ReadAt"
		if write {
			name = "core.WriteAt"
		}
		tr.addCall(name, rd.root, req, w0, w1, v0, v1, d0, readDev(dev))
	}
	return w1.Sub(w0).Nanoseconds(), v1 - v0, err
}

// clientCall times one client.File.WriteAt or ReadAt from outside and
// records a span when the round is traced. dev is the shard device the
// call lands on (read for the span's counter deltas).
func (rd *round) clientCall(req uint64, dev *mgsp.Device, f *client.File, write bool, buf []byte, off int64) (wallNs int64, err error) {
	tr := rd.tr
	var d0 devCounters
	if tr != nil {
		d0 = readDev(dev)
	}
	w0 := time.Now()
	if write {
		_, err = f.WriteAt(buf, off)
	} else {
		_, err = f.ReadAt(buf, off)
	}
	w1 := time.Now()
	if tr != nil {
		name := "client.ReadAt"
		if write {
			name = "client.WriteAt"
		}
		tr.addCall(name, rd.root, req, w0, w1, 0, 0, d0, readDev(dev))
	}
	return w1.Sub(w0).Nanoseconds(), err
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name, unit string
	value      float64
	samples    int
}

// endToEnd assembles the end-to-end metrics.
func (r *run) endToEnd() []metric {
	var writes, reads int
	for _, h := range r.hostRounds {
		writes += h.writes
		reads += h.reads
	}
	host := func(f func(*hostRound) float64) float64 { return r.hostMedian(false, f) }
	vtW := func(q float64) metric {
		if len(r.vtW) > 0 {
			return metric{value: quantile(r.vtW, q), samples: len(r.vtW)}
		}
		n := 0
		for _, c := range r.vtHistW {
			n += int(c)
		}
		return metric{value: histQuantile(&r.vtHistW, q), samples: n}
	}
	vals := map[string]metric{
		"wall_write_p50_us":  {value: host(func(h *hostRound) float64 { return h.w50 }) / 1e3, samples: writes},
		"wall_read_p50_us":   {value: host(func(h *hostRound) float64 { return h.r50 }) / 1e3, samples: reads},
		"vt_write_p50_ns":    vtW(0.5),
		"vt_write_p99_ns":    vtW(0.99),
		"recovery_vt_ms":     {value: quantile(r.recovery, 0.5) / 1e6, samples: len(r.recovery)},
		"write_amp":          {value: ratio(r.mediaW, r.userW), samples: r.rounds},
		"host_cpu_ns_per_op": {value: host(func(h *hostRound) float64 { return h.cpuPerOp }), samples: int(r.host.ops)},
		"setup_s":            {value: quantile(r.setup, 0.5), samples: len(r.setup)},
	}
	out := make([]metric, 0, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		v := vals[m.name]
		v.name, v.unit = m.name, m.unit
		out = append(out, v)
	}
	return out
}

// perLayer assembles the per-layer metrics of a traced run. The host
// figures come from its untraced rounds only; the counters are per op, so
// they do not depend on how many rounds the budget allowed.
func (r *run) perLayer() []metric {
	c := r.layers
	ops := c["core.writes"] + c["core.reads"]
	host := r.host
	hops := float64(host.ops)
	vtR := func(q float64) float64 {
		if len(r.vtR) > 0 {
			return quantile(r.vtR, q)
		}
		return histQuantile(&r.vtHistR, q)
	}
	vals := map[string]float64{
		"core.read_vt_p50_ns":           vtR(0.5),
		"core.read_vt_p99_ns":           vtR(0.99),
		"core.vt_mib_per_s":             ratio(r.vtBytes/(1<<20), r.vtNs/1e9),
		"server.batch_ops_mean":         ratio(r.batchOps, r.batches),
		"server.meta_entries_per_ack":   ratio(r.metaAcked, r.acked),
		"server.group_commits_per_s":    ratio(r.groupCommits, host.wall.Seconds()),
		"client.fsync_rtt_p50_us":       quantile(r.fsyncRTT, 0.5) / 1e3,
		"core.toggles_per_write":        ratio(c["core.toggle_to_log"]+c["core.toggle_to_fallback"], c["core.writes"]),
		"core.min_search_hit_ratio":     ratio(c["core.min_search_hits"], c["core.min_search_hits"]+c["core.min_search_misses"]),
		"core.greedy_op_ratio":          ratio(c["core.greedy_ops"], ops),
		"core.meta_entries_per_op":      ratio(c["core.meta_entries"], ops),
		"core.meta_cas_retries_per_op":  ratio(c["core.meta_cas_retries"], ops),
		"core.meta_cursor_writes":       ratio(c["core.meta_cursor_writes"], ops),
		"core.mgl_try_fails_per_op":     ratio(c["core.mgl_try_fails"], ops),
		"core.greedy_demotions_per_op":  ratio(c["core.greedy_demotions"], ops),
		"core.descends_per_op":          ratio(c["core.descends"], ops),
		"core.opt_read_success_ratio":   ratio(c["core.opt_reads"], c["core.opt_reads"]+c["core.opt_read_fallbacks"]),
		"nvm.media_write_bytes_per_op":  ratio(c["nvm.media_write_bytes"], ops),
		"nvm.media_read_bytes_per_op":   ratio(c["nvm.media_read_bytes"], ops),
		"nvm.flushes_per_op":            ratio(c["nvm.flushes"], ops),
		"nvm.fences_per_op":             ratio(c["nvm.fences"], ops),
		"alloc.log_bytes_per_file_byte": ratio(r.logBytes, r.fileBytes),
		"recovery.entries_replayed":     ratio(r.replayed, r.mounts),
		"recovery.entries_skipped":      ratio(r.skipped, r.mounts),
		"recovery.slots_bounded":        ratio(r.bounded, r.mounts),
		"host.wall_write_p90_us":        r.hostMedian(false, func(h *hostRound) float64 { return h.w90 }) / 1e3,
		"host.wall_read_p90_us":         r.hostMedian(false, func(h *hostRound) float64 { return h.r90 }) / 1e3,
		"host.ops_per_s":                r.hostMedian(false, func(h *hostRound) float64 { return h.opsPerS }),
		"host.alloc_bytes_per_op":       ratio(float64(host.alloc), hops),
		"host.allocs_per_op":            ratio(float64(host.mallocs), hops),
		"host.gc_cycles_per_kop":        ratio(1000*float64(host.gc), hops),
		"failed_op_ratio":               ratio(float64(r.failed), float64(r.attempted)),
	}
	for k, v := range r.tr.spanMetrics() {
		vals[k] = v
	}
	// Tracing overhead: traced rounds' medians minus untraced rounds'.
	overhead := func(f func(*hostRound) float64) float64 {
		return r.hostMedian(true, f) - r.hostMedian(false, f)
	}
	if r.tr != nil && len(r.hostRounds) > 1 {
		vals["trace.overhead_wall_write_p50_us"] = overhead(func(h *hostRound) float64 { return h.w50 }) / 1e3
		vals["trace.overhead_wall_read_p50_us"] = overhead(func(h *hostRound) float64 { return h.r50 }) / 1e3
		vals["trace.overhead_cpu_ns_per_op"] = overhead(func(h *hostRound) float64 { return h.cpuPerOp })
	}
	names := perLayerMetrics()
	out := make([]metric, 0, len(names))
	for _, m := range names {
		out = append(out, metric{name: m.name, unit: m.unit, value: vals[m.name]})
	}
	return out
}
