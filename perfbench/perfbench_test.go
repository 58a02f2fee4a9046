package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// Test-sized rounds: the same code paths as the benchmark's, small enough
// to run in seconds.
var (
	smallWriteTest  = smallWriteParams{fileSize: 4 << 20, writes: 2000, burst: 16}
	sharedMixedTest = sharedMixedParams{fileSize: 2 << 20, ops: 1000, burst: 16}
)

const kvOpsTest = 100

func metricMap(ms []metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.name] = m.value
	}
	return out
}

// TestSmallWriteVirtualMetricsRepeat: a seed fixes core-small-write's
// virtual-time figures bit for bit; a different seed moves them.
func TestSmallWriteVirtualMetricsRepeat(t *testing.T) {
	runOnce := func(seed int64) (e2e, layer map[string]float64) {
		r := &run{seed: seed}
		if err := runSmallWrite(r, 0, smallWriteTest); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("seed %d: %d failures: %v", seed, r.failed, r.failures)
		}
		return metricMap(r.endToEnd()), metricMap(r.perLayer())
	}
	e1, l1 := runOnce(7)
	e2, l2 := runOnce(7)
	e3, _ := runOnce(8)
	for _, name := range []string{"vt_write_p50_ns", "vt_write_p99_ns", "write_amp", "recovery_vt_ms"} {
		if e1[name] != e2[name] {
			t.Errorf("%s: %v then %v on the same seed", name, e1[name], e2[name])
		}
	}
	for _, name := range []string{"core.read_vt_p50_ns", "core.read_vt_p99_ns", "core.vt_mib_per_s"} {
		if l1[name] != l2[name] {
			t.Errorf("%s: %v then %v on the same seed", name, l1[name], l2[name])
		}
	}
	if e1["vt_write_p50_ns"] == e3["vt_write_p50_ns"] && e1["write_amp"] == e3["write_amp"] {
		t.Errorf("seeds 7 and 8 gave identical virtual figures")
	}
}

// TestSeedChangesOffsets: the generated write offsets depend on the seed.
func TestSeedChangesOffsets(t *testing.T) {
	pool := make([]byte, 4096)
	offsets := func(seed int64) []int64 {
		next := smallWriteGen(rand.New(rand.NewSource(seed)), 64<<20, pool)
		var out []int64
		for i := 0; i < 64; i++ {
			off, data := next()
			if off%int64(len(data)) != 0 || off/blockSize != (off+int64(len(data))-1)/blockSize {
				t.Fatalf("write of %d B at %d is unaligned or crosses a block", len(data), off)
			}
			out = append(out, off)
		}
		return out
	}
	a, b := offsets(1), offsets(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 1 and 2 generated the same offsets")
	}
	if c := offsets(1); c[0] != a[0] || c[63] != a[63] {
		t.Fatal("seed 1 generated different offsets twice")
	}
}

// spanMetrics lists the per-layer metrics of the given spans.
func spanMetrics(names ...string) []string {
	var out []string
	for _, s := range names {
		p := "span." + s + "."
		out = append(out, p+"count", p+"wall_p50_us", p+"wall_p90_us")
		if strings.HasPrefix(s, "core.") {
			out = append(out, p+"vt_p50_ns", p+"vt_p90_ns")
		}
	}
	return out
}

// serverMetrics are the per-layer metrics only kv-serve reaches.
var serverMetrics = append([]string{"server.batch_ops_mean", "server.meta_entries_per_ack",
	"server.group_commits_per_s", "client.fsync_rtt_p50_us"}, spanMetrics("client.WriteAt", "client.ReadAt")...)

// everyWorkload are the per-layer metrics every workload reaches.
var everyWorkload = append([]string{"core.read_vt_p50_ns", "core.read_vt_p99_ns", "core.vt_mib_per_s",
	"core.toggles_per_write", "core.min_search_hit_ratio", "core.meta_entries_per_op",
	"nvm.media_write_bytes_per_op", "nvm.media_read_bytes_per_op", "nvm.fences_per_op",
	"host.wall_write_p90_us", "host.wall_read_p90_us", "host.ops_per_s",
	"host.alloc_bytes_per_op", "host.allocs_per_op"}, spanMetrics("core.ReadAt", "core.Mount")...)

// reached lists, per workload, the per-layer metrics its traffic must move
// off zero: a counter name that matches nothing reads 0 and fails here.
var reached = map[string][]string{
	"kv-serve": append(append([]string{"core.greedy_op_ratio", "core.opt_read_success_ratio"},
		serverMetrics...), everyWorkload...),
	"core-small-write": append(append([]string{"core.greedy_op_ratio", "core.meta_cursor_writes",
		"alloc.log_bytes_per_file_byte", "recovery.entries_replayed"},
		spanMetrics("core.WriteAt")...), everyWorkload...),
	"core-shared-mixed": append(append([]string{"core.greedy_demotions_per_op", "core.descends_per_op",
		"core.opt_read_success_ratio", "core.meta_cursor_writes", "alloc.log_bytes_per_file_byte",
		"recovery.slots_bounded"}, spanMetrics("core.WriteAt")...), everyWorkload...),
}

// absent lists, per workload, the per-layer metrics it must leave at zero:
// the server's on the core workloads, MGL contention on a single handle.
var absent = map[string][]string{
	"core-small-write": append([]string{"core.mgl_try_fails_per_op", "core.greedy_demotions_per_op",
		"core.descends_per_op"}, serverMetrics...),
	"core-shared-mixed": serverMetrics,
}

// TestWorkloads runs every workload briefly, untraced and traced: no
// operation or check fails, every end-to-end metric is reported and
// nonzero, and the traced run moves the per-layer metrics its traffic
// reaches and leaves the others at zero.
func TestWorkloads(t *testing.T) {
	runners := map[string]func(*run) error{
		"kv-serve":          func(r *run) error { return runKV(r, 0, kvOpsTest) },
		"core-small-write":  func(r *run) error { return runSmallWrite(r, 0, smallWriteTest) },
		"core-shared-mixed": func(r *run) error { return runSharedMixed(r, 0, sharedMixedTest) },
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r := &run{seed: 3}
			if err := runners[w.name](r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted == 0 {
				t.Fatalf("%d of %d failed: %v", r.failed, r.attempted, r.failures)
			}
			for _, m := range r.endToEnd() {
				if !(m.value > 0) {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}

			r = &run{seed: 3, tr: newTracer()}
			if err := runners[w.name](r); err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("traced: %d failed: %v", r.failed, r.failures)
			}
			layer := metricMap(r.perLayer())
			for _, name := range reached[w.name] {
				if !(layer[name] > 0) {
					t.Errorf("%s = %v, want > 0 on %s", name, layer[name], w.name)
				}
			}
			for _, name := range absent[w.name] {
				if layer[name] != 0 {
					t.Errorf("%s = %v, want 0 on %s", name, layer[name], w.name)
				}
			}
			path := t.TempDir() + "/spans.jsonl"
			if err := r.tr.writeFile(path); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if lines := bytes.Count(raw, []byte("\n")); lines != len(r.tr.spans)+1 {
				t.Errorf("span file has %d lines, want %d", lines, len(r.tr.spans)+1)
			}
		})
	}
}

// TestResultLine: the last output line is the result object, and an
// unknown workload fails without one.
func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := realMain([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, output %q", code, out.String())
	}
	r := &run{seed: 1}
	if err := runSmallWrite(r, 0, smallWriteTest); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := printResult(&out, &errOut, []outcome{{name: "core-small-write", r: r, metrics: r.endToEnd()}}); code != 0 {
		t.Fatalf("exit %d", code)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", out.String())
	}
	r.fail("injected")
	out.Reset()
	if code := printResult(&out, &errOut, []outcome{{name: "core-small-write", r: r, metrics: r.endToEnd()}}); code == 0 {
		t.Fatal("a failed check must make the exit code nonzero")
	}
}

// TestQuantile: without ties the mid-distribution quantile is the Hazen
// one; with ties it interpolates by the share on either side.
func TestQuantile(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	// 1 covers [0, .75) with midpoint .375; 5 covers [.75, 1), midpoint .875.
	if got := quantile([]float64{1, 1, 1, 5}, 0.5); got != 2 {
		t.Errorf("median of 1,1,1,5 = %v, want 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	var b [64]int64
	b[11] = 10 // ten values in [1024, 2048)
	if got := histQuantile(&b, 0.5); got != 1536 {
		t.Errorf("histogram median = %v, want 1536", got)
	}
}

// TestBenchmarkJSON: BENCHMARK.json lists exactly the workloads and
// metrics this command reports, and setup_s has the largest bound.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: listed %q, implemented %q", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(spec.EndToEnd), len(endToEndMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
			t.Errorf("end-to-end %d: listed %s/%s, reported %s/%s", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	layer := perLayerMetrics()
	if len(spec.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(spec.PerLayer), len(layer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layer[i].name || m.Unit != layer[i].unit {
			t.Errorf("per-layer %d: listed %s/%s, reported %s/%s", i, m.Name, m.Unit, layer[i].name, layer[i].unit)
		}
	}
}
