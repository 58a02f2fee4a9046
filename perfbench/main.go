package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// workload is one named traffic mix the benchmark can run.
type workload struct {
	name string
	run  func(r *run, budget time.Duration) error
}

var workloads = []workload{
	{"kv-serve", func(r *run, budget time.Duration) error {
		return runKV(r, budget, kvOps)
	}},
	{"core-small-write", func(r *run, budget time.Duration) error {
		return runSmallWrite(r, budget, smallWriteDefault)
	}},
	{"core-shared-mixed", func(r *run, budget time.Duration) error {
		return runSharedMixed(r, budget, sharedMixedDefault)
	}},
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// revision is the source revision, stamped at link time by run.sh.
var revision string

// outcome is one workload's finished run and the metrics it reports: the
// end-to-end ones, or the per-layer ones when the run was traced.
type outcome struct {
	name    string
	r       *run
	wall    time.Duration
	metrics []metric
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fl.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fl.Int64("seed", 1, "seed every input is generated from")
	seconds := fl.Float64("seconds", 10, "wall-clock seconds to measure per workload")
	trace := fl.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	spansDir := fl.String("spans", ".bench_build", "directory the traced run writes spans-<workload>.jsonl into")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}

	var outs []outcome
	for _, w := range selected {
		r := &run{seed: *seed}
		if *trace == 1 {
			r.tr = newTracer()
		}
		t0 := time.Now()
		if err := w.run(r, time.Duration(*seconds*float64(time.Second))); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		o := outcome{name: w.name, r: r, wall: time.Since(t0)}
		if r.tr != nil {
			o.metrics = r.perLayer()
			path := fmt.Sprintf("%s/spans-%s.jsonl", *spansDir, w.name)
			if err := r.tr.writeFile(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: write spans: %v\n", w.name, err)
				return 1
			}
			fmt.Fprintf(stdout, "%s: %d spans (%d dropped) written to %s\n", w.name, len(r.tr.spans), r.tr.dropped, path)
		} else {
			o.metrics = r.endToEnd()
		}
		printTable(stdout, &o)
		outs = append(outs, o)
	}
	printMeta(stdout, *seed, outs)
	return printResult(stdout, stderr, outs)
}

// printTable prints one workload's metrics with units and sample counts,
// and its first failures.
func printTable(w io.Writer, o *outcome) {
	r := o.r
	fmt.Fprintf(w, "== %s: %d rounds, %.1f s wall, %d ops attempted, %d failed (failed_op_ratio %.6f)\n",
		o.name, r.rounds, o.wall.Seconds(), r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, m := range o.metrics {
		if r.tr != nil {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", m.name, m.value, m.unit)
		} else {
			fmt.Fprintf(w, "  %-40s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
		}
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// printMeta prints the run's provenance as one JSON line.
func printMeta(w io.Writer, seed int64, outs []outcome) {
	rev := revision
	if rev == "" {
		rev = "unknown"
	}
	meta := struct {
		Revision   string             `json:"revision"`
		Go         string             `json:"go"`
		NumCPU     int                `json:"nproc"`
		GOMAXPROCS int                `json:"gomaxprocs"`
		Seed       int64              `json:"seed"`
		WallS      map[string]float64 `json:"wall_s"`
	}{rev, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), seed, map[string]float64{}}
	for _, o := range outs {
		meta.WallS[o.name] = o.wall.Seconds()
	}
	b, _ := json.Marshal(meta) // a struct of strings and numbers always marshals
	fmt.Fprintf(w, "meta %s\n", b)
}

// printResult prints the result line, the last line of the output, and
// returns the exit code: 1 if any operation or check failed. With several
// workloads the metric names are prefixed "<workload>/".
func printResult(w, stderr io.Writer, outs []outcome) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, o := range outs {
		res.Attempted += o.r.attempted
		res.Failed += o.r.failed
		for _, m := range o.metrics {
			key := m.name
			if len(outs) > 1 {
				key = o.name + "/" + m.name
			}
			res.Metrics[key] = value{m.value, m.unit}
		}
	}
	res.Correct = res.Failed == 0
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}
