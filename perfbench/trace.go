package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mgsp"
)

// span is one timed public call, recorded from the benchmark's side of the
// call. Spans of one round share the round's root span as parent; Req
// identifies the request within its round (client index<<32 | sequence on
// kv-serve, the op sequence on the core workloads). Client spans carry no
// virtual clock (the server's clock is not visible from the client), so
// their VT fields are 0. The device counter deltas are taken across the
// call; with two workers on one device they include the other worker's
// concurrent traffic.
type span struct {
	ID              uint64 `json:"id"`
	Parent          uint64 `json:"parent"`
	Req             uint64 `json:"req"`
	Name            string `json:"name"`
	WallStartNs     int64  `json:"wall_start_ns"`
	WallEndNs       int64  `json:"wall_end_ns"`
	VTStartNs       int64  `json:"vt_start_ns"`
	VTEndNs         int64  `json:"vt_end_ns"`
	MediaWriteBytes int64  `json:"media_write_bytes"`
	Flushes         int64  `json:"flushes"`
	Fences          int64  `json:"fences"`
}

// maxSpans bounds the spans a run keeps in memory (about 25 MiB); later
// spans are counted as dropped and leave the per-span percentiles to the
// ones kept.
const maxSpans = 1 << 18

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID returns a fresh span ID (0 when untraced, which is also "no parent").
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// wallNs converts a wall instant to nanoseconds since the tracer started.
func (t *tracer) wallNs(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// devCounters is a reading of the device counters spans record.
type devCounters struct{ mediaW, flushes, fences int64 }

func readDev(dev *mgsp.Device) devCounters {
	st := dev.Stats()
	return devCounters{st.MediaWriteBytes.Load(), st.Flushes.Load(), st.Fences.Load()}
}

// addCall records one call that ran from w0 to w1 on the wall clock and
// from v0 to v1 on the virtual one, with the device counters read at its
// boundaries.
func (t *tracer) addCall(name string, parent, req uint64, w0, w1 time.Time, v0, v1 int64, d0, d1 devCounters) {
	t.add(span{
		Parent: parent, Req: req, Name: name,
		WallStartNs: t.wallNs(w0), WallEndNs: t.wallNs(w1),
		VTStartNs: v0, VTEndNs: v1,
		MediaWriteBytes: d1.mediaW - d0.mediaW,
		Flushes:         d1.flushes - d0.flushes,
		Fences:          d1.fences - d0.fences,
	})
}

// spanMetrics reports, per span name, the count and the wall (and, for core
// spans, virtual) p50 and p90 durations.
func (t *tracer) spanMetrics() map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	wall := make(map[string][]float64)
	vt := make(map[string][]float64)
	for _, s := range t.spans {
		wall[s.Name] = append(wall[s.Name], float64(s.WallEndNs-s.WallStartNs))
		vt[s.Name] = append(vt[s.Name], float64(s.VTEndNs-s.VTStartNs))
	}
	for _, name := range spanNames {
		p := "span." + name + "."
		out[p+"count"] = float64(len(wall[name]))
		out[p+"wall_p50_us"] = quantile(wall[name], 0.5) / 1e3
		out[p+"wall_p90_us"] = quantile(wall[name], 0.9) / 1e3
		out[p+"vt_p50_ns"] = quantile(vt[name], 0.5)
		out[p+"vt_p90_ns"] = quantile(vt[name], 0.9)
	}
	return out
}

// writeFile writes the spans as JSON lines, after a header line that
// records how many were dropped.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]int64{"spans": int64(len(t.spans)), "dropped": t.dropped}); err != nil {
		f.Close()
		return err
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
