//go:build !race

// The race detector makes sync.Pool drop a random share of Put plans, so
// every dropped plan is rebuilt from scratch; allocation counts are only
// meaningful without it.

package core

import (
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestHotPathAllocs guards the steady-state host allocations of the write
// and read paths (ROADMAP item 4): on a laid-out file whose tree nodes,
// records and logs already exist, a WriteAt plans in a pooled writePlan and
// allocates nothing, and neither does a 4 KiB ReadAt. testing.AllocsPerRun
// floors the per-run average, so the occasional pool refill after a GC
// (about ten allocations) cannot trip a bound of zero over 200 runs.
func TestHotPathAllocs(t *testing.T) {
	dev := nvm.New(64<<20, sim.DefaultCosts())
	fs := MustNew(dev, DefaultOptions())
	ctx := sim.NewCtx(0, 1)
	vf, err := fs.Create(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	h := vf.(*handle)
	lay := make([]byte, 1<<20)
	for off := int64(0); off < 4<<20; off += 1 << 20 {
		if _, err := h.WriteAt(ctx, lay, off); err != nil {
			t.Fatal(err)
		}
	}
	const region = 256 << 10 // 64 leaves, all warmed below
	buf := make([]byte, 4096)
	write := func(n int) func(off int64) error {
		return func(off int64) error { _, err := h.WriteAt(ctx, buf[:n], off); return err }
	}
	// mgspd's path: several small updates committed as one WriteMulti.
	ups := make([]Update, 3)
	cases := []struct {
		name   string
		stride int64
		op     func(off int64) error
		bound  float64
	}{
		{"write-512B", 4096 + 512, write(512), 0},
		{"write-2KiB", 4096 + 2048, write(2048), 0},
		{"write-4KiB", 4096, write(4096), 0},
		{"write-256B-partial", 4096 + 256, write(256), 0},
		{"read-4KiB", 4096, func(off int64) error { _, err := h.ReadAt(ctx, buf, off); return err }, 0},
		{"writemulti-3x512B", 3 * 4096, func(off int64) error {
			for k := range ups {
				ups[k] = Update{Off: off + int64(k)*(4096+512), Data: buf[:512]}
			}
			return h.WriteMulti(ctx, ups)
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var i int64
			op := func() {
				off := (i * tc.stride) % (region - 3*4096)
				i++
				if err := tc.op(off); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up: first writes to an offset create records and logs,
			// and the simulator's virtual-time interval lists (sim.GapList)
			// grow until they reach their pruned size of 1024 intervals.
			// Both are set-up, not steady state.
			for k := 0; k < 4096; k++ {
				op()
			}
			if got := testing.AllocsPerRun(200, op); got > tc.bound {
				t.Fatalf("%s: %v allocs/op, want <= %v", tc.name, got, tc.bound)
			}
		})
	}
}
