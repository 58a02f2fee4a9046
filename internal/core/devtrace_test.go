package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// The write planner's host-side data structures (how pieces are coalesced,
// where partial-unit buffers live, how ancestors are deduplicated) must not
// change what reaches the device. Each case below runs a fixed sequence of
// writes on a fresh file system and hashes the complete device-op sequence —
// every store, flush and fence with its offset, length and bytes — plus the
// final virtual clock. The golden digests were recorded with the original
// map/append-based planner; a planner change that alters any store (order,
// offset, length, content) or any virtual-time charge fails here. A change
// that alters the device protocol on purpose must re-record them (the
// failure message prints the new digest).
type traceCase struct {
	name   string
	opts   func() Options
	run    func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile)
	digest string
}

var traceCases = []traceCase{
	{name: "aligned", opts: DefaultOptions, run: func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile) {
		for _, w := range [][2]int64{{0, 512}, {4096 + 1024, 2048}, {8192, 4096}, {512, 512},
			{8192, 4096}, {4096 + 1024, 2048}, {16384 + 2048, 1024}, {0, 512}} {
			m.write(t, ctx, w[0], w[1])
		}
	}, digest: "95882e07e07bc14ec82bf8794c4bcfa462ca05fa97be80a7240f2a70179efcd8"},
	{name: "unaligned", opts: DefaultOptions, run: func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile) {
		for _, w := range [][2]int64{{100, 300}, {1000, 5000}, {4095, 1}, {7900, 700},
			{100, 300}, {1000, 5000}, {20000, 1}, {511, 2}} {
			m.write(t, ctx, w[0], w[1])
		}
	}, digest: "df352d245cf00f51af5a71bda94bd9fd2e45715742c716c5a652e02b247e308c"},
	{name: "multi-leaf", opts: DefaultOptions, run: func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile) {
		for _, w := range [][2]int64{{3*4096 + 512, 12288}, {5 * 4096, 64 << 10}, {3*4096 + 512, 12288},
			{2*4096 + 100, 30000}, {5 * 4096, 64 << 10}} {
			m.write(t, ctx, w[0], w[1])
		}
	}, digest: "c23c5164fde4df9c088f883164a218c9bbe982c5bdd481363962d96dc5373d33"},
	{name: "interior", opts: DefaultOptions, run: func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile) {
		for _, w := range [][2]int64{{256 << 10, 256 << 10}, {256 << 10, 256 << 10}, {0, 512 << 10},
			{200 << 10, 300 << 10}, {256 << 10, 256 << 10}, {300 << 10, 4096}} {
			m.write(t, ctx, w[0], w[1])
		}
	}, digest: "f4eed79d3d364d2bd12f93aee3160f252552e8293a9079318da385e24ac1e39d"},
	{name: "degree4", opts: smallTreeOpts, run: func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile) {
		for _, w := range [][2]int64{{0, 64 << 10}, {4096, 16 << 10}, {1000, 40000}, {16 << 10, 16 << 10},
			{100, 3000}, {60000, 9000}} {
			m.write(t, ctx, w[0], w[1])
		}
	}, digest: "e2c6b99da1480f95c639bc0a530f4733e20a072eead380d70c34fef9182a8c22"},
	{name: "fixed-granularity", opts: func() Options {
		o := DefaultOptions()
		o.MultiGranularity = false
		return o
	}, run: func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile) {
		// 16 leaves in one op: more than one entry's worth of slots, so the
		// commit chains two metadata-log entries.
		for _, w := range [][2]int64{{0, 64 << 10}, {0, 64 << 10}, {1000, 50000}, {4096, 512}} {
			m.write(t, ctx, w[0], w[1])
		}
		m.multi(t, ctx, [][2]int64{{0, 4096}, {8192, 40000}, {60000, 100}})
		if e, w := fs.stats.MetaEntries.Load(), fs.stats.Writes.Load(); e <= w {
			t.Fatalf("%d entries for %d writes: no op chained", e, w)
		}
	}, digest: "e30f495382be49c4d761628f801a7b6fcae692ccc718eb66f6c2822c6f820ae1"},
	{name: "snapshot-cow", opts: DefaultOptions, run: func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile) {
		m.write(t, ctx, 0, 2048)
		m.write(t, ctx, 4096+512, 1024)
		m.write(t, ctx, 256<<10, 256<<10)
		id, err := fs.Snapshot(ctx, "f")
		if err != nil {
			t.Fatal(err)
		}
		// Leaf CoW (a valid unit overwritten, untouched valid units carried
		// over), a partial unit in a CoW'd leaf, interior CoW, then a fresh
		// leaf under the snapshot.
		m.write(t, ctx, 512, 512)
		m.write(t, ctx, 4096+700, 100)
		m.write(t, ctx, 256<<10, 256<<10)
		m.write(t, ctx, 40960, 3000)
		m.multi(t, ctx, [][2]int64{{0, 100}, {1536, 512}, {4096 + 1024, 512}})
		if err := fs.DropSnapshot(ctx, "f", id); err != nil {
			t.Fatal(err)
		}
		m.write(t, ctx, 0, 4096)
		if n := fs.stats.SnapshotCoWRewrites.Load(); n < 3 {
			t.Fatalf("%d copy-on-write relocations, want >= 3", n)
		}
	}, digest: "c801be5eb6999d6cb5207480dde284f91204e6ee8e9a388c2c0a9ba98b0960c7"},
	{name: "writemulti", opts: DefaultOptions, run: func(t *testing.T, fs *FS, ctx *sim.Ctx, m *traceFile) {
		// Several ranges in one leaf (two sharing a unit), updates out of
		// offset order across leaves, and an interior-node range.
		m.multi(t, ctx, [][2]int64{{8192 + 10, 50}, {8192 + 100, 50}, {8192 + 3000, 500}})
		m.multi(t, ctx, [][2]int64{{20000, 700}, {4096, 1024}, {8192 + 512, 512}, {256 << 10, 256 << 10}, {100, 4}})
		m.multi(t, ctx, [][2]int64{{8192 + 10, 50}, {8192 + 100, 50}, {8192 + 3000, 500}, {4096 + 2048, 2048}})
		m.multi(t, ctx, [][2]int64{{256 << 10, 256 << 10}, {0, 4096}})
	}, digest: "dd3bfb4ce94a7ac14f971e7aa13892b006ec1fd7557614b2cf361b9019d53477"},
}

const traceFileBytes = 1 << 20

// TestWriteDeviceTraceUnchanged checks every case's device-op digest and
// the file content against a byte model.
func TestWriteDeviceTraceUnchanged(t *testing.T) {
	for _, tc := range traceCases {
		t.Run(tc.name, func(t *testing.T) {
			dev := nvm.New(64<<20, sim.DefaultCosts())
			h := sha256.New()
			var ops int
			var hdr [17]byte
			dev.ObserveStores(func(op nvm.StoreOp, off int64, data []byte) {
				ops++
				hdr[0] = byte(op)
				binary.LittleEndian.PutUint64(hdr[1:], uint64(off))
				binary.LittleEndian.PutUint64(hdr[9:], uint64(len(data)))
				h.Write(hdr[:])
				h.Write(data)
			})
			fs := MustNew(dev, tc.opts())
			ctx := sim.NewCtx(0, 1)
			vf, err := fs.Create(ctx, "f")
			if err != nil {
				t.Fatal(err)
			}
			tf := &traceFile{h: vf.(*handle), model: make([]byte, traceFileBytes)}
			tc.run(t, fs, ctx, tf)
			dev.ObserveStores(nil)

			var now [8]byte
			binary.LittleEndian.PutUint64(now[:], uint64(ctx.Now()))
			h.Write(now[:])
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.digest {
				t.Errorf("device-op digest over %d ops at vt %d ns = %s, want %s",
					ops, ctx.Now(), got, tc.digest)
			}
			size := tf.h.Size()
			back := make([]byte, size)
			if _, err := tf.h.ReadAt(ctx, back, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, tf.model[:size]) {
				t.Fatal("read-back differs from the byte model")
			}
		})
	}
}

// traceFile is a traced handle plus a byte model of the file's content.
type traceFile struct {
	h     *handle
	model []byte
	seq   int64 // varies the payload of repeated writes to one range
}

// payload returns n deterministic bytes keyed by (off, n, seq).
func (tf *traceFile) payload(off, n int64) []byte {
	tf.seq++
	r := rand.New(rand.NewSource(off*7919 + n*31 + tf.seq))
	p := make([]byte, n)
	r.Read(p)
	return p
}

func (tf *traceFile) write(t *testing.T, ctx *sim.Ctx, off, n int64) {
	t.Helper()
	p := tf.payload(off, n)
	if _, err := tf.h.WriteAt(ctx, p, off); err != nil {
		t.Fatal(err)
	}
	copy(tf.model[off:], p)
}

func (tf *traceFile) multi(t *testing.T, ctx *sim.Ctx, rs [][2]int64) {
	t.Helper()
	ups := make([]Update, len(rs))
	for i, r := range rs {
		ups[i] = Update{Off: r[0], Data: tf.payload(r[0], r[1])}
	}
	if err := tf.h.WriteMulti(ctx, ups); err != nil {
		t.Fatal(err)
	}
	for _, u := range ups {
		copy(tf.model[u.Off:], u.Data)
	}
}
