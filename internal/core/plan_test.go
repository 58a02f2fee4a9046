package core

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestJoinNeverWritesCallerArrays covers join's three cases: b already
// follows a in one array (a view extension, nothing copied), a at the
// arena's tail (b copied after it in place), and anything else (both copied
// to a fresh arena buffer). The caller's array must never change.
func TestJoinNeverWritesCallerArrays(t *testing.T) {
	pl := getPlan()
	defer putPlan(pl)
	p := []byte("0123456789abcdef")
	orig := append([]byte(nil), p...)

	v := pl.join(p[0:4], p[4:8])
	if &v[0] != &p[0] || string(v) != "01234567" {
		t.Fatalf("adjacent views: got %q (copied=%v)", v, &v[0] != &p[0])
	}

	// Non-adjacent caller pieces: copied into the arena.
	w := pl.join(p[0:2], p[8:10])
	if string(w) != "0189" || &w[0] == &p[0] {
		t.Fatalf("non-adjacent join = %q", w)
	}
	// w sits at the arena tail: extending it copies in place, no new buffer.
	used := len(pl.arena)
	w2 := pl.join(w, p[12:14])
	if string(w2) != "0189cd" || &w2[0] != &w[0] || len(pl.arena) != used+2 {
		t.Fatalf("arena-tail join = %q (moved=%v, arena %d -> %d)", w2, &w2[0] != &w[0], used, len(pl.arena))
	}
	// Two consecutive arena buffers are adjacent too.
	a := pl.alloc(3)
	b := pl.alloc(3)
	copy(a, "xyz")
	copy(b, "XYZ")
	if ab := pl.join(a, b); string(ab) != "xyzXYZ" || &ab[0] != &a[0] {
		t.Fatalf("consecutive arena buffers: %q", ab)
	}
	if !bytes.Equal(p, orig) {
		t.Fatalf("caller array changed: %q", p)
	}
}

// TestPutPlanDropsPointers checks that a returned plan pins neither tree
// nodes nor caller buffers: every pointer-holding slice is zeroed up to its
// capacity.
func TestPutPlanDropsPointers(t *testing.T) {
	fs, ctx := newTestFS(smallTreeOpts())
	vf, _ := fs.Create(ctx, "f")
	h := vf.(*handle)
	buf := bytes.Repeat([]byte{7}, 64<<10)
	h.WriteAt(ctx, buf, 100)
	h.WriteMulti(ctx, []Update{{Off: 10, Data: buf[:50]}, {Off: 9000, Data: buf[:5000]}})

	// Usually the plan the WriteMulti just returned (same P).
	pl := getPlan()
	checkPlanClear(t, pl)
	root := fs.files["f"].root.Load()
	pl.segs = append(pl.segs, segment{n: root})
	pl.anc = append(pl.anc, root)
	pl.writes = append(pl.writes, dataWrite{dst: root, data: buf})
	pl.changes = append(pl.changes, wordChange{n: root})
	pl.ranges = append(pl.ranges, rangeData{data: buf})
	pl.hit = append(pl.hit, rangeData{data: buf})
	pl.parts = append(pl.parts, part{seg: segment{n: root}, data: buf})
	pl.leaves = append(pl.leaves, leafPart{n: root, r: rangeData{data: buf}})
	pl.locks.acquired = append(pl.locks.acquired, lockedNode{n: root})
	putPlan(pl)
	checkPlanClear(t, pl)
}

func checkPlanClear(t *testing.T, pl *writePlan) {
	t.Helper()
	for _, s := range pl.segs[:cap(pl.segs)] {
		if s.n != nil {
			t.Fatal("segs keeps a node")
		}
	}
	for _, a := range pl.anc[:cap(pl.anc)] {
		if a != nil {
			t.Fatal("anc keeps a node")
		}
	}
	for _, w := range pl.writes[:cap(pl.writes)] {
		if w.data != nil || w.dst != nil {
			t.Fatal("writes keep a buffer or node")
		}
	}
	for _, c := range pl.changes[:cap(pl.changes)] {
		if c.n != nil {
			t.Fatal("changes keep a node")
		}
	}
	for _, rs := range [][]rangeData{pl.ranges, pl.hit} {
		for _, r := range rs[:cap(rs)] {
			if r.data != nil {
				t.Fatal("ranges keep a buffer")
			}
		}
	}
	for _, p := range pl.parts[:cap(pl.parts)] {
		if p.seg.n != nil || p.data != nil {
			t.Fatal("parts keep a node or buffer")
		}
	}
	for _, l := range pl.leaves[:cap(pl.leaves)] {
		if l.n != nil || l.r.data != nil {
			t.Fatal("leaves keep a node or buffer")
		}
	}
	for _, l := range pl.locks.acquired[:cap(pl.locks.acquired)] {
		if l.n != nil {
			t.Fatal("locks keep a node")
		}
	}
}

// TestCallerBufferReuseAfterWrite mutates the caller's buffer after each
// write returns — the data must already be durable in its shadow location,
// not referenced by anything that outlives the call.
func TestCallerBufferReuseAfterWrite(t *testing.T) {
	fs, ctx := newTestFS(DefaultOptions())
	vf, _ := fs.Create(ctx, "f")
	h := vf.(*handle)
	const size = 512 << 10
	model := make([]byte, size)
	rng := rand.New(rand.NewSource(5))
	buf := make([]byte, 65<<10) // up to 64 KiB per write, 600 B spare
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(64<<10)
		if i%3 == 0 {
			n = (1 + rng.Intn(16)) * 512 // unit-aligned: zero-copy views of buf
		}
		off := rng.Int63n(size - int64(n))
		if i%3 == 0 {
			off &^= 511
		}
		rng.Read(buf[:n])
		if i%5 == 4 {
			// Two adjacent updates cut from one buffer, plus one elsewhere.
			half := n / 2
			other := rng.Int63n(size - 600)
			if other+600 > off && other < off+int64(n) {
				other = (off + int64(n)) % (size - 600)
				if other+600 > off && other < off+int64(n) {
					continue
				}
			}
			rng.Read(buf[n : n+600])
			err := h.WriteMulti(ctx, []Update{
				{Off: off + int64(half), Data: buf[half:n]},
				{Off: off, Data: buf[:half]},
				{Off: other, Data: buf[n : n+600]},
			})
			if err != nil {
				t.Fatal(err)
			}
			copy(model[off:], buf[:n])
			copy(model[other:], buf[n:n+600])
		} else {
			if _, err := h.WriteAt(ctx, buf[:n], off); err != nil {
				t.Fatal(err)
			}
			copy(model[off:], buf[:n])
		}
		for k := range buf {
			buf[k] ^= 0xFF
		}
	}
	got := make([]byte, h.Size())
	h.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, model[:len(got)]) {
		t.Fatal("read-back shows bytes written into the caller's buffer after the write returned")
	}
}

// TestEntryChecksumStreamsLikeCopyAndZero compares the streamed checksum
// with the original formulation (copy the entry, zero the checksum field,
// hash the copy) on random 64- and 128-byte entries.
func TestEntryChecksumStreamsLikeCopyAndZero(t *testing.T) {
	copyAndZero := func(b []byte) uint64 {
		var tmp [entrySize]byte
		copy(tmp[:], b)
		for i := entCksum; i < entCksum+8; i++ {
			tmp[i] = 0
		}
		return uint64(crc32.ChecksumIEEE(tmp[:len(b)]))
	}
	rng := rand.New(rand.NewSource(1))
	var b [entrySize]byte
	for i := 0; i < 2000; i++ {
		rng.Read(b[:])
		for _, n := range []int{64, entrySize} {
			if got, want := entryChecksum(b[:n]), copyAndZero(b[:n]); got != want {
				t.Fatalf("entry %d, %d bytes: streamed %#x, copy-and-zero %#x", i, n, got, want)
			}
		}
	}
}
