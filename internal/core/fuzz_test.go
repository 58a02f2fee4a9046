package core

import (
	"bytes"
	"reflect"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// fuzzSeedEntries commits one entry of every kind/width through the real
// metaLog encoders and returns the raw bytes, so the fuzzer starts from
// valid corpus entries rather than having to forge a CRC.
func fuzzSeedEntries() [][]byte {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ctx := sim.NewCtx(0, 1)
	m := newMetaLog(dev, 0, 16)

	m.commit(ctx, new([entrySize]byte), 0, 3, 4096, 8192, 1<<20,
		[]bitmapSlot{{recIdx: 7, old: 0x00ff, new: 0xff00}}, 9, 0, 1, 2) // 64-byte op
	m.commit(ctx, new([entrySize]byte), 1, 5, 0, 64, 1<<16, []bitmapSlot{
		{recIdx: 1, old: 1, new: 3}, {recIdx: 2, old: 0, new: 1}, {recIdx: 3, old: 7, new: 0xf},
		{recIdx: 4, old: 0, new: 0x10}, {recIdx: 5, old: 2, new: 6},
	}, 12, 1, 2, 0) // 128-byte op chain member
	m.commitSnap(ctx, new([entrySize]byte), 2, 4, 512, 1024, 1<<18,
		[]snapSlot{{recIdx: 11, kind: snapSlotWord, old: 1, new: 3}}, 0, 0, 1, 1) // 64-byte snap-op
	m.commitSnap(ctx, new([entrySize]byte), 3, 4, 0, 4096, 1<<18, []snapSlot{
		{recIdx: 11, kind: snapSlotWord, old: 1, new: 3},
		{recIdx: 12, kind: snapSlotLogSwap, logOff: 1 << 14},
	}, 7, 0, 1, 1) // 128-byte snap-op with a log swap
	m.commitSnapshotMark(ctx, 4, entKindSnapCreate, 2, 9, 1<<12, 1)
	m.commitSnapshotMark(ctx, 5, entKindSnapDrop, 2, 9, 0, 1)

	out := make([][]byte, 0, 6)
	for i := 0; i < 6; i++ {
		buf := make([]byte, entrySize)
		dev.Read(ctx, buf, m.off(i))
		out = append(out, buf)
	}
	return out
}

// coveredBytes reports how many leading bytes of a decoded entry are under
// its checksum — the short-flush width commit actually persisted.
func coveredBytes(e logEntry) int {
	switch e.kind {
	case entKindOp:
		if len(e.slots) <= 2 {
			return 64
		}
	case entKindOpSnap:
		if len(e.snaps) <= 1 {
			return 64
		}
	case entKindSnapCreate, entKindSnapDrop, entKindCursor:
		return 64
	}
	return entrySize
}

// FuzzDecodeEntry drives decodeEntry with arbitrary 128-byte records and
// checks the crash-safety contract of the metadata log:
//
//   - decode never panics, whatever the bytes (a torn or scribbled entry is
//     data, not a crash);
//   - any single-bit flip inside the checksummed prefix of a valid entry is
//     rejected — a corrupted entry must read as "retired", never replay;
//   - flips past the checksummed prefix (bytes the short flush never wrote)
//     leave the decode bit-identical.
func FuzzDecodeEntry(f *testing.F) {
	for _, seed := range fuzzSeedEntries() {
		f.Add(seed)
	}
	f.Add(make([]byte, entrySize))
	f.Add(bytes.Repeat([]byte{0xff}, entrySize))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, entrySize)
		copy(buf, data)
		e, ok := decodeEntry(buf)
		if !ok {
			return
		}
		n := coveredBytes(e)
		flipped := make([]byte, entrySize)
		for bit := 0; bit < n*8; bit++ {
			copy(flipped, buf)
			flipped[bit/8] ^= 1 << (bit % 8)
			if fe, fok := decodeEntry(flipped); fok {
				t.Fatalf("bit flip at %d (covered %d bytes) accepted: %+v", bit, n, fe)
			}
		}
		for bit := n * 8; bit < entrySize*8; bit++ {
			copy(flipped, buf)
			flipped[bit/8] ^= 1 << (bit % 8)
			fe, fok := decodeEntry(flipped)
			if !fok || !reflect.DeepEqual(fe, e) {
				t.Fatalf("flip at uncovered bit %d changed the decode (ok=%v)", bit, fok)
			}
		}
	})
}

// fuzzSeedCursors persists per-worker area cursors through the real
// writeCursor encoder and returns the raw 64-byte-significant entries (padded
// to entrySize), so the cursor fuzzer starts from checksum-valid corpus.
func fuzzSeedCursors() [][]byte {
	dev := nvm.New(1<<20, sim.ZeroCosts())
	ctx := sim.NewCtx(0, 1)
	m := newMetaLog(dev, 0, metaAreas*metaAreaSlots)

	out := make([][]byte, 0, 3)
	for _, c := range []struct{ a, hw int }{{0, 1}, {3, metaAreaOpSlots}, {metaAreas - 1, 7}} {
		m.writeCursor(ctx, c.a, c.hw)
		buf := make([]byte, entrySize)
		dev.Read(ctx, buf, m.off(c.a*metaAreaSlots))
		out = append(out, buf)
	}
	return out
}

// FuzzDecodeCursor drives the per-worker area-cursor decode path
// (decodeEntry + cursorBound) with arbitrary bytes. The cursor is an upper
// bound only — recovery falls back to a full-area scan when it is missing —
// but an ACCEPTED cursor is load-bearing for the bounded scan, so the
// contract is strict:
//
//   - decode never panics, whatever the bytes;
//   - cursorBound only accepts entries of kind entKindCursor whose area id
//     matches and whose high-water lies in [1, metaAreaOpSlots] — a
//     checksummed-but-foreign entry (wrong area, scribbled offset) must not
//     bound another area's scan;
//   - any single-bit flip inside the checksummed 64-byte prefix of a valid
//     cursor is rejected, so a torn cursor write degrades to the full scan
//     instead of truncating it.
func FuzzDecodeCursor(f *testing.F) {
	for _, seed := range fuzzSeedCursors() {
		f.Add(seed)
	}
	f.Add(make([]byte, entrySize))
	f.Add(bytes.Repeat([]byte{0xff}, entrySize))

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := make([]byte, entrySize)
		copy(buf, data)
		e, ok := decodeEntry(buf)
		if !ok {
			for a := 0; a < metaAreas; a++ {
				if hw, bok := cursorBound(e, a); bok {
					t.Fatalf("cursorBound accepted an invalid decode (area %d, hw %d)", a, hw)
				}
			}
			return
		}
		accepted := 0
		for a := 0; a < metaAreas; a++ {
			hw, bok := cursorBound(e, a)
			if !bok {
				continue
			}
			accepted++
			if e.kind != entKindCursor {
				t.Fatalf("cursorBound accepted kind %d as a cursor", e.kind)
			}
			if e.fileSlot != a {
				t.Fatalf("cursorBound bound area %d with area %d's cursor", a, e.fileSlot)
			}
			if hw < 1 || hw > metaAreaOpSlots {
				t.Fatalf("cursorBound returned out-of-range high-water %d", hw)
			}
		}
		if accepted > 1 {
			t.Fatalf("cursor accepted by %d distinct areas", accepted)
		}
		if e.kind != entKindCursor {
			return
		}
		flipped := make([]byte, entrySize)
		for bit := 0; bit < 64*8; bit++ {
			copy(flipped, buf)
			flipped[bit/8] ^= 1 << (bit % 8)
			if fe, fok := decodeEntry(flipped); fok {
				t.Fatalf("cursor bit flip at %d accepted: %+v", bit, fe)
			}
		}
	})
}
