package core

import (
	"bytes"
	"testing"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

// TestPaperFigure4And5 replays the worked example of the paper's Figures 4
// and 5: a degree-2 tree over a 32 KiB region, minimum update granularity
// 2 KiB (two valid bits per 4 KiB leaf), and three writes:
//
//	(1) 32 KiB at offset 0        — coarse write covering the whole region
//	(2)  2 KiB at offset 16 KiB   — fine-grained update of half a leaf
//	(3) 14 KiB at offset 18 KiB   — multi-granularity write: per Figure 4 it
//	    decomposes into a 2 KiB leaf remainder (reusing write (2)'s leaf log,
//	    "so there is no space wasted in this case"), one 4 KiB leaf, and one
//	    8 KiB interior log
//
// In the figure the 32 KiB root's log is the file itself; here the mapping
// is larger than the file, so the figure's root corresponds to the 32 KiB
// node whose private log plays the same role. The bitmap states of Figure 5
// then map one-to-one.
func TestPaperFigure4And5(t *testing.T) {
	opts := Options{
		Degree:           2,
		SubBits:          2, // 2 KiB minimum update granularity, as in the figure
		MultiGranularity: true,
		Locking:          LockMGL,
	}
	dev := nvm.New(32<<20, sim.ZeroCosts())
	fs := MustNew(dev, opts)
	ctx := sim.NewCtx(0, 1)
	h, _ := fs.Create(ctx, "fig4")

	ref := make([]byte, 32*1024)

	// Write (1): 32 KiB to the empty file — one coarse log at the 32 KiB
	// granularity (the figure's "root log").
	w1 := bytes.Repeat([]byte{0x11}, 32*1024)
	h.WriteAt(ctx, w1, 0)
	copy(ref, w1)

	f := fs.files["fig4"]
	node32 := f.root.Load()
	for node32.span > 32*1024 {
		c := node32.child(0)
		if c == nil {
			t.Fatalf("no populated path down to the 32K node (span %d)", node32.span)
		}
		node32 = c
	}
	if !node32.valid() {
		t.Fatal("after (1): the 32K node must hold the coarse log (the figure's root)")
	}
	if node32.existing() {
		t.Fatal("after (1): no descendants exist yet — existing must be clear")
	}
	if node32.child(0) != nil || node32.child(1) != nil {
		t.Fatal("after (1): the figure creates no 16K children for a whole-region write")
	}

	// Write (2): 2 KiB at offset 16 KiB — the first half of the leaf at
	// 16K..20K. Figure 5 marks that leaf "10" (first sub-unit valid) and
	// sets existing bits up the path.
	w2 := bytes.Repeat([]byte{0x22}, 2*1024)
	h.WriteAt(ctx, w2, 16*1024)
	copy(ref[16*1024:], w2)

	if got := node32.word.Load(); got != bitValid|bitExisting {
		t.Fatalf("after (2): 32K node word = %02b, want valid+existing (the figure's root '11')", got)
	}
	right16 := node32.child(1) // 16K..32K
	if right16 == nil {
		t.Fatal("after (2): the 16K node on the path was not created")
	}
	if right16.valid() || !right16.existing() {
		t.Fatalf("after (2): 16K node word = %02b, want existing-only (data lives above and below it)", right16.word.Load())
	}
	if node32.child(0) != nil {
		t.Fatal("after (2): the untouched left 16K subtree must stay uncreated")
	}
	right8 := right16.child(0) // 16K..24K
	if right8 == nil || right8.valid() || !right8.existing() {
		t.Fatal("after (2): the 8K node on the path must be existing-only")
	}
	leaf16 := right8.child(0) // 16K..20K
	if leaf16 == nil {
		t.Fatal("after (2): the target leaf was not created")
	}
	if leaf16.word.Load() != 0b01 { // bit 0 = first 2 KiB sub-unit
		t.Fatalf("after (2): leaf bitmap = %02b, want first-half-only (the figure's '10')", leaf16.word.Load())
	}

	// Write (3): 14 KiB at offset 18 KiB. Figure 4: "two 4K logs and one 8K
	// log for this write. The 4KB log in the second fine-grained write can
	// be reused."
	w3 := bytes.Repeat([]byte{0x33}, 14*1024)
	h.WriteAt(ctx, w3, 18*1024)
	copy(ref[18*1024:], w3)

	// The reused leaf: second sub-unit toggles into the same leaf log → 11.
	if leaf16.word.Load() != 0b11 {
		t.Fatalf("after (3): reused leaf bitmap = %02b, want 11", leaf16.word.Load())
	}
	// 20K..24K: whole-leaf target, fully valid.
	leaf20 := right8.child(1)
	if leaf20 == nil || leaf20.word.Load() != 0b11 {
		t.Fatal("after (3): the 20K..24K leaf must be fully valid")
	}
	// 24K..32K: handled as one 8 KiB coarse log, no children.
	right8b := right16.child(1)
	if right8b == nil || !right8b.valid() {
		t.Fatal("after (3): the 24K..32K node must hold a valid 8K coarse log")
	}
	if right8b.child(0) != nil || right8b.child(1) != nil {
		t.Fatal("after (3): the 8K coarse write must not create leaves")
	}
	// Path bits: the 16K node gains nothing but existing; the 32K node keeps
	// valid (it still holds 0..16K) + existing.
	if right16.valid() || !right16.existing() {
		t.Fatalf("after (3): 16K node word = %02b, want existing-only", right16.word.Load())
	}
	if got := node32.word.Load(); got != bitValid|bitExisting {
		t.Fatalf("after (3): 32K node word = %02b, want valid+existing", got)
	}

	// Contents must match the reference model throughout.
	got := make([]byte, len(ref))
	h.ReadAt(ctx, got, 0)
	if !bytes.Equal(got, ref) {
		t.Fatal("content mismatch after the figure's write sequence")
	}

	// Figure 4's caption: "the additional space required for each
	// granularity of logs does not exceed the file size."
	perLevel := map[int64]int64{}
	var walk func(n *node)
	walk = func(n *node) {
		if n.logOff.Load() != 0 {
			perLevel[n.span] += n.span
		}
		for i := range n.children {
			if c := n.children[i].Load(); c != nil {
				walk(c)
			}
		}
	}
	walk(f.root.Load())
	for span, total := range perLevel {
		if total > 32*1024 {
			t.Fatalf("span-%d logs use %d bytes, exceeding the file size", span, total)
		}
	}
}
