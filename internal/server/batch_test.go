package server

import (
	"testing"
	"time"
)

func op(sf *srvFile, off, n int64) *writeOp {
	return &writeOp{sf: sf, off: off, data: make([]byte, n)}
}

func TestPlanSubBatchesDisjointStaysWhole(t *testing.T) {
	f := &srvFile{}
	batch := []*writeOp{op(f, 0, 100), op(f, 100, 100), op(f, 4096, 512)}
	subs := planSubBatches(batch)
	if len(subs) != 1 || len(subs[0]) != 3 {
		t.Fatalf("disjoint batch split into %d sub-batches", len(subs))
	}
}

func TestPlanSubBatchesSplitsOverlap(t *testing.T) {
	f := &srvFile{}
	// Ops 0 and 2 overlap; op 1 is disjoint from everything.
	batch := []*writeOp{op(f, 0, 100), op(f, 4096, 100), op(f, 50, 100)}
	subs := planSubBatches(batch)
	if len(subs) != 2 {
		t.Fatalf("got %d sub-batches, want 2", len(subs))
	}
	if len(subs[0]) != 2 || subs[0][0].off != 0 || subs[0][1].off != 4096 {
		t.Fatalf("first sub-batch wrong: %+v", subs[0])
	}
	if len(subs[1]) != 1 || subs[1][0].off != 50 {
		t.Fatalf("second sub-batch wrong: %+v", subs[1])
	}
}

// A later op disjoint from the LAST sub-batch joins it even if it overlaps
// an earlier one — commit order makes that safe — but an op overlapping the
// last sub-batch always opens a new one, never back-fills an older one
// (that would commit it before a conflicting older op).
func TestPlanSubBatchesNeverBackfills(t *testing.T) {
	f := &srvFile{}
	batch := []*writeOp{
		op(f, 0, 100),  // sub 0
		op(f, 50, 100), // overlaps -> sub 1
		op(f, 20, 10),  // overlaps sub 1's [50,150)? no — but overlaps sub 0; must NOT join sub 0
	}
	subs := planSubBatches(batch)
	if len(subs) != 2 {
		t.Fatalf("got %d sub-batches, want 2", len(subs))
	}
	if len(subs[1]) != 2 || subs[1][1].off != 20 {
		t.Fatalf("op at 20 should ride sub-batch 1 (commits after sub 0): %+v", subs[1])
	}
}

func TestPlanSubBatchesDifferentFilesNeverConflict(t *testing.T) {
	a, b := &srvFile{}, &srvFile{}
	batch := []*writeOp{op(a, 0, 100), op(b, 0, 100), op(a, 4096, 100)}
	subs := planSubBatches(batch)
	if len(subs) != 1 {
		t.Fatalf("same offsets on different files split the batch: %d subs", len(subs))
	}
	runs := splitByFile(subs[0])
	if len(runs) != 2 {
		t.Fatalf("got %d file runs, want 2", len(runs))
	}
	if runs[0].sf != a || len(runs[0].ops) != 2 || len(runs[1].ops) != 1 {
		t.Fatalf("runs grouped wrong: %+v", runs)
	}
}

// queuedShard builds a batcher-less shard whose queue already holds n ops.
func queuedShard(maxBatch, n int) (*shard, []*writeOp) {
	sh := &shard{
		srv:   &Server{cfg: Config{MaxBatchOps: maxBatch}},
		queue: make(chan *writeOp, n+1),
	}
	f := &srvFile{}
	ops := make([]*writeOp, n)
	for i := range ops {
		ops[i] = op(f, int64(i)*4096, 512)
		sh.queue <- ops[i]
	}
	return sh, ops
}

// drainNow runs drain on another goroutine and fails if it blocks: with no
// timer, drain must return as soon as the queue is empty.
func drainNow(t *testing.T, sh *shard, first *writeOp) []*writeOp {
	t.Helper()
	got := make(chan []*writeOp, 1)
	go func() { got <- sh.drain(first) }()
	select {
	case b := <-got:
		return b
	case <-time.After(10 * time.Second):
		t.Fatal("drain blocked on an empty queue")
		return nil
	}
}

func TestDrainTakesWholeBacklog(t *testing.T) {
	sh, ops := queuedShard(0, 10)
	first := op(&srvFile{}, 1<<20, 512)
	batch := drainNow(t, sh, first)
	if len(batch) != 11 || batch[0] != first {
		t.Fatalf("batch has %d ops, want first + 10 queued", len(batch))
	}
	for i, o := range ops {
		if batch[i+1] != o {
			t.Fatalf("batch[%d] is not queued op %d: submission order lost", i+1, i)
		}
	}
	if n := len(sh.queue); n != 0 {
		t.Fatalf("%d ops left queued", n)
	}
}

func TestDrainCapsAtMaxBatchOps(t *testing.T) {
	sh, ops := queuedShard(4, 10)
	batch := drainNow(t, sh, op(&srvFile{}, 1<<20, 512))
	if len(batch) != 4 {
		t.Fatalf("batch has %d ops, want MaxBatchOps=4", len(batch))
	}
	if n := len(sh.queue); n != 7 {
		t.Fatalf("%d ops left queued, want 7", n)
	}
	if next := <-sh.queue; next != ops[3] {
		t.Fatal("the next batch does not start at the first op left behind")
	}
}

func TestDrainReturnsPartialBatchOnClose(t *testing.T) {
	sh, _ := queuedShard(0, 2)
	close(sh.queue)
	if batch := drainNow(t, sh, op(&srvFile{}, 1<<20, 512)); len(batch) != 3 {
		t.Fatalf("batch has %d ops after close, want 3", len(batch))
	}
}

func TestDrainLoneWriteDoesNotWait(t *testing.T) {
	sh, _ := queuedShard(0, 0)
	first := op(&srvFile{}, 0, 512)
	if batch := drainNow(t, sh, first); len(batch) != 1 || batch[0] != first {
		t.Fatalf("lone write drained into a %d-op batch", len(batch))
	}
}
