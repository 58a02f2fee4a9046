package server

import "time"

// writeOp is one client write queued for a shard's group-commit loop.
type writeOp struct {
	sf     *srvFile
	ten    *tenant
	off    int64
	data   []byte
	growth int64      // bytes reserved against the tenant quota at admission
	done   chan error // buffered(1); receives the commit outcome
	enq    time.Time  // when the write entered the shard queue
}

func (op *writeOp) end() int64 { return op.off + int64(len(op.data)) }

func (op *writeOp) overlaps(other *writeOp) bool {
	return op.sf == other.sf && op.off < other.end() && other.off < op.end()
}

// planSubBatches splits a drained batch into sub-batches whose members are
// pairwise disjoint, because WriteMulti rejects overlapping updates (a
// multi-range atomic op has no defined order between its ranges).
//
// The rule is append-to-last-only: each op joins the newest sub-batch if it
// conflicts with none of its members, otherwise it opens a new one. Joining
// an OLDER sub-batch would be wrong even when disjoint from it — the op may
// conflict with something in between, and committing sub-batches in order
// is what preserves the client-visible per-offset write order. Overlapping
// ops are the rare case (clients hammering the same key back-to-back), so
// in the common case the whole batch is one sub-batch, one group commit.
func planSubBatches(ops []*writeOp) [][]*writeOp {
	var subs [][]*writeOp
	for _, op := range ops {
		placed := false
		if n := len(subs); n > 0 {
			last := subs[n-1]
			conflict := false
			for _, m := range last {
				if op.overlaps(m) {
					conflict = true
					break
				}
			}
			if !conflict {
				subs[n-1] = append(last, op)
				placed = true
			}
		}
		if !placed {
			subs = append(subs, []*writeOp{op})
		}
	}
	return subs
}

// fileRun is one WriteMulti call's worth of a sub-batch: the ops of a
// single file, in queue order.
type fileRun struct {
	sf  *srvFile
	ops []*writeOp
}

// splitByFile groups a sub-batch per file, preserving queue order inside
// each run. WriteMulti is a per-file operation, so a sub-batch touching k
// files commits as k group commits (each still one metadata-log flush for
// all its coalesced writes).
func splitByFile(sub []*writeOp) []fileRun {
	var runs []fileRun
	idx := make(map[*srvFile]int, 2)
	for _, op := range sub {
		if i, ok := idx[op.sf]; ok {
			runs[i].ops = append(runs[i].ops, op)
			continue
		}
		idx[op.sf] = len(runs)
		runs = append(runs, fileRun{sf: op.sf, ops: []*writeOp{op}})
	}
	return runs
}
