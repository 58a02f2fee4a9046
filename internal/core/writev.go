package core

import (
	"cmp"
	"fmt"
	"slices"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// Update is one range of a multi-range atomic write.
type Update struct {
	Off  int64
	Data []byte
}

// WriteMulti applies several discontiguous updates as ONE failure-atomic
// operation: all ranges become visible together or not at all. This is the
// transaction-level atomicity the paper lists as future work (§IV-D: "we
// hope to add related designs in future work so that existing database
// software can obtain corresponding performance gains without
// modification") — it falls out of MGSP's commit protocol naturally, since
// a metadata-log entry chain can carry the bitmap flips of any number of
// shadowed ranges and commits with a single entry persist.
func (h *handle) WriteMulti(ctx *sim.Ctx, updates []Update) error {
	if err := h.guard(); err != nil {
		return err
	}
	if len(updates) == 0 {
		return nil
	}
	f := h.f
	fs := f.fs
	fs.stats.Writes.Add(ctx.ID, 1)
	began := ctx.Now()
	var userBytes int64
	for _, u := range updates {
		userBytes += int64(len(u.Data))
	}
	fs.stats.UserWriteBytes.Add(ctx.ID, userBytes)
	// In-flight window for the checkpoint quiesce; exits after lock release
	// (LIFO defers), see WriteAt.
	fs.inFlight.Add(1)
	defer fs.opExit(ctx)
	if fs.flusher != nil {
		// Same drain exclusion as WriteAt's direct path.
		f.flushMu.Lock(ctx)
		defer f.flushMu.Unlock(ctx)
	}
	var lo, maxEnd int64
	var err error
	if lo, maxEnd, err = f.writeMulti(ctx, updates, true); err != nil {
		return err
	}
	f.updateMinSearch(lo, maxEnd)
	dur := ctx.Now() - began
	fs.hWritev.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpWriteMulti, f.pf.Slot(), lo, maxEnd-lo, dur)
	return nil
}

// writeMulti is the shared multi-range commit body, also the write-back
// drain's door into the shadow-log protocol (internal/cache batches dirty
// frames here — DESIGN.md §13). acct distinguishes user calls (frame
// patching; the wrapper above did the stats) from drains (content came FROM
// the frames, nothing to patch; drain media traffic is attributed via the
// flusher's ctx.Tally, not the user counters). Callers own the in-flight
// window and — under write-back — flushMu; this function manages neither.
// Returns the op's extent [lo, maxEnd) for the caller's bookkeeping.
func (f *file) writeMulti(ctx *sim.Ctx, updates []Update, acct bool) (int64, int64, error) {
	fs := f.fs
	// Drain optimistic readers before mutating anything they might copy.
	f.writerEnter()
	defer f.writerExit()
	// Validate and find the op's extent.
	var maxEnd int64
	lo := updates[0].Off
	for _, u := range updates {
		if u.Off < 0 {
			return 0, 0, fmt.Errorf("core: negative offset %d", u.Off)
		}
		if end := u.Off + int64(len(u.Data)); end > maxEnd {
			maxEnd = end
		}
		if u.Off < lo {
			lo = u.Off
		}
	}
	for i, u := range updates {
		for _, v := range updates[i+1:] {
			if u.Off < v.Off+int64(len(v.Data)) && v.Off < u.Off+int64(len(u.Data)) {
				return 0, 0, fmt.Errorf("core: overlapping updates at %d and %d", u.Off, v.Off)
			}
		}
	}
	if err := f.pf.EnsureCapacity(ctx, maxEnd); err != nil {
		return 0, 0, err
	}
	f.ensureTree(ctx, f.pf.Capacity())

	entry := fs.mlog.claim(ctx, ctx.ID)

	// Plan the op in pooled scratch; returned after the locks (LIFO).
	pl := getPlan()
	defer putPlan(pl)

	// Decompose every update and lock the union in offset order.
	start := f.searchStart(ctx, lo, maxEnd)
	for _, u := range updates {
		if len(u.Data) == 0 {
			continue
		}
		k := len(pl.segs)
		for _, s := range f.cover(ctx, pl, f.root.Load(), u.Off, u.Off+int64(len(u.Data)))[k:] {
			pl.parts = append(pl.parts, part{seg: s, data: u.Data[s.lo-u.Off : s.hi-u.Off]})
		}
	}
	// Updates never overlap, so every segment starts at a distinct offset.
	slices.SortFunc(pl.segs, func(a, b segment) int { return cmp.Compare(a.lo, b.lo) })
	// Dedupe segments sharing a node (two updates in one leaf): W locks are
	// not reentrant.
	dedup := pl.segs[:0]
	for _, s := range pl.segs {
		if k := len(dedup) - 1; k >= 0 && dedup[k].n == s.n {
			if s.hi > dedup[k].hi {
				dedup[k].hi = s.hi
			}
			continue
		}
		dedup = append(dedup, s)
	}
	allSegs := dedup
	locks := f.lockOp(ctx, pl, start, allSegs, true)
	defer f.release(ctx, locks)

	f.setExistingPath(ctx, ancestorsOf(pl, allSegs))

	// Interior parts plan in part order; leaf parts are grouped per node,
	// because several updates may land in one leaf and each sub-unit must
	// shadow-toggle exactly once per operation. Leaves plan after every
	// interior part, in the order each leaf first appears.
	for _, p := range pl.parts {
		if !p.seg.n.leaf {
			if err := f.planInterior(ctx, pl, p.seg, p.data); err != nil {
				fs.mlog.abandon(entry)
				return 0, 0, err
			}
			continue
		}
		pl.leaves = append(pl.leaves, leafPart{n: p.seg.n,
			r: rangeData{p.seg.lo, p.seg.hi, p.data}, seq: len(pl.leaves)})
	}
	for _, g := range groupLeaves(pl) {
		pl.ranges = pl.ranges[:0]
		for _, lp := range pl.leaves[g.lo:g.hi] {
			pl.ranges = append(pl.ranges, lp.r)
		}
		if err := f.planLeafRanges(ctx, pl, pl.leaves[g.lo].n, pl.ranges); err != nil {
			fs.mlog.abandon(entry)
			return 0, 0, err
		}
	}
	for _, w := range pl.writes {
		f.writeTo(ctx, w)
	}
	fs.dev.Fence(ctx)

	newSize := f.size.Load()
	if maxEnd > newSize {
		newSize = maxEnd
	}
	f.commitChanges(ctx, pl, entry, lo, maxEnd-lo, newSize)

	// Deferred unlock: SetSize persists the size word (a media op), and a
	// crash-injection panic there must not leak sizeMu to other workers.
	if maxEnd > f.size.Load() {
		func() {
			f.sizeMu.Lock(ctx)
			defer f.sizeMu.Unlock(ctx)
			if maxEnd > f.size.Load() {
				f.size.Store(maxEnd)
				f.pf.SetSize(ctx, maxEnd)
			}
		}()
	}
	fs.mlog.retire(ctx, entry)
	if acct && fs.pcache != nil {
		// Committed: bring overlapping frames up to date while the W locks
		// still exclude readers (release is deferred).
		for _, u := range updates {
			f.patchFrames(u.Data, u.Off)
		}
	}
	return lo, maxEnd, nil
}

// groupLeaves sorts pl.leaves into one run per leaf node (parts of a run
// keep their order) and returns the runs ordered by each leaf's first
// appearance.
func groupLeaves(pl *writePlan) []leafGroup {
	lv := pl.leaves
	slices.SortFunc(lv, func(a, b leafPart) int {
		if c := cmp.Compare(a.n.offset(), b.n.offset()); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	gs := pl.groups[:0]
	for i := range lv {
		if i == 0 || lv[i].n != lv[i-1].n {
			gs = append(gs, leafGroup{lo: i, first: lv[i].seq})
		}
		gs[len(gs)-1].hi = i + 1
	}
	slices.SortFunc(gs, func(a, b leafGroup) int { return cmp.Compare(a.first, b.first) })
	pl.groups = gs
	return gs
}
