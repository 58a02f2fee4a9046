package core

import (
	"fmt"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
)

// ReadAt implements vfs.File: lock the range (greedy or MGL with IR/R),
// then assemble the latest data per the valid/existing bitmaps (§III-D).
func (h *handle) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if err := h.guard(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset %d", off)
	}
	f := h.f
	fs := f.fs
	fs.stats.Reads.Add(ctx.ID, 1)
	began := ctx.Now()
	size := f.size.Load()
	if off >= size || len(p) == 0 {
		return 0, nil
	}
	n := len(p)
	if int64(n) > size-off {
		n = int(size - off)
	}
	fs.stats.UserReadBytes.Add(ctx.ID, int64(n))
	end := off + int64(n)

	// Optimistic lock-free path (DESIGN.md §14): register in the Dekker gate,
	// walk without locks, validate node versions after the copy. Any failure
	// falls through to the locked path below. Gated to MGL without a cache
	// tier, so the cache block never races this.
	if fs.optGate && f.readOptimistic(ctx, p[:n], off, began) {
		return n, nil
	}

	// Cache tier (DESIGN.md §13). Single-block reads try the optimistic
	// latch-free frame probe first: hit means one DRAM copy instead of a tree
	// walk plus media reads. A multi-block read under write-back must drain
	// first — dirty frames may hold acked data newer than the media the tree
	// walk below would read.
	block := off / LeafSpan
	single := fs.pcache != nil && end <= (block+1)*LeafSpan
	if single {
		if fs.pcache.Read(f.pf.Slot(), block, p[:n], int(off-block*LeafSpan)) {
			ctx.Advance(fs.costs.IndexStep + fs.costs.DRAMCopyCost(n))
			dur := ctx.Now() - began
			fs.hRead.Observe(dur)
			fs.trace.Record(ctx.ID, obs.OpRead, f.pf.Slot(), off, int64(n), dur)
			return n, nil
		}
	} else if fs.flusher != nil && fs.pcache.DirtyCount() > 0 {
		if err := f.drainFile(ctx); err != nil {
			return 0, err
		}
	}

	root := f.root.Load()
	if root == nil {
		// Nothing was ever written through MGSP in this incarnation; the
		// file itself is the only source. No frame install here: this path
		// holds no locks, so a fill could clobber a racing writer's newer
		// frame content.
		f.pf.DirectRead(ctx, p[:n], off)
		dur := ctx.Now() - began
		fs.hRead.Observe(dur)
		fs.trace.Record(ctx.ID, obs.OpRead, f.pf.Slot(), off, int64(n), dur)
		return n, nil
	}

	pl := getPlan()
	start := f.searchStart(ctx, off, end)
	segs := f.readCover(ctx, start, off, end, pl.segs[:0])
	pl.segs = segs
	locks := f.lockOp(ctx, pl, start, segs, false)
	// Deferred release: a media read on a crashed device panics, and an R
	// hold leaked past the panic would block every later writer of the
	// range forever.
	func() {
		defer putPlan(pl)
		defer f.release(ctx, locks)
		if single {
			// Miss fill: resolve the whole block while the R locks pin its
			// content, install it clean, and serve the request from the
			// copy. Install refuses to overwrite a present dirty frame, so
			// a buffered write that slipped in between the probe and here
			// wins.
			blockLo := block * LeafSpan
			buf := make([]byte, LeafSpan)
			f.resolveData(ctx, blockLo, blockLo+LeafSpan, buf)
			copy(p[:n], buf[off-blockLo:])
			fs.pcache.Install(f.pf.Slot(), block, buf, false)
		} else {
			f.resolveData(ctx, off, end, p[:n])
		}
	}()
	f.updateMinSearch(off, end)
	dur := ctx.Now() - began
	fs.hRead.Observe(dur)
	fs.trace.Record(ctx.ID, obs.OpRead, f.pf.Slot(), off, int64(n), dur)
	return n, nil
}

// readCover decomposes [lo,hi) into lock targets without creating nodes:
// recursion descends only into existing children; absent subtrees are
// covered by locking the current node once.
func (f *file) readCover(ctx *sim.Ctx, n *node, lo, hi int64, out []segment) []segment {
	ctx.Advance(f.fs.costs.IndexStep)
	if n.leaf || (f.fs.opts.MultiGranularity && lo == n.offset() && hi == n.offset()+n.span && n.parent != nil) {
		return append(out, segment{n: n, lo: lo, hi: hi})
	}
	cs := n.childSpan(f.fs.opts.Degree)
	self := false
	for cur := lo; cur < hi; {
		ci := (cur - n.offset()) / cs
		cEnd := n.offset() + (ci+1)*cs
		if cEnd > hi {
			cEnd = hi
		}
		if c := n.children[ci].Load(); c != nil {
			out = f.readCover(ctx, c, cur, cEnd, out)
		} else if !self {
			// Lock this node (R) once to cover every absent child range.
			out = append(out, segment{n: n, lo: cur, hi: cEnd})
			self = true
		}
		cur = cEnd
	}
	return out
}

// resolveData fills buf with the latest content of [lo, hi), walking the
// bitmaps: a node's private log wins where its valid bit is set, descendants
// win where existing leads to deeper valid bits, and the fallback is the
// nearest valid ancestor or ultimately the file. Bytes at or beyond the
// file size read as zeros.
func (f *file) resolveData(ctx *sim.Ctx, lo, hi int64, buf []byte) {
	root := f.root.Load()
	if root == nil {
		f.readFrom(ctx, nil, lo, hi, buf)
		return
	}
	f.walkResolve(ctx, root, lo, hi, nil, buf, lo)
}

func (f *file) walkResolve(ctx *sim.Ctx, n *node, lo, hi int64, lastValid *node, buf []byte, base int64) {
	ctx.Advance(f.fs.costs.IndexStep)
	if n.leaf {
		f.resolveLeaf(ctx, n, lo, hi, lastValid, buf, base)
		return
	}
	if n.word.Load()&bitValid != 0 {
		lastValid = n
	}
	if n.word.Load()&bitExisting == 0 {
		f.readFrom(ctx, lastValid, lo, hi, buf[lo-base:hi-base])
		return
	}
	cs := n.childSpan(f.fs.opts.Degree)
	for cur := lo; cur < hi; {
		ci := (cur - n.offset()) / cs
		cEnd := n.offset() + (ci+1)*cs
		if cEnd > hi {
			cEnd = hi
		}
		if c := n.children[ci].Load(); c != nil {
			f.walkResolve(ctx, c, cur, cEnd, lastValid, buf, base)
		} else {
			f.readFrom(ctx, lastValid, cur, cEnd, buf[cur-base:cEnd-base])
		}
		cur = cEnd
	}
}

// resolveLeaf serves [lo,hi) within one leaf, unit by unit, coalescing
// adjacent units with the same source.
func (f *file) resolveLeaf(ctx *sim.Ctx, n *node, lo, hi int64, lastValid *node, buf []byte, base int64) {
	unit := int64(LeafSpan / f.subBits())
	word := n.word.Load()
	off := n.offset()
	for cur := lo; cur < hi; {
		u := (cur - off) / unit
		uEnd := off + (u+1)*unit
		fromLeaf := word&(1<<uint(u)) != 0
		// Extend across units with the same source.
		for uEnd < hi {
			nu := (uEnd - off) / unit
			if (word&(1<<uint(nu)) != 0) != fromLeaf {
				break
			}
			uEnd += unit
		}
		if uEnd > hi {
			uEnd = hi
		}
		if fromLeaf {
			f.fs.dev.Read(ctx, buf[cur-base:uEnd-base], n.logOff.Load()+(cur-off))
		} else {
			f.readFrom(ctx, lastValid, cur, uEnd, buf[cur-base:uEnd-base])
		}
		cur = uEnd
	}
}

// readFrom reads [lo,hi) from src's log (nil = the file), zero-filling
// bytes at or beyond the file size.
func (f *file) readFrom(ctx *sim.Ctx, src *node, lo, hi int64, out []byte) {
	size := f.size.Load()
	valid := hi
	if valid > size {
		valid = size
	}
	if valid > lo {
		if src == nil {
			f.pf.DirectRead(ctx, out[:valid-lo], lo)
		} else {
			f.fs.dev.Read(ctx, out[:valid-lo], src.logOff.Load()+(lo-src.offset()))
		}
	}
	for i := valid - lo; i < hi-lo; i++ {
		if i >= 0 {
			out[i] = 0
		}
	}
}
