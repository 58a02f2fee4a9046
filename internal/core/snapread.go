package core

import (
	"fmt"

	"mgsp/internal/obs"
	"mgsp/internal/sim"
	"mgsp/internal/vfs"
)

// snapHandle is a read-only vfs.File over one snapshot's frozen image. Reads
// resolve through the same radix tree as live reads, but every node's
// (word, logOff) is replaced by the snapshot's view: the serving pin if the
// node was mutated after the snapshot, the live state otherwise, and
// "nonexistent" for nodes recorded after the snapshot froze.
type snapHandle struct {
	f      *file
	s      *snapshot
	closed bool
}

func (h *snapHandle) Size() int64 { return h.s.size }

func (h *snapHandle) WriteAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	return 0, vfs.ErrReadOnly
}

func (h *snapHandle) Truncate(ctx *sim.Ctx, size int64) error { return vfs.ErrReadOnly }

// Fsync is a no-op: a snapshot is durable from the moment its create mark
// committed.
func (h *snapHandle) Fsync(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	return nil
}

func (h *snapHandle) Close(ctx *sim.Ctx) error {
	if h.closed {
		return vfs.ErrClosed
	}
	h.closed = true
	h.s.handles.Add(-1)
	ctx.Advance(h.f.fs.costs.Syscall)
	return nil
}

func (h *snapHandle) ReadAt(ctx *sim.Ctx, p []byte, off int64) (int, error) {
	if h.closed {
		return 0, vfs.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset %d", off)
	}
	f := h.f
	f.fs.stats.SnapshotReads.Add(1)
	size := h.s.size
	if off >= size || len(p) == 0 {
		return 0, nil
	}
	n := len(p)
	if int64(n) > size-off {
		n = int(size - off)
	}
	end := off + int64(n)
	root := f.root.Load()
	if root == nil {
		// No live tree: the file bytes are the frozen truth (and they stay
		// frozen — write-back is deferred while snapshots live).
		f.pf.DirectRead(ctx, p[:n], off)
		return n, nil
	}
	// Same MGL read locking as live reads: snapshot readers run concurrently
	// with each other and with writers outside the locked ranges.
	began := ctx.Now()
	pl := getPlan()
	start := f.searchStart(ctx, off, end)
	segs := f.readCover(ctx, start, off, end, pl.segs[:0])
	pl.segs = segs
	locks := f.lockOp(ctx, pl, start, segs, false)
	func() {
		defer putPlan(pl)
		defer f.release(ctx, locks) // a crashed media read panics mid-walk
		f.snapWalk(ctx, root, h.s.id, off, end, 0, 0, p[:n], off)
	}()
	f.fs.trace.Record(ctx.ID, obs.OpSnapRead, f.pf.Slot(), off, int64(n), ctx.Now()-began)
	return n, nil
}

// snapNodeView returns the (word, logOff) snapshot sid sees at node n.
// Nodes recorded at or after the snapshot froze are invisible: leaves expose
// no valid units; interiors still descend (existing-only) because tree
// growth re-parents older nodes under newer roots.
func (f *file) snapNodeView(n *node, sid uint64) (uint64, int64) {
	if n.birth.Load() >= sid {
		if n.leaf {
			return 0, 0
		}
		return bitExisting, 0
	}
	if p := f.pinFor(n, sid); p != nil {
		return p.word, p.logOff
	}
	return n.word.Load(), n.logOff.Load()
}

// snapWalk mirrors walkResolve with per-node views. The fallback source is
// carried explicitly as (lvLog, lvOff) — the nearest ancestor whose VIEW is
// valid, reading at lvLog + (pos - lvOff); lvLog == 0 means the file itself.
func (f *file) snapWalk(ctx *sim.Ctx, n *node, sid uint64, lo, hi, lvLog, lvOff int64, buf []byte, base int64) {
	ctx.Advance(f.fs.costs.IndexStep)
	word, logOff := f.snapNodeView(n, sid)
	if n.leaf {
		f.snapLeaf(ctx, n, sid, word, logOff, lo, hi, lvLog, lvOff, buf, base)
		return
	}
	if word&bitValid != 0 && logOff != 0 {
		lvLog, lvOff = logOff, n.offset()
	}
	if word&bitExisting == 0 {
		f.snapReadFrom(ctx, sid, lvLog, lvOff, lo, hi, buf[lo-base:hi-base])
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
			f.snapWalk(ctx, c, sid, cur, cEnd, lvLog, lvOff, buf, base)
		} else {
			f.snapReadFrom(ctx, sid, lvLog, lvOff, cur, cEnd, buf[cur-base:cEnd-base])
		}
		cur = cEnd
	}
}

// snapLeaf serves [lo,hi) within one leaf under the snapshot's view word,
// coalescing adjacent units with the same source.
func (f *file) snapLeaf(ctx *sim.Ctx, n *node, sid uint64, word uint64, logOff, lo, hi, lvLog, lvOff int64, buf []byte, base int64) {
	unit := int64(LeafSpan / f.subBits())
	off := n.offset()
	for cur := lo; cur < hi; {
		u := (cur - off) / unit
		uEnd := off + (u+1)*unit
		fromLeaf := word&(1<<uint(u)) != 0 && logOff != 0
		for uEnd < hi {
			nu := (uEnd - off) / unit
			if (word&(1<<uint(nu)) != 0 && logOff != 0) != fromLeaf {
				break
			}
			uEnd += unit
		}
		if uEnd > hi {
			uEnd = hi
		}
		if fromLeaf {
			f.fs.dev.Read(ctx, buf[cur-base:uEnd-base], logOff+(cur-off))
		} else {
			f.snapReadFrom(ctx, sid, lvLog, lvOff, cur, uEnd, buf[cur-base:uEnd-base])
		}
		cur = uEnd
	}
}

// snapReadFrom reads [lo,hi) from the carried fallback source (lvLog == 0 =
// the file). The caller already clamped the whole read to the frozen size,
// so no zero-fill is needed here; sid is kept for symmetry/debugging.
func (f *file) snapReadFrom(ctx *sim.Ctx, sid uint64, lvLog, lvOff, lo, hi int64, out []byte) {
	_ = sid
	if hi <= lo {
		return
	}
	if lvLog == 0 {
		f.pf.DirectRead(ctx, out, lo)
	} else {
		f.fs.dev.Read(ctx, out, lvLog+(lo-lvOff))
	}
}
