package core

import (
	"cmp"
	"slices"
	"sync"
)

// writePlan is the per-operation scratch of the write (and locked read)
// path: the cover, the ancestor list, the planned data writes and bitmap
// changes, the commit's slot encodings, the locks taken, a metadata-log
// entry buffer and a byte arena for partial-unit read-modify-write buffers.
// Plans come from planPool and are passed explicitly down the call chain;
// they are never stored on a file or handle, because vfs.File allows
// concurrent calls on one handle and one file is shared by many handles.
//
// Lifetime: a plan's dataWrite views may alias the caller's buffer, and are
// valid only until the operation returns. putPlan clears every pointer the
// plan holds, so the pool pins neither a caller's buffer nor a tree node.
type writePlan struct {
	segs    []segment
	anc     []*node
	writes  []dataWrite
	changes []wordChange
	ranges  []rangeData // the ranges handed to planLeafRanges
	hit     []rangeData // planLeafRanges' per-unit intersecting ranges
	slots   []bitmapSlot
	snaps   []snapSlot
	extra   []int // chained metadata-log entries

	// writeMulti's decomposition: every (segment, data) part, the leaf parts
	// to group per node, and the groups in first-appearance order.
	parts  []part
	leaves []leafPart
	groups []leafGroup

	locks opLocks
	entry [entrySize]byte
	arena []byte
}

// part is one covering segment of a WriteMulti update with its data.
type part struct {
	seg  segment
	data []byte
}

// leafPart is a leaf-targeted part; seq is its position among all leaf
// parts, so grouping can restore first-appearance order.
type leafPart struct {
	n   *node
	r   rangeData
	seq int
}

// leafGroup is one leaf's parts: the run pl.leaves[lo:hi] after sorting.
type leafGroup struct {
	lo, hi int
	first  int // seq of the group's first part
}

// Plans whose slices or arena grew past these bounds (a huge write) are not
// kept at that size: the pool would otherwise pin the memory and make every
// later putPlan clear it.
const (
	planRetainElems = 256
	planRetainBytes = 64 << 10
	planArenaMin    = 4096
)

var planPool = sync.Pool{New: func() any { return new(writePlan) }}

func getPlan() *writePlan { return planPool.Get().(*writePlan) }

// putPlan clears the plan's pointers and returns it to the pool.
func putPlan(pl *writePlan) {
	pl.segs = recycle(pl.segs)
	pl.anc = recycle(pl.anc)
	pl.writes = recycle(pl.writes)
	pl.changes = recycle(pl.changes)
	pl.ranges = recycle(pl.ranges)
	pl.hit = recycle(pl.hit)
	pl.slots = recycle(pl.slots)
	pl.snaps = recycle(pl.snaps)
	pl.extra = recycle(pl.extra)
	pl.parts = recycle(pl.parts)
	pl.leaves = recycle(pl.leaves)
	pl.groups = recycle(pl.groups)
	pl.locks = opLocks{acquired: recycle(pl.locks.acquired)}
	if cap(pl.arena) > planRetainBytes {
		pl.arena = nil
	} else {
		pl.arena = pl.arena[:0]
	}
	planPool.Put(pl)
}

// recycle zeroes s up to its capacity (dropping every pointer it held) and
// truncates it, or drops it entirely when it grew past planRetainElems.
func recycle[T any](s []T) []T {
	if cap(s) > planRetainElems {
		return nil
	}
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// alloc returns n bytes from the arena. The contents are stale: every
// caller overwrites all n bytes. The returned slice's capacity runs to the
// end of the arena so join can recognise the arena tail. Growing starts a
// fresh chunk; views into the old one stay valid until the op ends.
func (pl *writePlan) alloc(n int) []byte {
	if cap(pl.arena)-len(pl.arena) < n {
		pl.arena = make([]byte, 0, max(2*cap(pl.arena), n, planArenaMin))
	}
	lo := len(pl.arena)
	pl.arena = pl.arena[:lo+n]
	return pl.arena[lo:cap(pl.arena)][:n]
}

// join returns a followed by b. When b already follows a in a's backing
// array (full units cut from one caller buffer, or consecutive arena
// buffers) it extends the view and copies nothing. When a ends at the
// arena's tail, b is copied after it in place. Otherwise both are copied to
// a fresh arena buffer. A caller's array is never written.
func (pl *writePlan) join(a, b []byte) []byte {
	if len(b) == 0 {
		return a
	}
	n := len(a)
	rest := a[n:cap(a)]
	if len(rest) >= len(b) && &rest[0] == &b[0] {
		return a[:n+len(b)]
	}
	if free := pl.arena[len(pl.arena):cap(pl.arena)]; len(free) >= len(b) &&
		len(rest) == len(free) && &rest[0] == &free[0] {
		copy(free, b)
		pl.arena = pl.arena[:len(pl.arena)+len(b)]
		return a[:n+len(b)]
	}
	out := pl.alloc(n + len(b))
	copy(out, a)
	copy(out[n:], b)
	return out
}

// appendWrite adds w to the plan, coalescing it into the previous store
// when both go to the same destination and w starts where that one ends.
func (pl *writePlan) appendWrite(w dataWrite) {
	if k := len(pl.writes) - 1; k >= 0 {
		last := &pl.writes[k]
		if last.dst == w.dst && last.logOff == w.logOff && last.abs+int64(len(last.data)) == w.abs {
			last.data = pl.join(last.data, w.data)
			return
		}
	}
	pl.writes = append(pl.writes, w)
}

// ancestorsOf returns the deduplicated ancestors of all segment nodes,
// ordered top-down (larger spans first) then by offset. Each upward walk
// stops at an ancestor the previous walk already collected (everything
// above it is collected too); the sort then brings any remaining
// duplicates together and Compact drops them.
func ancestorsOf(pl *writePlan, segs []segment) []*node {
	out := pl.anc[:0]
	prev := 0
	for _, s := range segs {
		start := len(out)
		for a := s.n.parent; a != nil; a = a.parent {
			if slices.Contains(out[prev:start], a) {
				break
			}
			out = append(out, a)
		}
		prev = start
	}
	slices.SortFunc(out, func(a, b *node) int {
		if a.span != b.span {
			return cmp.Compare(b.span, a.span)
		}
		return cmp.Compare(a.offset(), b.offset())
	})
	out = slices.Compact(out)
	pl.anc = out
	return out
}
