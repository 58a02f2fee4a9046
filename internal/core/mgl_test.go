package core

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mgsp/internal/nvm"
	"mgsp/internal/sim"
)

func TestCompatibilityTable(t *testing.T) {
	// Table I of the paper.
	want := map[[2]lockMode]bool{
		{lockIR, lockIR}: true, {lockIR, lockIW}: true, {lockIR, lockR}: true, {lockIR, lockW}: false,
		{lockIW, lockIR}: true, {lockIW, lockIW}: true, {lockIW, lockR}: false, {lockIW, lockW}: false,
		{lockR, lockIR}: true, {lockR, lockIW}: false, {lockR, lockR}: true, {lockR, lockW}: false,
		{lockW, lockIR}: false, {lockW, lockIW}: false, {lockW, lockR}: false, {lockW, lockW}: false,
	}
	for k, v := range want {
		if compatible(k[0], k[1]) != v {
			t.Errorf("compatible(%v, %v) = %v, want %v", k[0], k[1], !v, v)
		}
	}
}

// TestGrantableMatchesCompatibility: grantable(M) must equal "M compatible
// with every held mode" for all count combinations.
func TestGrantableMatchesCompatibility(t *testing.T) {
	f := func(ir, iw, r, w uint8) bool {
		l := &mglLock{ir: int(ir % 3), iw: int(iw % 3), r: int(r % 3), w: int(w % 2)}
		for _, m := range []lockMode{lockIR, lockIW, lockR, lockW} {
			want := true
			for held, n := range map[lockMode]int{lockIR: l.ir, lockIW: l.iw, lockR: l.r, lockW: l.w} {
				if n > 0 && !compatible(held, m) {
					want = false
				}
			}
			if l.grantable(m) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMGLBasicExclusion(t *testing.T) {
	var l mglLock
	ctx := sim.NewCtx(0, 1)
	l.Lock(ctx, lockIW)
	if l.TryLock(ctx, lockR) {
		t.Fatal("R granted alongside IW")
	}
	if !l.TryLock(ctx, lockIR) {
		t.Fatal("IR refused alongside IW")
	}
	l.Unlock(ctx, lockIW)
	l.Unlock(ctx, lockIR)
	l.Lock(ctx, lockW)
	for _, m := range []lockMode{lockIR, lockIW, lockR, lockW} {
		if l.TryLock(ctx, m) {
			t.Fatalf("%v granted alongside W", m)
		}
	}
	l.Unlock(ctx, lockW)
}

// TestMGLVirtualTimeIRParallel: IR holders never serialize virtual time.
func TestMGLVirtualTimeParallel(t *testing.T) {
	var l mglLock
	a, b := sim.NewCtx(0, 1), sim.NewCtx(1, 2)
	l.Lock(a, lockIR)
	a.Advance(1000)
	l.Unlock(a, lockIR)
	l.Lock(b, lockIR)
	if b.Now() >= 1000 {
		t.Fatalf("second IR serialized to %d (must only pay the acquisition cost)", b.Now())
	}
	l.Unlock(b, lockIR)
	// But a writer observes both.
	w := sim.NewCtx(2, 3)
	l.Lock(w, lockW)
	if w.Now() < 1000 {
		t.Fatalf("writer did not observe IR release: %d", w.Now())
	}
	l.Unlock(w, lockW)
}

// TestConcurrentMixedGranularity stresses fine writers + coarse writers +
// readers on one file, with a watchdog for deadlock, under every lock
// configuration.
func TestConcurrentMixedGranularity(t *testing.T) {
	configs := map[string]Options{
		"full": DefaultOptions(),
		"noLazy": func() Options {
			o := DefaultOptions()
			o.LazyIntentionCleaning = false
			return o
		}(),
		"noGreedyNoLazy": func() Options {
			o := DefaultOptions()
			o.GreedyLocking = false
			o.LazyIntentionCleaning = false
			return o
		}(),
		"fileLock": func() Options {
			o := DefaultOptions()
			o.Locking = LockFile
			return o
		}(),
		"degree4": func() Options {
			o := smallTreeOpts()
			return o
		}(),
	}
	for name, opts := range configs {
		opts := opts
		t.Run(name, func(t *testing.T) {
			dev := nvm.New(256<<20, sim.ZeroCosts())
			fs := MustNew(dev, opts)
			setup := sim.NewCtx(100, 1)
			f0, _ := fs.Create(setup, "f")
			const region = 1 << 20
			const workers = 6
			f0.WriteAt(setup, make([]byte, workers*region), 0)

			done := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					ctx := sim.NewCtx(id, int64(id))
					h, err := fs.Open(ctx, "f")
					if err != nil {
						t.Errorf("open: %v", err)
						return
					}
					defer h.Close(ctx)
					base := int64(id) * region
					buf := make([]byte, 256*1024)
					for i := 0; i < 60; i++ {
						switch i % 4 {
						case 0: // fine write
							h.WriteAt(ctx, bytes.Repeat([]byte{byte(id + 1)}, 300), base+int64(ctx.Rand.Intn(region-512)))
						case 1: // block write
							h.WriteAt(ctx, bytes.Repeat([]byte{byte(id + 1)}, 4096), base+int64(ctx.Rand.Intn(region/4096-1))*4096)
						case 2: // coarse write (256K aligned)
							off := base + int64(ctx.Rand.Intn(region/(256*1024)))*256*1024
							h.WriteAt(ctx, bytes.Repeat([]byte{byte(id + 1)}, 256*1024), off)
						case 3: // read own region
							h.ReadAt(ctx, buf, base+int64(ctx.Rand.Intn(region/2)))
						}
					}
				}(w)
			}
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("deadlock: concurrent mixed-granularity run did not finish")
			}
			if t.Failed() {
				return
			}
			// Cross-region isolation: every byte is 0 or owner's pattern.
			buf := make([]byte, workers*region)
			h, _ := fs.Open(setup, "f")
			h.ReadAt(setup, buf, 0)
			for w := 0; w < workers; w++ {
				for i := 0; i < region; i++ {
					b := buf[w*region+i]
					if b != 0 && b != byte(w+1) {
						t.Fatalf("worker %d region byte %d = %d: isolation violated", w, i, b)
					}
				}
			}
		})
	}
}

// TestMGLLockMatrix drives every (held, want) pair of Table I through every
// acquisition path. For each cell it checks, with one worker holding `held`:
//
//   - TryLock(want) succeeds exactly when the table says compatible;
//   - TryLockHint(want) agrees, and on failure reports intentOnly exactly
//     when the blocking holder is an intention mode (IR/IW) — the signal
//     that tells the cleaner to descend instead of treating sticky intent
//     as contention;
//   - LockLazy(want) grants when compatible, refuses (without blocking)
//     when only intention holders conflict, and blocks until release when a
//     real R/W holder conflicts.
//
// The local lock `l` is an mglLock driven with two distinct holder contexts;
// its intra-class nesting is the multi-holder semantics under test, so the
// class is declared self-ordered for the lockorder pass:
//
//mgsp:lock-order-self l
func TestMGLLockMatrix(t *testing.T) {
	modes := []lockMode{lockIR, lockIW, lockR, lockW}
	for _, held := range modes {
		for _, want := range modes {
			held, want := held, want
			t.Run(held.String()+"-"+want.String(), func(t *testing.T) {
				ok := compatible(held, want)
				intention := held == lockIR || held == lockIW

				var l mglLock
				holder := sim.NewCtx(0, 1)
				other := sim.NewCtx(1, 2)
				l.Lock(holder, held)

				if got := l.TryLock(other, want); got != ok {
					t.Fatalf("TryLock(%v) with %v held = %v, want %v", want, held, got, ok)
				}
				if ok {
					l.Unlock(other, want)
				}

				got, intentOnly := l.TryLockHint(other, want)
				if got != ok {
					t.Fatalf("TryLockHint(%v) with %v held = %v, want %v", want, held, got, ok)
				}
				if ok {
					l.Unlock(other, want)
				} else if intentOnly != intention {
					t.Fatalf("TryLockHint(%v) with %v held: intentOnly = %v, want %v",
						want, held, intentOnly, intention)
				}

				switch {
				case ok:
					if !l.LockLazy(other, want) {
						t.Fatalf("LockLazy(%v) with compatible %v held refused", want, held)
					}
					l.Unlock(other, want)
				case intention:
					// Sticky intent: refuse immediately, never wait for an
					// owner that will not release.
					if l.LockLazy(other, want) {
						t.Fatalf("LockLazy(%v) granted against conflicting %v", want, held)
					}
				default:
					// Op-scoped R/W conflict: must block, then acquire once
					// the holder releases.
					acquired := make(chan struct{})
					go func() {
						if l.LockLazy(other, want) {
							close(acquired)
						}
					}()
					select {
					case <-acquired:
						t.Fatalf("LockLazy(%v) returned while %v still held", want, held)
					case <-time.After(20 * time.Millisecond):
					}
					l.Unlock(holder, held)
					select {
					case <-acquired:
					case <-time.After(10 * time.Second):
						t.Fatalf("LockLazy(%v) never acquired after %v release", want, held)
					}
					l.Unlock(other, want)
					return // holder already released
				}
				l.Unlock(holder, held)
			})
		}
	}
}

// TestOverlappingWritersAtomicity: two workers repeatedly write the SAME
// 4 KiB-aligned block with distinct fill patterns; the block must always
// read uniformly (no interleaving), under MGL.
func TestOverlappingWritersAtomicity(t *testing.T) {
	dev := nvm.New(64<<20, sim.ZeroCosts())
	fs := MustNew(dev, DefaultOptions())
	setup := sim.NewCtx(100, 1)
	f0, _ := fs.Create(setup, "f")
	f0.WriteAt(setup, make([]byte, 64*1024), 0)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := sim.NewCtx(id, int64(id))
			h, _ := fs.Open(ctx, "f")
			defer h.Close(ctx)
			pat := bytes.Repeat([]byte{byte(id + 1)}, 4096)
			for i := 0; i < 200; i++ {
				h.WriteAt(ctx, pat, 8192)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := sim.NewCtx(5, 5)
		h, _ := fs.Open(ctx, "f")
		defer h.Close(ctx)
		buf := make([]byte, 4096)
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.ReadAt(ctx, buf, 8192)
			first := buf[0]
			for i, b := range buf {
				if b != first {
					t.Errorf("mixed block: byte 0 = %d, byte %d = %d", first, i, b)
					return
				}
			}
		}
	}()
	// Close stop after the writers finish.
	go func() {
		time.Sleep(50 * time.Millisecond)
	}()
	wgWriters := make(chan struct{})
	go func() {
		// crude: wait until writers are done by re-checking; simpler: just
		// give readers a bounded run.
		time.Sleep(200 * time.Millisecond)
		close(stop)
		close(wgWriters)
	}()
	wg.Wait()
	<-wgWriters
}

// TestConcurrentFreshBlocksShareAncestors has two handles on one laid-out
// file write interleaved blocks from two goroutines. The close after layout
// drops the volatile tree, so each writer lazily persists the records (and
// logs) of tree nodes the other also reaches: the double-checked record
// index and log offset must be published safely. Run under -race; it also
// checks both writers' data landed.
func TestConcurrentFreshBlocksShareAncestors(t *testing.T) {
	const writers, blocks = 2, 64
	fs, setup := newTestFS(smallTreeOpts())
	f0, err := fs.Create(setup, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f0.WriteAt(setup, make([]byte, writers*blocks*LeafSpan), 0); err != nil {
		t.Fatal(err)
	}
	if err := f0.Close(setup); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := sim.NewCtx(w+1, int64(w))
			h, err := fs.Open(ctx, "f")
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			defer h.Close(ctx)
			data := bytes.Repeat([]byte{byte(w + 1)}, LeafSpan)
			for i := 0; i < blocks; i++ {
				if _, err := h.WriteAt(ctx, data, int64(i*writers+w)*LeafSpan); err != nil {
					t.Errorf("writer %d block %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	h, err := fs.Open(setup, "f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, writers*blocks*LeafSpan)
	if _, err := h.ReadAt(setup, buf, 0); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < writers*blocks; b++ {
		want := byte(b%writers + 1)
		for _, got := range buf[b*LeafSpan : (b+1)*LeafSpan] {
			if got != want {
				t.Fatalf("block %d holds %d, want writer %d's data", b, got, want)
			}
		}
	}
}
