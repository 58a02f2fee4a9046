package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"mgsp"
)

const blockSize = 4096

// smallWriteParams sizes one core-small-write round.
type smallWriteParams struct {
	fileSize int64 // the laid-out file
	writes   int   // measured writes per round
	burst    int   // writes the crash point is drawn from
}

var smallWriteDefault = smallWriteParams{fileSize: 64 << 20, writes: 50_000, burst: 64}

// sharedMixedParams sizes one core-shared-mixed round.
type sharedMixedParams struct {
	fileSize int64 // the shared file
	ops      int   // measured ops per worker per round
	burst    int   // writes the crash point is drawn from
}

var sharedMixedDefault = sharedMixedParams{fileSize: 32 << 20, ops: 25_000, burst: 64}

// sharedWorkers is the core-shared-mixed worker count: one per core of the
// machine the benchmark is sized for.
const sharedWorkers = 2

// newFS formats a device sized for a file of fileSize bytes: room for the
// file, a shadow log block per file block, and the metadata areas.
func newFS(fileSize int64) (*mgsp.Device, *mgsp.FS, error) {
	dev := mgsp.NewDevice(2*fileSize+48<<20, mgsp.DefaultCosts())
	fs, err := mgsp.New(dev, mgsp.DefaultOptions())
	if err != nil {
		return nil, nil, fmt.Errorf("format: %w", err)
	}
	return dev, fs, nil
}

// startSetup collects the heap, so garbage left by the previous round and
// by input generation is not collected on the set-up clock, and starts
// that clock.
func startSetup() time.Time {
	runtime.GC()
	return time.Now()
}

// layout creates name holding content, closes it so the shadow logs are
// written back, and reopens it: the laid-out file a workload starts from.
func layout(ctx *mgsp.Ctx, fs *mgsp.FS, name string, content []byte) (mgsp.File, error) {
	f, err := fs.Create(ctx, name)
	if err != nil {
		return nil, fmt.Errorf("create %s: %w", name, err)
	}
	for off := 0; off < len(content); off += 1 << 20 {
		end := min(off+1<<20, len(content))
		if _, err := f.WriteAt(ctx, content[off:end], int64(off)); err != nil {
			return nil, fmt.Errorf("lay out %s@%d: %w", name, off, err)
		}
	}
	if err := f.Close(ctx); err != nil {
		return nil, fmt.Errorf("close %s: %w", name, err)
	}
	return fs.Open(ctx, name)
}

// smallWriteGen returns core-small-write's op generator: aligned writes of
// 256 B, 512 B, 1 KiB or 2 KiB at uniform offsets of a fileSize file, with
// payloads cut from pool. Every write stays inside one 4 KiB block.
func smallWriteGen(rng *rand.Rand, fileSize int64, pool []byte) func() (int64, []byte) {
	sizes := [...]int64{256, 512, 1024, 2048}
	return func() (int64, []byte) {
		n := sizes[rng.Intn(len(sizes))]
		off := rng.Int63n(fileSize/n) * n
		p := rng.Intn(len(pool) - int(n))
		return off, pool[p : p+int(n)]
	}
}

// runSmallWrite is the core-small-write workload.
func runSmallWrite(r *run, budget time.Duration, p smallWriteParams) error {
	return r.loop(vtRounds, budget, func(rd *round) error {
		return smallWriteRound(r, rd, p)
	})
}

func smallWriteRound(r *run, rd *round, p smallWriteParams) error {
	rng := rand.New(rand.NewSource(rd.seed))
	model := make([]byte, p.fileSize)
	rng.Read(model)
	pool := make([]byte, 64<<10)
	rng.Read(pool)
	next := smallWriteGen(rng, p.fileSize, pool)

	t0 := startSetup()
	dev, fs, err := newFS(p.fileSize)
	if err != nil {
		return err
	}
	ctx := mgsp.NewCtx(0, rd.seed)
	f, err := layout(ctx, fs, "data", model)
	if err != nil {
		return err
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())

	before := fs.Obs().Snapshot().Values
	ops0 := dev.Stats().MediaOps.Load()
	h0 := takeHost()
	v0 := ctx.Now()
	var userBytes float64
	wallW := make([]float64, 0, p.writes)
	for k := 0; k < p.writes; k++ {
		off, data := next()
		wn, vn, err := rd.coreCall(uint64(k), ctx, dev, f, true, data, off)
		r.attempted++
		if err != nil {
			r.fail("write %d B @%d: %v", len(data), off, err)
			continue
		}
		copy(model[off:], data)
		userBytes += float64(len(data))
		wallW = append(wallW, float64(wn))
		if rd.det {
			r.vtW = append(r.vtW, float64(vn))
		}
	}
	h1 := takeHost()
	d := delta(before, fs.Obs().Snapshot().Values, "")
	r.addLayers(d)
	r.logBytes += float64(fs.LogBlocks() * blockSize)
	r.fileBytes += float64(p.fileSize)
	if rd.det {
		r.vtBytes += userBytes
		r.vtNs += float64(ctx.Now() - v0)
		r.mediaW += d["nvm.media_write_bytes"]
		r.userW += d["core.user_write_bytes"]
	}

	// Read every acknowledged write back while the shadow logs are live:
	// these reads are the workload's read samples.
	perWrite := max(1, (dev.Stats().MediaOps.Load()-ops0)/int64(p.writes))
	buf := make([]byte, blockSize)
	wallR := make([]float64, 0, p.fileSize/blockSize)
	for off := int64(0); off < p.fileSize; off += blockSize {
		wn, vn, err := rd.coreCall(uint64(off/blockSize), ctx, dev, f, false, buf, off)
		r.attempted++
		if err != nil {
			r.fail("read @%d: %v", off, err)
			continue
		}
		if !bytes.Equal(buf, model[off:off+blockSize]) {
			r.fail("block @%d does not hold its acknowledged writes", off)
		}
		wallR = append(wallR, float64(wn))
		if rd.det {
			r.vtR = append(r.vtR, float64(vn))
		}
	}
	r.addHostRound(rd, wallW, wallR, h0, h1, int64(p.writes))

	// The crash lands on a seeded media op inside the next p.burst writes.
	arm := 1 + rng.Int63n(int64(p.burst)*perWrite)
	inflight := crashBurst(r, dev, f, ctx, model, arm, rd.seed, next, 4*p.burst)
	recoverAndVerify(r, rd, dev, "data", model, inflight)
	return nil
}

// pendingWrite is the write in flight when the device crashed.
type pendingWrite struct {
	off  int64
	data []byte
}

// crashBurst arms the device to fail after arm media ops and issues writes
// from next until it does (at most limit writes). Completed writes update
// model; the torn one is returned, nil if the device never crashed.
func crashBurst(r *run, dev *mgsp.Device, f mgsp.File, ctx *mgsp.Ctx, model []byte, arm, seed int64, next func() (int64, []byte), limit int) *pendingWrite {
	dev.ArmCrash(arm, seed)
	for k := 0; k < limit; k++ {
		off, data := next()
		r.attempted++
		crashed, err := writeUnderCrash(dev, f, ctx, data, off)
		if crashed {
			return &pendingWrite{off: off, data: append([]byte(nil), data...)}
		}
		if err != nil {
			r.fail("burst write %d B @%d: %v", len(data), off, err)
			continue
		}
		copy(model[off:], data)
	}
	dev.DisarmCrash()
	return nil
}

// writeUnderCrash issues one write on a crash-armed device, turning the
// device's crash panic into crashed=true. Any other panic propagates.
func writeUnderCrash(dev *mgsp.Device, f mgsp.File, ctx *mgsp.Ctx, data []byte, off int64) (crashed bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			if !dev.Crashed() {
				panic(p)
			}
			crashed = true
		}
	}()
	_, err = f.WriteAt(ctx, data, off)
	return false, err
}

// recoverAndVerify restarts the device, times Mount on the virtual clock,
// and reads the whole recovered file back in 4 KiB reads. Every block must
// equal model, except that the block holding the write in flight at the
// crash may instead hold that write in full — never a mix.
func recoverAndVerify(r *run, rd *round, dev *mgsp.Device, name string, model []byte, inflight *pendingWrite) {
	dev.Recover()
	ctx := mgsp.NewCtx(1, rd.seed)
	tr := rd.tr
	var d0 devCounters
	if tr != nil {
		d0 = readDev(dev)
	}
	w0 := time.Now()
	fs, err := mgsp.Mount(ctx, dev, mgsp.DefaultOptions())
	w1 := time.Now()
	r.attempted++
	if err != nil {
		r.fail("mount: %v", err)
		return
	}
	if tr != nil {
		tr.addCall("core.Mount", rd.root, 0, w0, w1, 0, ctx.Now(), d0, readDev(dev))
	}
	if rd.det {
		r.recovery = append(r.recovery, float64(ctx.Now()))
	}
	v := fs.Obs().Snapshot().Values
	r.replayed += v["core.entries_replayed"]
	r.skipped += v["core.entries_skipped"]
	r.bounded += v["core.recovery_slots_bounded"]
	r.mounts++

	f, err := fs.Open(ctx, name)
	r.attempted++
	if err != nil {
		r.fail("open %s after recovery: %v", name, err)
		return
	}
	if f.Size() != int64(len(model)) {
		r.fail("%s recovered with size %d, want %d", name, f.Size(), len(model))
	}
	buf := make([]byte, blockSize)
	var torn []byte
	for off := int64(0); off < int64(len(model)); off += blockSize {
		_, _, err := rd.coreCall(uint64(off/blockSize), ctx, dev, f, false, buf, off)
		r.attempted++
		if err != nil {
			r.fail("read @%d after recovery: %v", off, err)
			continue
		}
		want := model[off : off+blockSize]
		if bytes.Equal(buf, want) {
			continue
		}
		if inflight != nil && inflight.off/blockSize == off/blockSize {
			torn = append(torn[:0], want...)
			copy(torn[inflight.off-off:], inflight.data)
			if bytes.Equal(buf, torn) {
				continue
			}
		}
		r.fail("%s block @%d differs after recovery", name, off)
	}
}

// Stamped blocks: core-shared-mixed fills every 16-byte chunk of a 4 KiB
// block with the same (block, worker, seq) stamp, so a read that mixes two
// versions, or returns another block's data, fails the check.
func stamp(buf []byte, block, worker int, seq uint64) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(block))
	binary.LittleEndian.PutUint32(buf[4:], uint32(worker))
	binary.LittleEndian.PutUint64(buf[8:], seq)
	for c := 16; c < len(buf); c += 16 {
		copy(buf[c:c+16], buf[:16])
	}
}

// checkStamp reports whether buf is one whole stamped version of block.
func checkStamp(buf []byte, block int) bool {
	if binary.LittleEndian.Uint32(buf) != uint32(block) {
		return false
	}
	for c := 16; c < len(buf); c += 16 {
		if !bytes.Equal(buf[c:c+16], buf[:16]) {
			return false
		}
	}
	return true
}

// layoutWorker is the worker field of the stamps the file is laid out with.
const layoutWorker = 0xff

// runSharedMixed is the core-shared-mixed workload.
func runSharedMixed(r *run, budget time.Duration, p sharedMixedParams) error {
	return r.loop(vtRounds, budget, func(rd *round) error {
		return sharedMixedRound(r, rd, p)
	})
}

// sharedResult is one core-shared-mixed worker's samples.
type sharedResult struct {
	workerTally
	wallW, wallR, vtW, vtR []float64
	bytes                  int64
}

func sharedMixedRound(r *run, rd *round, p sharedMixedParams) error {
	rng := rand.New(rand.NewSource(rd.seed))
	blocks := int(p.fileSize / blockSize)
	model := make([]byte, p.fileSize)
	for b := 0; b < blocks; b++ {
		stamp(model[b*blockSize:(b+1)*blockSize], b, layoutWorker, 0)
	}
	perm := rng.Perm(blocks)

	t0 := startSetup()
	dev, fs, err := newFS(p.fileSize)
	if err != nil {
		return err
	}
	setup := mgsp.NewCtx(sharedWorkers, rd.seed)
	if _, err := layout(setup, fs, "shared", model); err != nil {
		return err
	}
	var files [sharedWorkers]mgsp.File
	var ctxs [sharedWorkers]*mgsp.Ctx
	for w := range files {
		ctxs[w] = mgsp.NewCtx(w, rd.seed+int64(w)+1)
		// Start every clock where set-up ended, so lock release times left
		// by the layout do not land in the first measured op.
		ctxs[w].AdvanceTo(setup.Now())
		if files[w], err = fs.Open(ctxs[w], "shared"); err != nil {
			return fmt.Errorf("open shared: %w", err)
		}
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())

	before := fs.Obs().Snapshot().Values
	ops0 := dev.Stats().MediaOps.Load()
	h0 := takeHost()
	v0 := setup.Now()
	var res [sharedWorkers]sharedResult
	var wg sync.WaitGroup
	for w := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[w] = sharedWorker(rd, dev, files[w], ctxs[w], w, perm, p.ops, rd.seed+int64(w)+101)
		}()
	}
	wg.Wait()
	h1 := takeHost()
	d := delta(before, fs.Obs().Snapshot().Values, "")
	r.addLayers(d)
	r.logBytes += float64(fs.LogBlocks() * blockSize)
	r.fileBytes += float64(p.fileSize)
	var end, writes int64
	var wallW, wallR []float64
	for w := range res {
		r.merge(&res[w].workerTally)
		writes += int64(len(res[w].wallW))
		wallW = append(wallW, res[w].wallW...)
		wallR = append(wallR, res[w].wallR...)
		end = max(end, ctxs[w].Now())
		if rd.det {
			r.vtW = append(r.vtW, res[w].vtW...)
			r.vtR = append(r.vtR, res[w].vtR...)
			r.vtBytes += float64(res[w].bytes)
		}
	}
	r.addHostRound(rd, wallW, wallR, h0, h1, int64(sharedWorkers*p.ops))
	if rd.det {
		r.vtNs += float64(end - v0)
		r.mediaW += d["nvm.media_write_bytes"]
		r.userW += d["core.user_write_bytes"]
	}

	// The workers raced, so the file's content is read back as the model
	// the crash check compares against; each block must be untorn.
	ctx := ctxs[0]
	for b := 0; b < blocks; b++ {
		blk := model[b*blockSize : (b+1)*blockSize]
		_, err := files[0].ReadAt(ctx, blk, int64(b)*blockSize)
		r.attempted++
		if err != nil {
			r.fail("read-back block %d: %v", b, err)
		} else if !checkStamp(blk, b) {
			r.fail("read-back block %d is torn", b)
		}
	}
	var seq uint64
	next := func() (int64, []byte) {
		b := rng.Intn(blocks)
		seq++
		buf := make([]byte, blockSize)
		stamp(buf, b, sharedWorkers, seq)
		return int64(b) * blockSize, buf
	}
	perWrite := max(1, (dev.Stats().MediaOps.Load()-ops0)/max(1, writes))
	arm := 1 + rng.Int63n(int64(p.burst)*perWrite)
	inflight := crashBurst(r, dev, files[0], ctx, model, arm, rd.seed, next, 4*p.burst)
	recoverAndVerify(r, rd, dev, "shared", model, inflight)
	return nil
}

// sharedWorker runs one core-shared-mixed worker: 70% 4 KiB reads and 30%
// stamped 4 KiB writes at Zipf(1.1)-ranked blocks, every read checked for
// an untorn stamp.
func sharedWorker(rd *round, dev *mgsp.Device, f mgsp.File, ctx *mgsp.Ctx, w int, perm []int, ops int, seed int64) sharedResult {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(perm)-1))
	var res sharedResult
	buf := make([]byte, blockSize)
	var seq uint64
	for k := 0; k < ops; k++ {
		b := perm[z.Uint64()]
		off := int64(b) * blockSize
		write := rng.Intn(10) < 3
		if write {
			seq++
			stamp(buf, b, w, seq)
		}
		req := uint64(w)<<32 | uint64(k)
		wn, vn, err := rd.coreCall(req, ctx, dev, f, write, buf, off)
		res.attempted++
		switch {
		case err != nil:
			res.fail("worker %d op %d @%d: %v", w, k, off, err)
			continue
		case !write && !checkStamp(buf, b):
			res.fail("worker %d read of block %d is torn", w, b)
		}
		res.bytes += blockSize
		if write {
			res.wallW = append(res.wallW, float64(wn))
			res.vtW = append(res.vtW, float64(vn))
		} else {
			res.wallR = append(res.wallR, float64(wn))
			res.vtR = append(res.vtR, float64(vn))
		}
	}
	return res
}
