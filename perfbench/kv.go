package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"mgsp"
	"mgsp/internal/server"
	"mgsp/internal/server/client"
)

// kv-serve shape: a 16 MiB keyspace of 4 KiB slots on one mgspd shard at
// its shipped defaults, driven by two closed-loop clients.
const (
	kvSlots     = 4096
	kvSlotSize  = 4096
	kvReadSize  = 1024
	kvClients   = 2
	kvMinRounds = 3
	kvOps       = 3000 // requests per client per round
	kvTenant    = "bench"
	kvFile      = "kv"
	kvFsyncRTTs = 200 // FSYNC round trips the traced run times per round
)

// statSnap is the part of mgspd's STAT document (an mgsp-obs/v1 registry
// snapshot) the benchmark reads.
type statSnap struct {
	Values map[string]float64 `json:"values"`
	Hists  map[string]struct {
		Count   int64      `json:"count"`
		Sum     int64      `json:"sum"`
		Buckets [][2]int64 `json:"buckets"`
	} `json:"histograms"`
}

func stat(c *client.Client) (*statSnap, error) {
	raw, err := c.Stat()
	if err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}
	var s statSnap
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}
	return &s, nil
}

// histDelta adds the bucket counts name gained between a and b to out and
// returns the gained count and sum.
func histDelta(a, b *statSnap, name string, out *[64]int64) (count, sum float64) {
	ha, hb := a.Hists[name], b.Hists[name]
	for _, bk := range hb.Buckets {
		out[bk[0]] += bk[1]
	}
	for _, bk := range ha.Buckets {
		out[bk[0]] -= bk[1]
	}
	return float64(hb.Count - ha.Count), float64(hb.Sum - ha.Sum)
}

// runKV is the kv-serve workload: rounds of ops requests per client, each
// on a freshly started server, until the budget is spent.
func runKV(r *run, budget time.Duration, ops int) error {
	return r.loop(kvMinRounds, budget, func(rd *round) error {
		return kvRound(r, rd, ops)
	})
}

// kvEnv is one round's server, listener and client connections.
type kvEnv struct {
	srv     *server.Server
	served  chan error
	clients []*client.Client
	files   []*client.File
	stopped bool
}

// stop closes the clients and drains the server (committing queued writes
// and writing every file's shadow logs back), then waits for Serve to
// return. It is safe to call more than once.
func (e *kvEnv) stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	for _, c := range e.clients {
		c.Close()
	}
	e.srv.Close()
	if e.served != nil {
		<-e.served
	}
}

func startKV(seed int64) (*kvEnv, error) {
	srv, err := server.New(server.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	e := &kvEnv{srv: srv}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.served = make(chan error, 1)
	go func() { e.served <- srv.Serve(l) }()
	for w := 0; w < kvClients; w++ {
		c, err := client.Dial(l.Addr().String(), kvTenant)
		if err != nil {
			e.stop()
			return nil, fmt.Errorf("dial: %w", err)
		}
		e.clients = append(e.clients, c)
	}
	return e, nil
}

func kvRound(r *run, rd *round, ops int) error {
	rng := rand.New(rand.NewSource(rd.seed))
	model := make([]byte, kvSlots*kvSlotSize)
	rng.Read(model)
	pool := make([]byte, 64<<10)
	rng.Read(pool)
	// Client w owns the slots perm[w], perm[w+kvClients], ...; its Zipf
	// rank j picks perm[j*kvClients+w], so each client has its own hot set
	// spread over the file.
	perm := rng.Perm(kvSlots)

	t0 := startSetup()
	env, err := startKV(rd.seed)
	if err != nil {
		return err
	}
	defer env.stop()
	if err := preload(env.clients[0], model); err != nil {
		return err
	}
	for _, c := range env.clients {
		f, err := c.Open(kvFile, false)
		if err != nil {
			return fmt.Errorf("open %s: %w", kvFile, err)
		}
		env.files = append(env.files, f)
	}
	r.setup = append(r.setup, time.Since(t0).Seconds())
	before, err := stat(env.clients[0])
	if err != nil {
		return err
	}

	dev := env.srv.Device(0)
	h0 := takeHost()
	var res [kvClients]kvResult
	var wg sync.WaitGroup
	for w := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[w] = kvClient(rd, env.files[w], dev, w, perm, model, pool, ops, rd.seed+int64(w)+1)
		}()
	}
	wg.Wait()
	h1 := takeHost()
	var wallW, wallR []float64
	for w := range res {
		r.merge(&res[w].workerTally)
		wallW = append(wallW, res[w].wallW...)
		wallR = append(wallR, res[w].wallR...)
	}
	r.addHostRound(rd, wallW, wallR, h0, h1, int64(len(wallW)+len(wallR)))
	after, err := stat(env.clients[0])
	if err != nil {
		return err
	}
	r.addStat(before, after, rd.tr != nil)

	if rd.tr != nil {
		for k := 0; k < kvFsyncRTTs; k++ {
			w0 := time.Now()
			err := env.files[0].Fsync()
			r.attempted++
			if err != nil {
				r.fail("fsync: %v", err)
				continue
			}
			r.fsyncRTT = append(r.fsyncRTT, float64(time.Since(w0).Nanoseconds()))
		}
	}

	// Every acknowledged write must survive the drain and a restart.
	env.stop()
	recoverAndVerify(r, rd, dev, kvTenant+"/"+kvFile, model, nil)
	return nil
}

// preload writes the keyspace's initial content in 1 MiB writes and closes
// the file, so the server writes its shadow logs back before the measured
// phase opens it again.
func preload(c *client.Client, model []byte) error {
	f, err := c.Open(kvFile, true)
	if err != nil {
		return fmt.Errorf("create %s: %w", kvFile, err)
	}
	for off := 0; off < len(model); off += server.MaxData {
		if _, err := f.WriteAt(model[off:off+server.MaxData], int64(off)); err != nil {
			return fmt.Errorf("preload @%d: %w", off, err)
		}
	}
	return f.Close()
}

// addStat folds the STAT deltas of one measured phase into the run: the
// virtual latencies of the shard's group commits and reads, the bytes the
// commits wrote, write amplification, and the server and core counters.
// Group commits count only in untraced rounds, the ones whose wall time
// the host figures cover.
func (r *run) addStat(a, b *statSnap, traced bool) {
	_, wSum := histDelta(a, b, "shard0.fs.writev_ns", &r.vtHistW)
	histDelta(a, b, "shard0.fs.read_ns", &r.vtHistR)
	d := delta(a.Values, b.Values, "shard0.")
	r.addLayers(d)
	r.vtBytes += d["core.user_write_bytes"]
	r.vtNs += wSum
	r.mediaW += d["nvm.media_write_bytes"]
	r.userW += d["core.user_write_bytes"]
	var scratch [64]int64
	n, sum := histDelta(a, b, "server.batch_size", &scratch)
	r.batches += n
	r.batchOps += sum
	r.metaAcked += d["core.meta_entries"]
	srv := delta(a.Values, b.Values, "server.")
	r.acked += srv["writes_acked"]
	if !traced {
		r.groupCommits += srv["group_commits"]
	}
}

// kvResult is one kv-serve client's samples.
type kvResult struct {
	workerTally
	wallW, wallR []float64
}

// kvClient runs one closed-loop client for ops requests: 50% writes of 256 B
// to 1 KiB and 50% 1 KiB reads at the start of Zipf(1.1)-ranked slots it
// owns. It alone writes those slots, so model is exact for them and every
// read is checked against it.
func kvClient(rd *round, f *client.File, dev *mgsp.Device, w int, perm []int, model, pool []byte, ops int, seed int64) kvResult {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.1, 1, uint64(len(perm)/kvClients-1))
	var res kvResult
	buf := make([]byte, kvReadSize)
	for k := 0; k < ops; k++ {
		slot := perm[int(z.Uint64())*kvClients+w]
		off := int64(slot) * kvSlotSize
		req := uint64(w)<<32 | uint64(k)
		res.attempted++
		if rng.Intn(2) == 0 {
			n := 256 + rng.Intn(769)
			p := rng.Intn(len(pool) - n)
			data := pool[p : p+n]
			wn, err := rd.clientCall(req, dev, f, true, data, off)
			if err != nil {
				res.fail("client %d write %d B @%d: %v", w, n, off, err)
				continue
			}
			copy(model[off:], data)
			res.wallW = append(res.wallW, float64(wn))
			continue
		}
		wn, err := rd.clientCall(req, dev, f, false, buf, off)
		if err != nil {
			res.fail("client %d read @%d: %v", w, off, err)
			continue
		}
		if !bytes.Equal(buf, model[off:off+kvReadSize]) {
			res.fail("client %d read @%d does not match its last write", w, off)
		}
		res.wallR = append(res.wallR, float64(wn))
	}
	return res
}
