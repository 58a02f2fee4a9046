package bench

// This file holds the server-side experiments (mgspd workloads). Unlike
// the figure experiments, which drive core in-process in virtual time,
// these push bytes through the server's protocol and group-commit batcher —
// so the numbers that matter are the batching ones (ops per WriteMulti,
// metadata entries per acked write), not simulated-media MiB/s.

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"time"

	"mgsp/internal/obs"
	"mgsp/internal/server"
	"mgsp/internal/server/client"
)

// serveEnv abstracts where the server lives: started in-process (addr ""),
// or a live mgspd reached over TCP. Both are driven through the client
// package, so the protocol path is identical.
type serveEnv struct {
	srv    *server.Server // nil in live mode
	addr   string
	conns  []*client.Client
	tenant string
}

func newServeEnv(addr, tenant string) (*serveEnv, error) {
	env := &serveEnv{addr: addr, tenant: tenant}
	if addr == "" {
		srv, err := server.New(server.Config{})
		if err != nil {
			return nil, err
		}
		env.srv = srv
	}
	return env, nil
}

func (e *serveEnv) client() (*client.Client, error) {
	var c *client.Client
	var err error
	if e.srv != nil {
		cc, sc := net.Pipe()
		go e.srv.ServeConn(sc)
		c, err = client.New(cc, e.tenant)
	} else {
		c, err = client.Dial(e.addr, e.tenant)
	}
	if err != nil {
		return nil, err
	}
	e.conns = append(e.conns, c)
	return c, nil
}

// snapshot fetches the server's merged obs snapshot through whichever side
// we have (STAT over the wire in live mode keeps it honest).
func (e *serveEnv) snapshot() (*obs.Snapshot, error) {
	if len(e.conns) == 0 {
		return nil, fmt.Errorf("bench: no connection for STAT")
	}
	raw, err := e.conns[0].Stat()
	if err != nil {
		return nil, err
	}
	return obs.ParseSnapshot(raw)
}

func (e *serveEnv) close() {
	for _, c := range e.conns {
		c.Close()
	}
	e.conns = nil
	if e.srv != nil {
		e.srv.Close()
	}
}

// serveCols are the columns both server experiments report.
var serveCols = []string{"writes/s", "reads/s", "mean batch", "meta/ack", "shed", "queue µs"}

// fillServeStats computes the batching columns from a snapshot delta.
func fillServeStats(t *Table, row int, before, after *obs.Snapshot) {
	d := after.Diff(before)
	if h, ok := d.Hists["server.batch_size"]; ok {
		t.Cells[row][2] = h.Mean
	}
	var meta float64
	for name, v := range d.Values {
		if strings.HasSuffix(name, ".core.meta_entries") {
			meta += v
		}
	}
	if acked := d.Values["server.writes_acked"]; acked > 0 {
		t.Cells[row][3] = meta / acked
	}
	t.Cells[row][4] = d.Values["server.shed"]
	if h, ok := d.Hists["server.queue_wait_ns"]; ok {
		t.Cells[row][5] = h.Mean / 1e3
	}
}

// threadRows picks the client-count axis from the scale.
func threadRows(sc Scale) []int {
	counts := []int{1}
	if h := sc.MaxThreads / 2; h > 1 {
		counts = append(counts, h)
	}
	if sc.MaxThreads > counts[len(counts)-1] {
		counts = append(counts, sc.MaxThreads)
	}
	return counts
}

// KV is the `-exp kv` experiment: concurrent clients doing 256B–1KiB point
// writes into a shared 4 KiB-slotted keyspace, then point reads — the
// workload ISSUE 6's coalescing acceptance criterion describes. addr ""
// runs an in-process server; otherwise the workload drives a live mgspd.
func KV(sc Scale, addr string) (*Table, error) {
	counts := threadRows(sc)
	rows := make([]string, len(counts))
	for i, n := range counts {
		rows[i] = fmt.Sprintf("%d clients", n)
	}
	t := NewTable("serve-kv", "mgspd KV point writes/reads", "ops/s (wall) + batching", serveCols, rows)
	t.Notes = append(t.Notes,
		"mean batch = ops per WriteMulti group commit; meta/ack = metadata-log entries per acked write (<1 means the flush is amortized); queue µs = mean wall time from enqueue to the start of the write's group commit")

	const slots = 1024
	const slotSize = 4096
	for ri, n := range counts {
		env, err := newServeEnv(addr, "bench-kv")
		if err != nil {
			return nil, err
		}
		err = func() error {
			files := make([]*client.File, n)
			for i := 0; i < n; i++ {
				c, err := env.client()
				if err != nil {
					return err
				}
				if files[i], err = c.Open("kv", true); err != nil {
					return err
				}
			}
			before, err := env.snapshot()
			if err != nil {
				return err
			}

			start := time.Now()
			errs := make(chan error, n)
			for i := 0; i < n; i++ {
				go func(i int) {
					rng := rand.New(rand.NewSource(int64(i) + 1))
					buf := make([]byte, 1024)
					for j := 0; j < sc.Ops; j++ {
						size := 256 + rng.Intn(769)
						for k := range buf[:size] {
							buf[k] = byte(i + j + k)
						}
						off := int64(rng.Intn(slots)) * slotSize
						if _, err := files[i].WriteAt(buf[:size], off); err != nil && err != server.ErrBusy {
							errs <- fmt.Errorf("client %d write %d: %w", i, j, err)
							return
						}
					}
					errs <- nil
				}(i)
			}
			for i := 0; i < n; i++ {
				if err := <-errs; err != nil {
					return err
				}
			}
			writeDur := time.Since(start)

			start = time.Now()
			for i := 0; i < n; i++ {
				go func(i int) {
					rng := rand.New(rand.NewSource(int64(i) + 1001))
					buf := make([]byte, 1024)
					for j := 0; j < sc.Ops; j++ {
						off := int64(rng.Intn(slots)) * slotSize
						if _, err := files[i].ReadAt(buf, off); err != nil {
							errs <- fmt.Errorf("client %d read %d: %w", i, j, err)
							return
						}
					}
					errs <- nil
				}(i)
			}
			for i := 0; i < n; i++ {
				if err := <-errs; err != nil {
					return err
				}
			}
			readDur := time.Since(start)

			after, err := env.snapshot()
			if err != nil {
				return err
			}
			ops := float64(n * sc.Ops)
			t.Cells[ri][0] = ops / writeDur.Seconds()
			t.Cells[ri][1] = ops / readDur.Seconds()
			fillServeStats(t, ri, before, after)
			return nil
		}()
		env.close()
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Ingest is the `-exp ingest` experiment: each client appends variable-size
// records to its own log file — the NVLog-shaped traffic where every write
// extends the file and the shadow log only grows until the cleaner (or
// close-time write-back) catches up.
func Ingest(sc Scale, addr string) (*Table, error) {
	counts := threadRows(sc)
	rows := make([]string, len(counts))
	for i, n := range counts {
		rows[i] = fmt.Sprintf("%d writers", n)
	}
	t := NewTable("serve-ingest", "mgspd log ingestion (append-heavy)", "ops/s (wall) + batching", serveCols, rows)
	t.Notes = append(t.Notes, "each writer appends 256B-1KiB records to a private log; reads/s is the tail re-read rate")

	for ri, n := range counts {
		env, err := newServeEnv(addr, "bench-ingest")
		if err != nil {
			return nil, err
		}
		err = func() error {
			files := make([]*client.File, n)
			for i := 0; i < n; i++ {
				c, err := env.client()
				if err != nil {
					return err
				}
				if files[i], err = c.Open(fmt.Sprintf("log%d", i), true); err != nil {
					return err
				}
			}
			before, err := env.snapshot()
			if err != nil {
				return err
			}

			start := time.Now()
			errs := make(chan error, n)
			tails := make([]int64, n)
			for i := 0; i < n; i++ {
				go func(i int) {
					rng := rand.New(rand.NewSource(int64(i) + 42))
					buf := make([]byte, 1024)
					var cursor int64
					for j := 0; j < sc.Ops; j++ {
						size := 256 + rng.Intn(769)
						for k := range buf[:size] {
							buf[k] = byte(j + k)
						}
						if _, err := files[i].WriteAt(buf[:size], cursor); err != nil && err != server.ErrBusy {
							errs <- fmt.Errorf("writer %d append %d: %w", i, j, err)
							return
						} else if err == nil {
							cursor += int64(size)
						}
					}
					tails[i] = cursor
					errs <- nil
				}(i)
			}
			for i := 0; i < n; i++ {
				if err := <-errs; err != nil {
					return err
				}
			}
			writeDur := time.Since(start)

			// Tail re-read: the consumer catching up on what it ingested.
			start = time.Now()
			var reads int
			for i := 0; i < n; i++ {
				buf := make([]byte, 4096)
				for off := int64(0); off < tails[i]; off += 4096 {
					if _, err := files[i].ReadAt(buf, off); err != nil {
						return fmt.Errorf("tail read %d@%d: %w", i, off, err)
					}
					reads++
				}
			}
			readDur := time.Since(start)

			after, err := env.snapshot()
			if err != nil {
				return err
			}
			t.Cells[ri][0] = float64(n*sc.Ops) / writeDur.Seconds()
			if reads > 0 {
				t.Cells[ri][1] = float64(reads) / readDur.Seconds()
			}
			fillServeStats(t, ri, before, after)
			return nil
		}()
		env.close()
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
