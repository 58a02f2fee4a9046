// Command perfbench is the repository's benchmark: one command that runs
// named workloads against MGSP through its public entry points, checks
// every result, and prints end-to-end metrics (or, traced, per-layer ones)
// with their units and sample counts. Run it from the repository root:
//
//	bash perfbench/run.sh --workload core-small-write --seed 1 --seconds 30 --trace 0
//
// --workload all runs every workload in one process. The last line of the
// output is one JSON object {correct, attempted, failed, metrics}; the line
// before it records provenance (revision, Go version, nproc, GOMAXPROCS,
// seed, wall seconds per workload). The exit code is 1 when any operation
// or check failed.
//
// The system has two clocks. Virtual time (vt_*, recovery_vt_ms) comes from
// the simulator's cost model and carries the paper's claims; host time
// (wall_*, host_cpu_ns_per_op, setup_s) is what mgspd clients and
// simulator users wait for. Every call is timed from outside; counters are
// read from the FS registry (FS.Obs, which publishes FS.Stats and
// Device.Stats) or, for mgspd, from the same registry through STAT.
//
// Every workload reports every end-to-end metric, so each has to mean
// something, never read 0, and repeat on every workload:
//
//   - wall_write_p50_us, wall_read_p50_us: host wall time per public call
//     (client.File calls on kv-serve, File.WriteAt/ReadAt in-process on
//     the core workloads; on core-small-write the reads are the read-back
//     of the file).
//   - vt_write_p50_ns, vt_write_p99_ns: virtual time per write; on
//     kv-serve, per group commit (the virtual time every write in the batch
//     waits for), read from mgspd's STAT histogram.
//   - recovery_vt_ms: virtual time of Mount; after a seeded crash on the
//     core workloads, after the server's drain on kv-serve.
//   - write_amp: media write bytes per user write byte.
//   - host_cpu_ns_per_op: process user+system CPU per operation.
//   - setup_s: one round's set-up (format, layout, server start, preload),
//     timed from a collected heap. The inputs are generated before the
//     clock starts, so the figure is the program's set-up alone.
//
// Failures are not a metric (a ratio that is 0 when all is well cannot have
// a relative bound): the result line's attempted and failed count every
// operation and check, errors and mismatches alike.
//
// Virtual read latency and virtual throughput are per-layer metrics
// (core.read_vt_p50_ns, core.read_vt_p99_ns, core.vt_mib_per_s) because
// kv-serve has no stable figure for them: mgspd starts each request's
// virtual clock at zero, so the read latencies in its STAT histogram
// include the jump to the batcher's lock release times, and the group
// commits absorb those jumps in turn. After the restart every read costs
// the same on every seed.
//
// # Workloads
//
// kv-serve: an in-process mgspd at its shipped defaults (1 shard, 64 MiB
// device, 200 µs batch linger, no cleaner, no backpressure) on loopback
// TCP, driven by 2 client connections, each one goroutine in a closed loop
// (callers block on each durable ack). Requests are 50% writes of 256 B to
// 1 KiB and 50% 1 KiB reads at the start of Zipf(1.1)-ranked 4 KiB slots of
// a 16 MiB keyspace; each client owns disjoint slots, so every read is
// checked. It is the only workload where the wire protocol, the group-commit
// batcher and its linger, and host wall-clock cost dominate; the core does
// little. The keyspace stays at 16 MiB because a 64 MiB keyspace on the
// 64 MiB shard fails with "alloc: out of space". Each round restarts the
// server; after the drain the shard device is remounted and every slot must
// hold its owner's last acknowledged write.
//
// core-small-write: MGSP defaults in-process, one worker, on a 64 MiB
// laid-out file: random aligned writes of 256 B, 512 B, 1 KiB or 2 KiB, the
// paper's sub-block regime (Fig. 8 <4K, Table II), where in-cache-line
// logging, write-path allocations and recovery act. The whole file is then
// read back while the shadow logs are live (these reads are the workload's
// read samples), a seeded crash is armed inside a final write burst, the
// device is recovered, Mount is timed on the virtual clock, and the file is
// read back again: every acknowledged write must be there, and only the
// write in flight at the crash may show its old or its new content. A
// single handle takes MGL's greedy path, so this workload bypasses the
// server and MGL contention.
//
// core-shared-mixed: MGSP defaults, 2 goroutines each with its own handle
// and Ctx on one shared 32 MiB file: 4 KiB ops at Zipf(1.1) offsets, 70%
// reads and 30% writes, every write stamped (worker, seq) in each 16-byte
// chunk so a torn or misdirected read fails its check. Concurrent readers
// against a writer exercise MGL, optimistic reads and their fallbacks, and
// the metadata log's per-worker areas; the sub-block path stays idle. It
// ends with the same seeded crash and read-back as core-small-write.
//
// No workload enables the DRAM cache: no shipped caller turns it on.
//
// # Rounds and steadiness
//
// Every workload repeats rounds until the --seconds budget is spent, at
// least three. A core round is fixed-size: set-up, measured phase, crash,
// recovery, read-back. A kv-serve round starts a fresh server and runs a
// fixed number of requests per client. Only the first three rounds feed
// recovery_vt_ms, and on the core workloads the other virtual-time metrics
// and write_amp, so a seed fixes them bit for bit however many rounds the
// host manages. Host-side figures are computed
// per round and reported as the median over rounds, so noise from the rest
// of the machine that spoils one round does not move them; setup_s is the
// median of the rounds' set-up times.
//
// Percentiles use the mid-distribution quantile (see quantile): virtual
// samples tie heavily, and a plain order statistic would read the same on
// every seed. mgspd's virtual latencies are read from its STAT log2
// histograms by interpolating within the bucket.
//
// The wall p90s (host.wall_write_p90_us, host.wall_read_p90_us) and the
// operation rate (host.ops_per_s) are per-layer metrics: on the 2-vCPU
// shared host the benchmark was sized on, kv-serve's p90s doubled in whole
// runs when the host was contended (write p90 1.4 ms in most runs, 2.9 ms
// in some), and the operation rate follows the latency tail. Wall p99 is
// not reported: mgspd's write p99 swung from 1.9 to 3.1 ms between
// identical 12 s runs. Host cost is CPU ns per op (user+system), not wall
// ns per op, which spread 26% between identical in-process runs against 8%
// for CPU.
//
// # Tracing
//
// With --trace 1 rounds alternate traced and untraced. Traced rounds record
// a span around every public call the benchmark makes (client.WriteAt,
// client.ReadAt, core.WriteAt, core.ReadAt, core.Mount) with wall and
// virtual start and end, parent, request ID and device counter deltas; the
// spans are kept in memory and written to <--spans>/spans-<workload>.jsonl
// at exit. The traced run reports the per-layer metrics, per-span p50/p90,
// and the tracing overhead: traced minus untraced rounds' figures. Its
// host.* figures come from the untraced rounds alone, since the tracer
// allocates for its spans, and its counters are per op, so neither depends
// on how many rounds the budget allowed.
package main
