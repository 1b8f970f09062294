package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	forkoram "forkoram"
	"forkoram/internal/pathoram"
	"forkoram/internal/wal"
)

// frontDoor is what the benches drive of a Service or ShardedService.
type frontDoor interface {
	Read(ctx context.Context, addr uint64) ([]byte, error)
	Write(ctx context.Context, addr uint64, data []byte) error
}

// clientStats is what the driver measured over its timed window.
type clientStats struct {
	Ops        int           `json:"ops"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	OpsPerSec  float64       `json:"ops_per_sec"`
	P50Latency time.Duration `json:"p50_latency_ns"`
	P99Latency time.Duration `json:"p99_latency_ns"`
}

// drive is the closed-loop client driver of every service bench: clients
// goroutines, client c issuing op(c, i) for i = 0, 1, ... back to back,
// perClient ops each or, when perClient is 0, until stop closes. It
// times every op and summarizes the latencies; a client stops at its
// first op error, and every such error is returned.
func drive(clients, perClient int, stop <-chan struct{}, op func(c, i int) error) (clientStats, error) {
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; perClient == 0 || i < perClient; i++ {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if err := op(c, i); err != nil {
					errs[c] = err
					return
				}
				lats[c] = append(lats[c], time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	st := clientStats{Elapsed: time.Since(start)}
	all := slices.Concat(lats...)
	slices.Sort(all)
	st.Ops = len(all)
	if sec := st.Elapsed.Seconds(); sec > 0 {
		st.OpsPerSec = float64(st.Ops) / sec
	}
	st.P50Latency, st.P99Latency = percentile(all, 50), percentile(all, 99)
	return st, errors.Join(errs...)
}

// rwOp is the svc and tier benches' op. Client c's op i is op
// n = c·perClient + i of the run: a write of a seeded payload to
// address n·2654435761 mod blocks or, with mixed and n odd, a read of
// that address.
func rwOp(svc frontDoor, cfg svcConfig, mixed bool) func(c, i int) error {
	perClient := cfg.perClient()
	return func(c, i int) error {
		n := uint64(c*perClient + i)
		addr := n * 2654435761 % cfg.blocks
		if mixed && n%2 == 1 {
			_, err := svc.Read(context.Background(), addr)
			return err
		}
		return svc.Write(context.Background(), addr, payload(cfg.blockSize, cfg.seed, n+1))
	}
}

// warm writes once per client outside the timed window, so the first
// timed ops do not pay the device's and journal's first touch.
func warm(svc frontDoor, cfg svcConfig) error {
	for c := 0; c < cfg.clients; c++ {
		if err := svc.Write(context.Background(), uint64(c)%cfg.blocks, payload(cfg.blockSize, cfg.seed, uint64(c)+1)); err != nil {
			return err
		}
	}
	return nil
}

// percentile returns the p-th percentile of sorted durations
// (nearest-rank; zero for an empty slice).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)*p + 99) / 100
	if i > 0 {
		i--
	}
	return sorted[i]
}

// payload is op n's block content, distinct per (seed, n). Block sizes
// here are at least 16 bytes.
func payload(size int, seed, n uint64) []byte {
	data := make([]byte, size)
	binary.LittleEndian.PutUint64(data, seed)
	binary.LittleEndian.PutUint64(data[8:], n)
	return data
}

// svcConfig parameterizes the service benches: concurrent clients
// drive durable ops through the admission queue over file-backed
// journals.
type svcConfig struct {
	blocks    uint64
	blockSize int
	clients   int
	ops       int // acknowledged ops per run, split evenly among clients
	shards    int // > 1 runs a ShardedService fleet, one journal per shard
	seed      uint64
	depth     int // DeviceConfig.PipelineDepth
	workers   int // DeviceConfig.ServeWorkers
	// remoteLatency, when > 0, interposes a simulated remote tier
	// charging this round trip per bulk call, so fetch/writeback overlap
	// buys wall-clock time even when every goroutine shares one core.
	remoteLatency time.Duration
}

// perClient is each client's share of the run's ops (at least one).
func (c svcConfig) perClient() int { return max(c.ops/c.clients, 1) }

// svcRun is one measured configuration.
type svcRun struct {
	clientStats
	WALSyncs      uint64  `json:"wal_syncs"`
	WALSyncsPerOp float64 `json:"wal_syncs_per_op"`
	Groups        uint64  `json:"groups"`
	MeanGroupSize float64 `json:"mean_group_size"`
	// GroupSizes histograms dispatch-window sizes: buckets 1, 2, 3–4,
	// 5–8, 9–16, 17–32, 33–64, 65–128, 129+.
	GroupSizes [9]uint64 `json:"group_size_hist"`
	// Pipeline holds the pipeline counter deltas for this run (zero
	// when the depth is <= 1).
	Pipeline pathoram.PipelineStats `json:"pipeline"`
}

// svcResult pairs the grouped run with its one-sync-per-op baseline
// (MaxGroupSize 1, the pipeline before group commit). Both runs use the
// same workload, geometry and journal medium, so the ratio isolates
// what group commit buys.
type svcResult struct {
	cfg               svcConfig
	grouped, baseline svcRun
	speedup           float64 // grouped over baseline ops/s
}

func (r svcResult) String() string {
	line := func(name string, run svcRun) string {
		return fmt.Sprintf("  %-8s %9.0f ops/s, p50 %8s, p99 %8s, %.3f syncs/op, mean group %.1f\n",
			name, run.OpsPerSec, run.P50Latency.Round(time.Microsecond),
			run.P99Latency.Round(time.Microsecond), run.WALSyncsPerOp, run.MeanGroupSize)
	}
	return fmt.Sprintf("service group-commit bench (%d ops per run, %d shard(s), file-backed journals):\n",
		r.grouped.Ops, r.cfg.shards) +
		line("grouped", r.grouped) + line("baseline", r.baseline) +
		fmt.Sprintf("  group-commit speedup: %.2fx\n", r.speedup)
}

// runSvcBench measures end-to-end write throughput, grouped vs. one
// sync per op.
func runSvcBench(cfg svcConfig) (svcResult, error) {
	res := svcResult{cfg: cfg}
	dir, err := os.MkdirTemp("", "orambench-svc")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	if res.grouped, err = runSvc(cfg, dir, "grouped", 0); err != nil {
		return res, fmt.Errorf("grouped run: %w", err)
	}
	if res.baseline, err = runSvc(cfg, dir, "baseline", 1); err != nil {
		return res, fmt.Errorf("baseline run: %w", err)
	}
	if res.baseline.OpsPerSec > 0 {
		res.speedup = res.grouped.OpsPerSec / res.baseline.OpsPerSec
	}
	return res, nil
}

// runSvc stands up one Service (or a ShardedService fleet, one file
// journal per shard) over fresh journals in dir and times the write
// load through it.
func runSvc(cfg svcConfig, dir, name string, maxGroup int) (svcRun, error) {
	var run svcRun
	tmpl := forkoram.ServiceConfig{
		Device: forkoram.DeviceConfig{
			Blocks:        cfg.blocks,
			BlockSize:     cfg.blockSize,
			QueueSize:     8,
			Seed:          cfg.seed,
			Variant:       forkoram.Fork,
			PipelineDepth: cfg.depth,
			ServeWorkers:  cfg.workers,
		},
		QueueDepth: 2 * cfg.clients,
		// Checkpoints clone the whole medium; keep them out of the timed
		// window so every run measures the journal-and-apply pipeline.
		CheckpointEvery: 1 << 30,
		MaxGroupSize:    maxGroup,
	}
	if cfg.remoteLatency > 0 {
		tmpl.Device.Storage.Remote = &forkoram.RemoteConfig{
			ReadLatency:  cfg.remoteLatency,
			WriteLatency: cfg.remoteLatency,
		}
	}
	var (
		svc   frontDoor
		stats func() forkoram.ServiceStats
	)
	if cfg.shards > 1 {
		sh, closeFleet, err := openFleet(filepath.Join(dir, name),
			forkoram.ShardedServiceConfig{Shards: cfg.shards, Service: tmpl})
		if err != nil {
			return run, err
		}
		defer closeFleet()
		svc, stats = sh, func() forkoram.ServiceStats { return sh.Stats().Total }
	} else {
		s, closeSvc, err := openService(filepath.Join(dir, name+".wal"), tmpl)
		if err != nil {
			return run, err
		}
		defer closeSvc()
		svc, stats = s, s.Stats
	}

	if err := warm(svc, cfg); err != nil {
		return run, err
	}
	before := stats()
	st, err := drive(cfg.clients, cfg.perClient(), nil, rwOp(svc, cfg, false))
	if err != nil {
		return run, err
	}
	after := stats()
	run.clientStats = st
	run.WALSyncs = after.WALSyncs - before.WALSyncs
	run.WALSyncsPerOp = float64(run.WALSyncs) / float64(st.Ops)
	run.Groups = after.Groups - before.Groups
	if run.Groups > 0 {
		run.MeanGroupSize = float64(after.GroupedOps-before.GroupedOps) / float64(run.Groups)
	}
	for i := range run.GroupSizes {
		run.GroupSizes[i] = after.GroupSizes[i] - before.GroupSizes[i]
	}
	run.Pipeline = after.Pipeline.Delta(before.Pipeline)
	return run, nil
}

// openService opens a Service journaling to the file at walPath, with
// in-memory checkpoints, and returns it with a func that closes the
// Service, then the journal.
func openService(walPath string, sc forkoram.ServiceConfig) (*forkoram.Service, func(), error) {
	st, err := forkoram.OpenWALFile(walPath)
	if err != nil {
		return nil, nil, err
	}
	sc.WAL, sc.Checkpoints = st, forkoram.NewMemCheckpointStore()
	s, err := forkoram.NewService(sc)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return s, func() { s.Close(); st.Close() }, nil
}

// openFleet opens a ShardedService whose shards journal to files named
// from prefix, one per (policy version, shard), with in-memory
// checkpoints, and returns it with a func that closes the fleet, then
// the journals.
func openFleet(prefix string, cfg forkoram.ShardedServiceConfig) (*forkoram.ShardedService, func(), error) {
	var (
		mu      sync.Mutex
		stores  []*wal.FileStore
		openErr error
	)
	closeStores := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, st := range stores {
			st.Close()
		}
	}
	// The hook cannot return an error; open errors surface below.
	cfg.PerShard = func(p forkoram.RoutingPolicy, shard int, sc *forkoram.ServiceConfig) {
		st, err := forkoram.OpenWALFile(fmt.Sprintf("%s.v%d.shard%d.wal", prefix, p.Version, shard))
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			openErr = errors.Join(openErr, err)
			return
		}
		stores = append(stores, st)
		sc.WAL, sc.Checkpoints = st, forkoram.NewMemCheckpointStore()
	}
	svc, err := forkoram.NewShardedService(cfg)
	mu.Lock()
	err = errors.Join(openErr, err)
	mu.Unlock()
	if err != nil {
		if svc != nil {
			svc.Close()
		}
		closeStores()
		return nil, nil, err
	}
	return svc, func() { svc.Close(); closeStores() }, nil
}

// sweepCell is one (GOMAXPROCS, pipeline depth, serve workers) point.
type sweepCell struct{ gomaxprocs, depth, workers int }

// mcCells is the multi-core grid: at GOMAXPROCS 1 and 4, the serial
// engine, the pipeline with one serve worker, and with four.
var mcCells = []sweepCell{{1, 1, 0}, {1, 4, 1}, {1, 4, 4}, {4, 1, 0}, {4, 4, 1}, {4, 4, 4}}

// sweepRun is one measured cell. GOMAXPROCS and the core count are
// stamped per entry, as measured, so no aggregate can hide an entry
// taken under a different scheduler width.
type sweepRun struct {
	Gomaxprocs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Depth      int    `json:"depth"`
	Workers    int    `json:"serve_workers"`
	Run        svcRun `json:"run"`
	// Speedup is OpsPerSec over the depth-1 cell before it at the same
	// GOMAXPROCS (1.0 for that baseline cell itself).
	Speedup float64 `json:"speedup"`
}

// sweepResult is the grouped write load measured over a list of cells.
type sweepResult struct {
	remoteLatency time.Duration
	runs          []sweepRun
	// best is the fastest concurrent cell (two or more serve workers),
	// zero when the sweep has none.
	best sweepRun
}

func (r sweepResult) String() string {
	var b strings.Builder
	ops := 0
	if len(r.runs) > 0 {
		ops = r.runs[0].Run.Ops
	}
	fmt.Fprintf(&b, "service pipeline sweep (%d ops per run, host cores %d, remote RTT %s):\n",
		ops, runtime.NumCPU(), r.remoteLatency)
	fmt.Fprintf(&b, "  %4s  %5s  %7s  %10s  %7s  %10s  %10s  %10s  %10s  %10s  %10s\n", "gmp", "depth", "workers",
		"ops/s", "speedup", "p99", "fetch-wait", "evict-wait", "wb-wait", "dep-wait", "serve-wait")
	us := func(ns uint64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	for _, c := range r.runs {
		p := c.Run.Pipeline
		fmt.Fprintf(&b, "  %4d  %5d  %7d  %10.0f  %6.2fx  %10s  %10s  %10s  %10s  %10s  %10s\n",
			c.Gomaxprocs, c.Depth, c.Workers, c.Run.OpsPerSec, c.Speedup,
			c.Run.P99Latency.Round(time.Microsecond), us(p.FetchWaitNs), us(p.EvictWaitNs),
			us(p.WritebackWaitNs), us(p.DepWaitNs), us(p.ServeWaitNs))
	}
	if r.best.Workers >= 2 {
		fmt.Fprintf(&b, "  best concurrent cell: %.2fx at GOMAXPROCS=%d depth=%d workers=%d\n",
			r.best.Speedup, r.best.Gomaxprocs, r.best.Depth, r.best.Workers)
	}
	return b.String()
}

// runSweep measures the grouped write load at every cell, in order,
// setting GOMAXPROCS per cell and restoring it afterwards. A cell's
// speedup is over the depth-1 cell last measured before it.
func runSweep(cfg svcConfig, cells []sweepCell) (sweepResult, error) {
	res := sweepResult{remoteLatency: cfg.remoteLatency}
	dir, err := os.MkdirTemp("", "orambench-sweep")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base float64
	for _, cell := range cells {
		runtime.GOMAXPROCS(cell.gomaxprocs)
		ccfg := cfg
		ccfg.depth, ccfg.workers = cell.depth, cell.workers
		run, err := runSvc(ccfg, dir, fmt.Sprintf("g%d.d%d.w%d", cell.gomaxprocs, cell.depth, cell.workers), 0)
		if err != nil {
			return res, fmt.Errorf("gomaxprocs=%d depth=%d workers=%d: %w", cell.gomaxprocs, cell.depth, cell.workers, err)
		}
		if cell.depth == 1 || base == 0 {
			base = run.OpsPerSec
		}
		c := sweepRun{Gomaxprocs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Depth: cell.depth, Workers: cell.workers, Run: run}
		if base > 0 {
			c.Speedup = run.OpsPerSec / base
		}
		res.runs = append(res.runs, c)
		if c.Workers >= 2 && c.Speedup > res.best.Speedup {
			res.best = c
		}
	}
	return res, nil
}

// Reshard bench geometry: a 512-block fleet of 64-byte blocks, split in
// 32-block chunks under four concurrent writers.
const (
	reshardBlocks    = 512
	reshardBlockSize = 64
	reshardChunk     = 32
	reshardClients   = 4
)

// reshardResult is one measured online migration.
type reshardResult struct {
	from, to int
	// elapsed times the Reshard call; mig is the migrator's counters.
	elapsed time.Duration
	mig     forkoram.MigrationStats
	// clients measures the writes pushed through the dual-routed front
	// door while the migration ran.
	clients clientStats
}

func (r reshardResult) blocksPerSec() float64 {
	if sec := r.elapsed.Seconds(); sec > 0 {
		return float64(r.mig.BlocksMoved) / sec
	}
	return 0
}

func (r reshardResult) String() string {
	return fmt.Sprintf("online reshard bench (%d blocks, %d→%d shards, file-backed journals):\n",
		reshardBlocks, r.from, r.to) +
		fmt.Sprintf("  migration: %8s, %9.0f blocks/s in %d chunks, write-barrier stall %s\n",
			r.elapsed.Round(time.Millisecond), r.blocksPerSec(), r.mig.Chunks,
			time.Duration(r.mig.StallNs).Round(time.Microsecond)) +
		fmt.Sprintf("  clients:   %9.0f ops/s during migration (%d ops, p99 %s) — no full-stop window\n",
			r.clients.OpsPerSec, r.clients.Ops, r.clients.P99Latency.Round(time.Microsecond))
}

// runReshardBench stands a fleet of from shards up over per-(version,
// shard) file journals and a file-backed router journal, prefills every
// block, then times one online split to `to` shards while concurrent
// writers keep driving the front door. Client writes ride dual routing
// the whole way: the only hold is the per-chunk write barrier, which
// the migration's StallNs exposes.
func runReshardBench(from, to int, seed uint64) (reshardResult, error) {
	res := reshardResult{from: from, to: to}
	dir, err := os.MkdirTemp("", "orambench-reshard")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	rstore, err := forkoram.OpenWALFile(filepath.Join(dir, "router.wal"))
	if err != nil {
		return res, err
	}
	defer rstore.Close()
	svc, closeFleet, err := openFleet(filepath.Join(dir, "shard"), forkoram.ShardedServiceConfig{
		Shards: from,
		Service: forkoram.ServiceConfig{
			Device: forkoram.DeviceConfig{
				Blocks:    reshardBlocks,
				BlockSize: reshardBlockSize,
				QueueSize: 8,
				Seed:      seed,
				Variant:   forkoram.Fork,
			},
			QueueDepth:      16,
			CheckpointEvery: 1 << 30,
		},
		RouterWAL: rstore,
	})
	if err != nil {
		return res, err
	}
	defer closeFleet()

	ctx := context.Background()
	for addr := uint64(0); addr < reshardBlocks; addr++ {
		if err := svc.Write(ctx, addr, payload(reshardBlockSize, seed, addr+1)); err != nil {
			return res, err
		}
	}
	stop := make(chan struct{})
	type driven struct {
		st  clientStats
		err error
	}
	done := make(chan driven, 1)
	go func() {
		// Client c's op i writes address i·2654435761 + c, so at each
		// step the clients hit neighbouring addresses.
		st, err := drive(reshardClients, 0, stop, func(c, i int) error {
			addr := (uint64(i)*2654435761 + uint64(c)) % reshardBlocks
			return svc.Write(ctx, addr, payload(reshardBlockSize, seed^uint64(c+1), uint64(i)+1))
		})
		done <- driven{st, err}
	}()
	start := time.Now()
	rerr := svc.Reshard(ctx, forkoram.ReshardConfig{NewShards: to, ChunkBlocks: reshardChunk})
	res.elapsed = time.Since(start)
	close(stop)
	d := <-done
	res.clients = d.st
	if err := errors.Join(rerr, d.err); err != nil {
		return res, err
	}
	res.mig = svc.Stats().Migration
	return res, nil
}
