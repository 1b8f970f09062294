// Command orambench regenerates the paper's evaluation: every figure of
// §5 plus the design-choice ablations, printed as text tables.
//
// Examples:
//
//	orambench                      # all experiments at reduced scale
//	orambench -experiment fig12    # one figure
//	orambench -mixes 4 -requests 1500   # faster sweep
//	orambench -parallel 4          # four simulations in flight
//	orambench -json                # also write BENCH_<date>.json
//	orambench -paper               # Table 1 geometry (slow, memory-hungry)
//	orambench -svc                 # only the Service group-commit bench
//	orambench -svc -shards 8 -json # sharded fleet bench, recorded to json
//	orambench -svc -pipeline-depth 4    # pipelined device under the svc bench
//	orambench -svc -pipeline-depth 4 -serve-workers 4  # four serve workers
//	orambench -pipeline-sweep -json     # depth sweep (1,2,4) comparison table
//	orambench -mc-sweep -json           # gomaxprocs × depth × workers baseline
//	orambench -mc-sweep -require-mc     # fail unless GOMAXPROCS>=4 hits 1.3x
//	orambench -reshard -json       # online reshard under concurrent writers
//	orambench -gomaxprocs 8        # pin the Go scheduler width for the run
//	orambench -cpuprofile cpu.out  # profile the run for go tool pprof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	forkoram "forkoram"
	"forkoram/internal/bench"
	"forkoram/internal/prof"
)

// benchReport is the perf-trajectory record -json writes: enough to
// compare harness throughput and hot-path cost across commits. Every
// section a partial run might leave unmeasured carries omitempty, so
// writeReport can merge the day's runs instead of zeroing each other.
type benchReport struct {
	Date        string             `json:"date"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Parallel    int                `json:"parallel,omitempty"`
	Experiments []experimentReport `json:"experiments,omitempty"`
	WallSeconds float64            `json:"wall_seconds"`
	SimRuns     uint64             `json:"sim_runs,omitempty"`
	RunsPerSec  float64            `json:"runs_per_sec,omitempty"`
	// Speedup is aggregate simulation busy time / wall time: the
	// effective parallelism the worker pool achieved.
	Speedup float64 `json:"speedup,omitempty"`
	// Fork-engine access-loop microbenchmark (see bench.AccessLoopStats).
	AccessAllocsPerOp float64 `json:"access_allocs_per_op,omitempty"`
	AccessNSPerOp     float64 `json:"access_ns_per_op,omitempty"`
	// Supervised-recovery latency probe (see RecoveryLoopStats): full
	// heals per second, and journal records replayed per second while
	// healing.
	RecoverHealsPerSec     float64 `json:"recover_heals_per_sec,omitempty"`
	RecoverReplayOpsPerSec float64 `json:"recover_replay_ops_per_sec,omitempty"`
	// Service group-commit bench (see runSvcBench): end-to-end write
	// throughput over file-backed journals with coalescing on vs. pinned
	// to one sync per op, plus latency percentiles and the dispatch-
	// window shape the coalescer achieved. SvcShards is the fleet width
	// the run used (1 = single supervised Service).
	SvcShards             int      `json:"svc_shards,omitempty"`
	SvcOpsPerSec          float64  `json:"svc_ops_per_sec,omitempty"`
	SvcBaselineOpsPerSec  float64  `json:"svc_baseline_ops_per_sec,omitempty"`
	SvcGroupCommitSpeedup float64  `json:"svc_group_commit_speedup,omitempty"`
	SvcP50LatencyNS       int64    `json:"svc_p50_latency_ns,omitempty"`
	SvcP99LatencyNS       int64    `json:"svc_p99_latency_ns,omitempty"`
	WALSyncsPerOp         float64  `json:"wal_syncs_per_op,omitempty"`
	WALSyncsPerOpBaseline float64  `json:"wal_syncs_per_op_baseline,omitempty"`
	SvcMeanGroupSize      float64  `json:"svc_mean_group_size,omitempty"`
	SvcGroupSizeHist      []uint64 `json:"svc_group_size_hist,omitempty"`
	// Intra-shard pipeline (see DeviceConfig.PipelineDepth and
	// runSweep): the depth the headline svc_pipeline_* numbers
	// were measured at, its throughput and speedup over the depth-1
	// serial run, and the stage counters — windows run, paths prefetched,
	// refills retired by the writeback stage, and per-stage stall time.
	SvcPipelineDepth           int     `json:"svc_pipeline_depth,omitempty"`
	SvcPipelineOpsPerSec       float64 `json:"svc_pipeline_ops_per_sec,omitempty"`
	SvcPipelineSpeedup         float64 `json:"svc_pipeline_speedup,omitempty"`
	SvcPipelineWindows         uint64  `json:"svc_pipeline_windows,omitempty"`
	SvcPipelinePrefetches      uint64  `json:"svc_pipeline_prefetches,omitempty"`
	SvcPipelineWritebacks      uint64  `json:"svc_pipeline_writebacks,omitempty"`
	SvcPipelineFetchWaitNS     uint64  `json:"svc_pipeline_fetch_wait_ns,omitempty"`
	SvcPipelineEvictWaitNS     uint64  `json:"svc_pipeline_evict_wait_ns,omitempty"`
	SvcPipelineWritebackWaitNS uint64  `json:"svc_pipeline_writeback_wait_ns,omitempty"`
	// SvcPipelineSweep holds the full per-depth table when -pipeline-sweep
	// ran (depth, throughput, latency, stall telemetry per entry).
	SvcPipelineSweep []sweepRun `json:"svc_pipeline_sweep,omitempty"`
	// Serve/evict stage and multi-core baseline (see
	// DeviceConfig.ServeWorkers and mcCells): the serve-worker count
	// behind the headline svc_pipeline_* numbers, plus the full
	// gomaxprocs × depth × workers grid with per-entry GOMAXPROCS/NumCPU
	// stamps so single-core runs cannot masquerade as multi-core wins.
	SvcServeWorkers      int        `json:"svc_serve_workers,omitempty"`
	SvcMCNumCPU          int        `json:"svc_mc_num_cpu,omitempty"`
	SvcMCRemoteLatencyNS int64      `json:"svc_mc_remote_latency_ns,omitempty"`
	SvcMCBestSpeedup     float64    `json:"svc_mc_best_speedup,omitempty"`
	SvcMCBestGomaxprocs  int        `json:"svc_mc_best_gomaxprocs,omitempty"`
	SvcMCBestDepth       int        `json:"svc_mc_best_depth,omitempty"`
	SvcMCBestWorkers     int        `json:"svc_mc_best_workers,omitempty"`
	SvcMCRuns            []sweepRun `json:"svc_mc_runs,omitempty"`
	// Online reshard bench (see runReshardBench): one timed split over
	// file-backed journals — migration copy throughput, journaled chunk
	// count, summed write-barrier stall, and what concurrent client
	// writers still pushed through the dual-routed front door.
	SvcReshardFromShards      int     `json:"svc_reshard_from_shards,omitempty"`
	SvcReshardToShards        int     `json:"svc_reshard_to_shards,omitempty"`
	SvcReshardBlocks          uint64  `json:"svc_reshard_blocks,omitempty"`
	SvcReshardElapsedNS       int64   `json:"svc_reshard_elapsed_ns,omitempty"`
	SvcReshardBlocksPerSec    float64 `json:"svc_reshard_blocks_per_sec,omitempty"`
	SvcReshardChunks          uint64  `json:"svc_reshard_chunks,omitempty"`
	SvcReshardStallNS         uint64  `json:"svc_reshard_stall_ns,omitempty"`
	SvcReshardEpoch           uint64  `json:"svc_reshard_epoch,omitempty"`
	SvcReshardClientOpsPerSec float64 `json:"svc_reshard_client_ops_per_sec,omitempty"`
	SvcReshardClientP99NS     int64   `json:"svc_reshard_client_p99_ns,omitempty"`
	// Storage tier bench (see runTierBench): the same mixed workload
	// over the in-memory medium, the durable disk store (with and
	// without the write-through RAM tier), and the simulated remote.
	// Slowdowns are relative to the mem run; the remote counters show
	// the injected transients the retry layer absorbed invisibly.
	SvcMemOpsPerSec      float64 `json:"svc_mem_ops_per_sec,omitempty"`
	SvcDiskOpsPerSec     float64 `json:"svc_disk_ops_per_sec,omitempty"`
	SvcDiskSlowdown      float64 `json:"svc_disk_slowdown,omitempty"`
	SvcDiskP99LatencyNS  int64   `json:"svc_disk_p99_latency_ns,omitempty"`
	SvcDiskTierOpsPerSec float64 `json:"svc_disk_tier_ops_per_sec,omitempty"`
	SvcDiskTierHitRate   float64 `json:"svc_disk_tier_hit_rate,omitempty"`
	SvcRemoteOpsPerSec   float64 `json:"svc_remote_ops_per_sec,omitempty"`
	SvcRemoteSlowdown    float64 `json:"svc_remote_slowdown,omitempty"`
	SvcRemoteFaults      uint64  `json:"svc_remote_faults,omitempty"`
	SvcRemoteRecovered   uint64  `json:"svc_remote_recovered,omitempty"`
	// SvcTierRuns holds the full per-configuration table.
	SvcTierRuns tierResult `json:"svc_tier_runs,omitempty"`
}

type experimentReport struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
}

// fillSvc copies a Service bench result into the report's svc_* fields,
// and a pipelined run's stage counters into svc_pipeline_* (with no
// speedup: only the sweeps measure a depth-1 baseline).
func (r *benchReport) fillSvc(res svcResult) {
	r.SvcShards = res.cfg.shards
	r.SvcOpsPerSec = res.grouped.OpsPerSec
	r.SvcBaselineOpsPerSec = res.baseline.OpsPerSec
	r.SvcGroupCommitSpeedup = res.speedup
	r.SvcP50LatencyNS = res.grouped.P50Latency.Nanoseconds()
	r.SvcP99LatencyNS = res.grouped.P99Latency.Nanoseconds()
	r.WALSyncsPerOp = res.grouped.WALSyncsPerOp
	r.WALSyncsPerOpBaseline = res.baseline.WALSyncsPerOp
	r.SvcMeanGroupSize = res.grouped.MeanGroupSize
	r.SvcGroupSizeHist = append([]uint64(nil), res.grouped.GroupSizes[:]...)
	if res.cfg.depth > 1 {
		r.fillPipelineRun(sweepRun{Depth: res.cfg.depth, Run: res.grouped})
		r.SvcServeWorkers = res.cfg.workers
	}
}

// fillPipelineRun promotes one sweep cell to the headline
// svc_pipeline_* fields.
func (r *benchReport) fillPipelineRun(c sweepRun) {
	r.SvcPipelineDepth = c.Depth
	r.SvcPipelineOpsPerSec = c.Run.OpsPerSec
	r.SvcPipelineSpeedup = c.Speedup
	p := c.Run.Pipeline
	r.SvcPipelineWindows = p.Windows
	r.SvcPipelinePrefetches = p.Prefetches
	r.SvcPipelineWritebacks = p.Writebacks
	r.SvcPipelineFetchWaitNS = p.FetchWaitNs
	r.SvcPipelineEvictWaitNS = p.EvictWaitNs
	r.SvcPipelineWritebackWaitNS = p.WritebackWaitNs
}

// fillPipelineSweep records the whole depth sweep and promotes its
// deepest entry to the headline svc_pipeline_* fields.
func (r *benchReport) fillPipelineSweep(res sweepResult) {
	r.SvcPipelineSweep = res.runs
	if n := len(res.runs); n > 0 {
		r.fillPipelineRun(res.runs[n-1])
	}
}

// fillMCSweep records the multi-core sweep and promotes its best
// concurrent cell measured at GOMAXPROCS >= 4 to the headline
// svc_pipeline_* fields (the speedup is against that scheduler width's
// own depth-1 serial baseline).
func (r *benchReport) fillMCSweep(res sweepResult) {
	r.SvcMCNumCPU = runtime.NumCPU()
	r.SvcMCRemoteLatencyNS = int64(res.remoteLatency)
	r.SvcMCBestSpeedup = res.best.Speedup
	r.SvcMCBestGomaxprocs = res.best.Gomaxprocs
	r.SvcMCBestDepth = res.best.Depth
	r.SvcMCBestWorkers = res.best.Workers
	r.SvcMCRuns = res.runs
	var best *sweepRun
	for i := range res.runs {
		run := &res.runs[i]
		if run.Workers >= 2 && run.Gomaxprocs >= 4 && (best == nil || run.Speedup > best.Speedup) {
			best = run
		}
	}
	if best != nil {
		r.fillPipelineRun(*best)
		r.SvcServeWorkers = best.Workers
	}
}

// requireMCPass enforces the multi-core honesty bar: some concurrent
// cell (workers >= 2) measured at GOMAXPROCS >= 4 must clear 1.3x over
// that scheduler width's depth-1 serial baseline. A sweep produced
// entirely at GOMAXPROCS=1 therefore cannot claim a multi-core
// speedup, whatever its numbers say.
func requireMCPass(res sweepResult) error {
	for _, run := range res.runs {
		if run.Workers >= 2 && run.Gomaxprocs >= 4 && run.Speedup >= 1.3 {
			return nil
		}
	}
	return fmt.Errorf("no concurrent cell at GOMAXPROCS >= 4 reached 1.3x (best %.2fx at gomaxprocs=%d depth=%d workers=%d)",
		res.best.Speedup, res.best.Gomaxprocs, res.best.Depth, res.best.Workers)
}

// fillTiers copies a tier bench result into the report's svc_disk_* /
// svc_remote_* fields.
func (r *benchReport) fillTiers(res tierResult) {
	r.SvcTierRuns = res
	if run := res.run("mem"); run != nil {
		r.SvcMemOpsPerSec = run.OpsPerSec
	}
	if run := res.run("disk"); run != nil {
		r.SvcDiskOpsPerSec = run.OpsPerSec
		r.SvcDiskSlowdown = run.Slowdown
		r.SvcDiskP99LatencyNS = run.P99Latency.Nanoseconds()
	}
	if run := res.run("disk+tier"); run != nil {
		r.SvcDiskTierOpsPerSec = run.OpsPerSec
		if tot := run.Storage.Tier.ReadHits + run.Storage.Tier.ReadMisses; tot > 0 {
			r.SvcDiskTierHitRate = float64(run.Storage.Tier.ReadHits) / float64(tot)
		}
	}
	if run := res.run("remote"); run != nil {
		r.SvcRemoteOpsPerSec = run.OpsPerSec
		r.SvcRemoteSlowdown = run.Slowdown
		r.SvcRemoteFaults = run.Storage.Remote.TransientReads + run.Storage.Remote.TransientWrites
		r.SvcRemoteRecovered = run.Storage.Retry.Recovered
	}
}

// fillReshard copies a reshard bench result into the report's
// svc_reshard_* fields.
func (r *benchReport) fillReshard(res reshardResult) {
	r.SvcReshardFromShards = res.from
	r.SvcReshardToShards = res.to
	r.SvcReshardBlocks = reshardBlocks
	r.SvcReshardElapsedNS = res.elapsed.Nanoseconds()
	r.SvcReshardBlocksPerSec = res.blocksPerSec()
	r.SvcReshardChunks = res.mig.Chunks
	r.SvcReshardStallNS = res.mig.StallNs
	r.SvcReshardEpoch = res.mig.Epoch
	r.SvcReshardClientOpsPerSec = res.clients.OpsPerSec
	r.SvcReshardClientP99NS = res.clients.P99Latency.Nanoseconds()
}

// writeReport stamps a record for a run that started at start, lets
// fill add the mode's fields, and writes it to BENCH_<date>.json,
// merging into any record already written for the day: optional
// sections carry omitempty, so a partial run (-svc, -tiers, -mc-sweep,
// ...) emits only the fields it measured and leaves the rest of the
// day's record standing instead of overwriting it with zeroes.
func writeReport(start time.Time, fill func(*benchReport)) {
	rep := benchReport{
		Date:        time.Now().Format("2006-01-02"),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		WallSeconds: time.Since(start).Seconds(),
	}
	fill(&rep)
	path := fmt.Sprintf("BENCH_%s.json", rep.Date)
	merged := make(map[string]json.RawMessage)
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &merged); err != nil {
			fmt.Fprintf(os.Stderr, "orambench: %s exists but is not valid json (%v); rewriting\n", path, err)
			merged = make(map[string]json.RawMessage)
		}
	}
	data, err := json.Marshal(rep)
	if err == nil {
		var cur map[string]json.RawMessage
		if err = json.Unmarshal(data, &cur); err == nil {
			for k, v := range cur {
				merged[k] = v
			}
			data, err = json.MarshalIndent(merged, "", "  ")
		}
	}
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "orambench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

func main() {
	var (
		experiment = flag.String("experiment", "", "one experiment name (default: all)")
		mixes      = flag.Int("mixes", 0, "limit to the first N Table 2 mixes (0 = all)")
		requests   = flag.Uint64("requests", 0, "post-L1 accesses per core (0 = default)")
		dataBlocks = flag.Uint64("data-blocks", 0, "data ORAM size in 64B blocks (0 = default)")
		seed       = flag.Uint64("seed", 1, "random seed")
		parallel   = flag.Int("parallel", 0, "simulations in flight (0 = one per CPU)")
		jsonOut    = flag.Bool("json", false, "write a BENCH_<date>.json perf record")
		paper      = flag.Bool("paper", false, "full Table 1 geometry (4 GB ORAM; slow)")
		list       = flag.Bool("list", false, "list experiment names")
		svcOnly    = flag.Bool("svc", false, "run only the Service group-commit benchmark")
		svcOps     = flag.Int("svc-ops", 2000, "Service bench: acknowledged writes per run")
		shards     = flag.Int("shards", 1, "Service bench: ShardedService fleet width (1 = plain Service)")
		pipeDepth  = flag.Int("pipeline-depth", 0, "Service bench: pipeline depth per device (0/1 = serial engine)")
		serveWork  = flag.Int("serve-workers", 0, "Service bench: serve/evict workers per pipelined device (0/1 = one worker)")
		pipeSweep  = flag.Bool("pipeline-sweep", false, "run only the pipeline depth sweep (depths 1, 2, 4)")
		mcSweep    = flag.Bool("mc-sweep", false, "run only the multi-core serve-stage sweep (gomaxprocs × depth × workers)")
		mcLatency  = flag.Duration("mc-latency", 0, "mc sweep: simulated remote round-trip per bulk call (0 = 200µs default)")
		requireMC  = flag.Bool("require-mc", false, "mc sweep: exit nonzero unless a GOMAXPROCS>=4 concurrent cell clears 1.3x")
		reshard    = flag.Bool("reshard", false, "run only the online reshard benchmark")
		tiers      = flag.Bool("tiers", false, "run only the storage tier benchmark (mem vs disk vs remote)")
		tierOps    = flag.Int("tier-ops", 500, "tier bench: acknowledged mixed ops per configuration (remote runs sleep real time)")
		newShards  = flag.Int("new-shards", 4, "reshard bench: recipient fleet width")
		maxProcs   = flag.Int("gomaxprocs", 0, "set runtime.GOMAXPROCS for the whole run (0 = leave default)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Println(e)
		}
		return
	}
	if *maxProcs > 0 {
		runtime.GOMAXPROCS(*maxProcs)
	}
	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "orambench: %v\n", err)
		os.Exit(1)
	}
	defer stopCPU()
	defer func() {
		if err := prof.WriteHeap(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "orambench: %v\n", err)
		}
	}()

	svcCfg := svcConfig{blocks: 256, blockSize: 64, clients: 8, ops: *svcOps, shards: *shards,
		seed: *seed, depth: *pipeDepth, workers: *serveWork}
	tierCfg := svcConfig{blocks: 256, blockSize: 64, clients: 4, ops: *tierOps, seed: *seed}
	reshardFrom := 2
	if *shards > 1 {
		reshardFrom = *shards
	}
	start := time.Now()
	switch {
	case *tiers:
		res, err := runTierBench(tierCfg)
		check("tier bench", err)
		fmt.Print(res)
		if *jsonOut {
			writeReport(start, func(r *benchReport) { r.fillTiers(res) })
		}
		return
	case *reshard:
		res, err := runReshardBench(reshardFrom, *newShards, *seed)
		check("reshard bench", err)
		fmt.Print(res)
		if *jsonOut {
			writeReport(start, func(r *benchReport) { r.fillReshard(res) })
		}
		return
	case *mcSweep:
		cfg := svcCfg
		cfg.remoteLatency = *mcLatency
		if cfg.remoteLatency == 0 {
			cfg.remoteLatency = 200 * time.Microsecond
		}
		res, err := runSweep(cfg, mcCells)
		check("mc sweep", err)
		fmt.Print(res)
		if *jsonOut {
			writeReport(start, func(r *benchReport) { r.fillMCSweep(res) })
		}
		if *requireMC {
			check("mc guard", requireMCPass(res))
			fmt.Println("mc guard: ok")
		}
		return
	case *pipeSweep:
		// Larger blocks than the svc bench, so the fetch and writeback
		// stages carry enough AES work for overlap to matter.
		cfg := svcCfg
		cfg.blocks, cfg.blockSize = 512, 1024
		g, w := runtime.GOMAXPROCS(0), *serveWork
		res, err := runSweep(cfg, []sweepCell{{g, 1, w}, {g, 2, w}, {g, 4, w}})
		check("pipeline sweep", err)
		fmt.Print(res)
		if *jsonOut {
			writeReport(start, func(r *benchReport) { r.fillPipelineSweep(res) })
		}
		return
	case *svcOnly:
		res, err := runSvcBench(svcCfg)
		check("svc bench", err)
		fmt.Print(res)
		if *jsonOut {
			writeReport(start, func(r *benchReport) { r.fillSvc(res) })
		}
		return
	}
	o := bench.Options{
		DataBlocks:      *dataBlocks,
		RequestsPerCore: *requests,
		Mixes:           *mixes,
		Seed:            *seed,
		Parallel:        *parallel,
		PaperScale:      *paper,
	}
	names := bench.Experiments
	if *experiment != "" {
		names = []string{*experiment}
	}
	bench.ResetStats()
	var reports []experimentReport
	var failed []string
	for _, name := range names {
		t0 := time.Now()
		err := bench.Run(name, o, os.Stdout)
		r := experimentReport{Name: name, Seconds: time.Since(t0).Seconds(), OK: err == nil}
		if err != nil {
			r.Error = err.Error()
			failed = append(failed, name)
			fmt.Fprintf(os.Stderr, "orambench: %s: %v\n", name, err)
		}
		reports = append(reports, r)
	}
	wall := time.Since(start)
	runs, busy := bench.Stats()
	speedup, runsPerSec := 0.0, 0.0
	if wall > 0 {
		speedup = busy.Seconds() / wall.Seconds()
		runsPerSec = float64(runs) / wall.Seconds()
	}
	fmt.Printf("done in %s: %d simulations (%.1f/s), parallel speedup %.2fx (busy %s)\n",
		wall.Round(time.Millisecond), runs, runsPerSec, speedup, busy.Round(time.Millisecond))

	if *jsonOut {
		allocs, nsOp, err := bench.AccessLoopStats(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: access-loop probe: %v\n", err)
		}
		heals, replay, err := forkoram.RecoveryLoopStats(0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orambench: recovery probe: %v\n", err)
		}
		svcRes, svcErr := runSvcBench(svcCfg)
		report("svc bench", svcRes, svcErr)
		reshardRes, reshardErr := runReshardBench(reshardFrom, *newShards, *seed)
		report("reshard bench", reshardRes, reshardErr)
		tierRes, tierErr := runTierBench(tierCfg)
		report("tier bench", tierRes, tierErr)
		writeReport(start, func(r *benchReport) {
			r.Parallel = *parallel
			r.Experiments = reports
			r.WallSeconds = wall.Seconds()
			r.SimRuns = runs
			r.RunsPerSec = runsPerSec
			r.Speedup = speedup
			r.AccessAllocsPerOp = allocs
			r.AccessNSPerOp = nsOp
			r.RecoverHealsPerSec = heals
			r.RecoverReplayOpsPerSec = replay
			if svcErr == nil {
				r.fillSvc(svcRes)
			}
			if reshardErr == nil {
				r.fillReshard(reshardRes)
			}
			if tierErr == nil {
				r.fillTiers(tierRes)
			}
		})
	}

	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "orambench: %d experiment(s) failed: %v\n", len(failed), failed)
		os.Exit(1)
	}
}

// check exits with status 1 when err is set, naming what failed.
func check(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "orambench: %s: %v\n", what, err)
		os.Exit(1)
	}
}

// report prints a bench result, or its error without exiting.
func report(what string, res fmt.Stringer, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "orambench: %s: %v\n", what, err)
		return
	}
	fmt.Print(res)
}
