package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	forkoram "forkoram"
	"forkoram/internal/rng"
)

// Tier bench remote shaping: the simulated remote charges 5µs per read
// and 10µs per write call and injects a transient fault on 0.2 % of
// calls, which the retry layer must absorb; the tiered runs put a 64 KiB
// write-through RAM tier in front.
const (
	tierReadRTT    = 5 * time.Microsecond
	tierWriteRTT   = 10 * time.Microsecond
	tierPTransient = 0.002
	tierBytes      = 1 << 16
)

// tierRun is one backend configuration's measurement.
type tierRun struct {
	// Tier names the configuration: "mem", "disk", "disk+tier",
	// "remote", "remote+tier".
	Tier string `json:"tier"`
	clientStats
	// Slowdown is the mem run's OpsPerSec over this run's: the cost of
	// durability (disk) or distance (remote) for this workload.
	Slowdown float64 `json:"slowdown"`
	// Storage is the run's storage-tier counter delta: RAM-tier hits,
	// remote round trips and injected faults, retry outcomes, scrub work.
	Storage forkoram.StorageStats `json:"storage"`
}

// tierResult is the full tier comparison.
type tierResult []tierRun

// run returns the named run, or nil.
func (r tierResult) run(tier string) *tierRun {
	for i := range r {
		if r[i].Tier == tier {
			return &r[i]
		}
	}
	return nil
}

func (r tierResult) String() string {
	var b strings.Builder
	ops := 0
	if len(r) > 0 {
		ops = r[0].Ops
	}
	fmt.Fprintf(&b, "storage tier bench (%d mixed ops per run, file-backed journal):\n", ops)
	fmt.Fprintf(&b, "  %-12s %10s %9s %10s %10s  %s\n", "tier", "ops/s", "slowdown", "p50", "p99", "tier-layer counters")
	for _, run := range r {
		extra := ""
		st := run.Storage
		if st.Tier.ReadHits+st.Tier.ReadMisses > 0 {
			extra += fmt.Sprintf("ram %d hit/%d miss ", st.Tier.ReadHits, st.Tier.ReadMisses)
		}
		if st.Remote.ReadCalls+st.Remote.WriteCalls > 0 {
			extra += fmt.Sprintf("remote %d rt/%d faults ", st.Remote.ReadCalls+st.Remote.WriteCalls,
				st.Remote.TransientReads+st.Remote.TransientWrites)
		}
		if st.Retry.Retried > 0 {
			extra += fmt.Sprintf("retry %d/%d recovered", st.Retry.Recovered, st.Retry.Retried)
		}
		fmt.Fprintf(&b, "  %-12s %10.0f %8.2fx %10s %10s  %s\n",
			run.Tier, run.OpsPerSec, run.Slowdown,
			run.P50Latency.Round(time.Microsecond), run.P99Latency.Round(time.Microsecond),
			strings.TrimSpace(extra))
	}
	return b.String()
}

// runTierBench measures the same concurrent mixed read/write load
// through a Service over each storage-tier configuration. Every remote
// run must absorb its injected transients invisibly; any front-door
// error fails the bench.
func runTierBench(cfg svcConfig) (tierResult, error) {
	dir, err := os.MkdirTemp("", "orambench-tiers")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var res tierResult
	for _, tier := range []string{"mem", "disk", "disk+tier", "remote", "remote+tier"} {
		run, err := runTier(cfg, dir, tier)
		if err != nil {
			return res, fmt.Errorf("%s run: %w", tier, err)
		}
		res = append(res, run)
	}
	mem := res.run("mem")
	for i := range res {
		if res[i].OpsPerSec > 0 {
			res[i].Slowdown = mem.OpsPerSec / res[i].OpsPerSec
		}
	}
	return res, nil
}

// runTier stands up one Service over the named backend stack and times
// the mixed load through it.
func runTier(cfg svcConfig, dir, tier string) (tierRun, error) {
	run := tierRun{Tier: tier}
	sc := forkoram.ServiceConfig{
		Device: forkoram.DeviceConfig{
			Blocks:    cfg.blocks,
			BlockSize: cfg.blockSize,
			QueueSize: 8,
			Seed:      cfg.seed,
			Variant:   forkoram.Fork,
		},
		QueueDepth:      2 * cfg.clients,
		CheckpointEvery: 1 << 30,
	}
	if strings.HasPrefix(tier, "disk") || strings.HasPrefix(tier, "remote") {
		disk, err := forkoram.NewDiskMedium(sc.Device, filepath.Join(dir, tier+".oram"))
		if err != nil {
			return run, err
		}
		defer disk.Close()
		sc.Device.Storage.Medium = disk
	}
	if strings.HasPrefix(tier, "remote") {
		sc.Device.Storage.Remote = &forkoram.RemoteConfig{
			Seed:            rng.SeedAt(cfg.seed, 11),
			ReadLatency:     tierReadRTT,
			WriteLatency:    tierWriteRTT,
			PTransientRead:  tierPTransient,
			PTransientWrite: tierPTransient,
		}
	}
	if strings.HasSuffix(tier, "+tier") {
		sc.Device.Storage.TierBytes = tierBytes
	}
	svc, closeSvc, err := openService(filepath.Join(dir, tier+".wal"), sc)
	if err != nil {
		return run, err
	}
	defer closeSvc()

	if err := warm(svc, cfg); err != nil {
		return run, err
	}
	before := svc.Stats().Storage
	if run.clientStats, err = drive(cfg.clients, cfg.perClient(), nil, rwOp(svc, cfg, true)); err != nil {
		return run, err
	}
	run.Storage = svc.Stats().Storage.Delta(before)
	return run, nil
}
