// Command forksim runs one full-system simulation and prints its metrics.
//
// Examples:
//
//	forksim -scheme forkpath -mix Mix3
//	forksim -scheme traditional -workloads mcf,lbm,bwaves,libquantum
//	forksim -scheme forkpath -cache mac -cache-bytes 1048576 -queue 64
//	forksim -scheme insecure -mix Mix1 -requests 5000
//
// With -faults, forksim instead runs a deterministic chaos campaign
// against the fault-tolerant Device (transient faults, crash/restore,
// optionally medium corruption) and exits non-zero on any violation:
//
//	forksim -faults -seed 1 -fault-schedules 1000
//	forksim -faults -fault-corruption -fault-rate 0.006
//
// With -crash, forksim runs the crash-at-every-point campaign and exits
// non-zero if any acknowledged write is lost or any read is silently
// wrong. The widths pick the target: one supervised Service (process
// kills between journal append and apply, around checkpoints,
// mid-restore); with -shards, a ShardedService fleet (kills land in
// individual shard supervisors, healthy siblings are probed for reads
// and writes while a shard is down, and the dead shard is restarted from
// its surviving stores); with -add-shards as well, an ONLINE reshard
// (every schedule splits the fleet, odd schedules then merge back, while
// a client workload runs; the router is killed at every migration phase,
// the fleet rebuilt from its surviving journals and the migration
// resumed):
//
//	forksim -crash -seed 1 -crash-schedules 1000
//	forksim -crash -seed 1 -crash-schedules 1000 -shards 3
//	forksim -crash -seed 1 -crash-schedules 1000 -shards 2 -add-shards 2
//
// With -recover, forksim runs a self-healing demo: a Service under
// continuous fault injection with device retries disabled, so every
// fault poisons the device and the supervisor heals it live. It prints
// the recovery and replay counters and exits non-zero if any
// acknowledged write is lost.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	forkoram "forkoram"
	"forkoram/internal/cpu"
	"forkoram/internal/faults"
	"forkoram/internal/prof"
	"forkoram/internal/rng"
	"forkoram/internal/workload"
)

func main() {
	var (
		scheme     = flag.String("scheme", "forkpath", "insecure | traditional | forkpath")
		mix        = flag.String("mix", "", "Table 2 mix name (Mix1..Mix10)")
		workloads  = flag.String("workloads", "", "comma-separated benchmark names, one per core")
		multi      = flag.String("parsec", "", "multithreaded PARSEC-like workload name")
		cores      = flag.Int("cores", 4, "core count")
		inorder    = flag.Bool("inorder", false, "in-order cores (default out-of-order)")
		requests   = flag.Uint64("requests", 5000, "post-L1 accesses per core")
		dataBlocks = flag.Uint64("data-blocks", 1<<22, "data ORAM size in 64B blocks")
		queue      = flag.Int("queue", 64, "label queue size")
		cacheKind  = flag.String("cache", "none", "none | treetop | mac")
		cacheBytes = flag.Int("cache-bytes", 1<<20, "on-chip bucket cache capacity")
		channels   = flag.Int("channels", 2, "DRAM channels")
		flat       = flag.Bool("flat-layout", false, "use the flat DRAM layout (ablation)")
		noReplace  = flag.Bool("no-dummy-replace", false, "disable dummy request replacing")
		superBlock = flag.Int("superblock", 0, "static super-block size (0/1 = off, power of two)")
		bgEvict    = flag.Int("bg-evict", 0, "background-eviction stash threshold (0 = off)")
		periodic   = flag.Float64("periodic-ns", 0, "fixed issue interval in ns (0 = on-demand)")
		seed       = flag.Uint64("seed", 1, "random seed")

		chaos           = flag.Bool("faults", false, "run the fault-injection chaos campaign instead of a simulation")
		chaosSchedules  = flag.Int("fault-schedules", 1000, "chaos: independent fault schedules")
		chaosOps        = flag.Int("fault-ops", 400, "chaos: device operations per schedule")
		chaosRate       = flag.Float64("fault-rate", 0.004, "chaos: total fault probability per bucket operation")
		chaosCorruption = flag.Bool("fault-corruption", false, "chaos: include medium-corrupting faults (bit flips, torn writes, stale replays)")

		crash          = flag.Bool("crash", false, "run the crash-at-every-point campaign (one Service, a -shards fleet, or a -add-shards online reshard)")
		crashSchedules = flag.Int("crash-schedules", 1000, "crash: independent crash schedules (each runs both variants)")
		crashDisk      = flag.Bool("disk", false, "crash: run every single-Service schedule over the durable disk bucket store (kills mid-bucket-write and mid-scrub included)")
		shards         = flag.Int("shards", 0, "crash: fleet width (0 = one Service), or the reshard's starting width")
		addShards      = flag.Int("add-shards", 0, "crash: shards an online reshard adds (odd schedules merge back); 0 = no reshard")

		scrub      = flag.Bool("scrub", false, "one-shot scrub over a disk bucket image (-scrub-image), or a self-checking corruption demo without one")
		scrubImage = flag.String("scrub-image", "", "scrub: path of the disk bucket store to audit")
		scrubKey   = flag.String("scrub-key", "", "scrub: hex bucket key; empty audits frames only (epoch + CRC, no decrypt)")

		recoverDemo = flag.Bool("recover", false, "run the supervised self-healing demo (faults injected, supervisor heals live)")
		recoverOps  = flag.Int("recover-ops", 2000, "recover: client operations to drive through the healing service")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopCPU()
	defer func() {
		if err := prof.WriteHeap(*memProfile); err != nil {
			fmt.Fprintf(os.Stderr, "forksim: %v\n", err)
		}
	}()

	if *chaos {
		runChaos(forkoram.ChaosConfig{
			Seed:       *seed,
			Schedules:  *chaosSchedules,
			Ops:        *chaosOps,
			FaultRate:  *chaosRate,
			Corruption: *chaosCorruption,
		})
		return
	}
	if *crash {
		runCrash(forkoram.CrashChaosConfig{
			Seed:      *seed,
			Schedules: *crashSchedules,
			Shards:    *shards,
			AddShards: *addShards,
			Disk:      *crashDisk,
		})
		return
	}
	if *scrub {
		runScrub(*scrubImage, *scrubKey, *seed)
		return
	}
	if *recoverDemo {
		runRecoverDemo(*seed, *recoverOps)
		return
	}

	var sch forkoram.Scheme
	switch *scheme {
	case "insecure":
		sch = forkoram.SchemeInsecure
	case "traditional":
		sch = forkoram.SchemeTraditional
	case "forkpath":
		sch = forkoram.SchemeForkPath
	default:
		fatalf("unknown scheme %q", *scheme)
	}

	cfg := forkoram.DefaultSimConfig(sch)
	cfg.Cores = *cores
	cfg.RequestsPerCore = *requests
	cfg.DataBlocks = *dataBlocks
	cfg.OnChipEntries = 1 << 12
	cfg.QueueSize = *queue
	cfg.Channels = *channels
	cfg.FlatLayout = *flat
	cfg.DummyReplaceEnabled = !*noReplace
	cfg.SuperBlock = *superBlock
	cfg.BackgroundEvict = *bgEvict
	cfg.PeriodicIntervalNS = *periodic
	cfg.Seed = *seed
	if *inorder {
		cfg.CoreModel = cpu.InOrder
	}
	switch *cacheKind {
	case "none":
		cfg.Cache = forkoram.SimCacheNone
	case "treetop":
		cfg.Cache = forkoram.SimCacheTreetop
		cfg.CacheBytes = *cacheBytes
	case "mac":
		cfg.Cache = forkoram.SimCacheMAC
		cfg.CacheBytes = *cacheBytes
	default:
		fatalf("unknown cache kind %q", *cacheKind)
	}

	switch {
	case *multi != "":
		cfg.Multithreaded = true
		cfg.Workloads = []string{*multi}
	case *workloads != "":
		cfg.Workloads = strings.Split(*workloads, ",")
	case *mix != "":
		found := false
		for _, m := range workload.Mixes() {
			if m.Name == *mix {
				cfg.Workloads = m.Members[:]
				found = true
			}
		}
		if !found {
			fatalf("unknown mix %q", *mix)
		}
	}
	if !cfg.Multithreaded && len(cfg.Workloads) != cfg.Cores {
		// Repeat or trim to match core count.
		ws := make([]string, cfg.Cores)
		for i := range ws {
			ws[i] = cfg.Workloads[i%len(cfg.Workloads)]
		}
		cfg.Workloads = ws
	}

	res, err := forkoram.RunSimulation(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	printResult(cfg, res)
}

func printResult(cfg forkoram.SimConfig, r forkoram.SimResult) {
	fmt.Printf("scheme            %s\n", r.Scheme)
	fmt.Printf("workloads         %s\n", strings.Join(cfg.Workloads, ","))
	fmt.Printf("execution time    %.3f ms\n", r.ExecNS/1e6)
	fmt.Printf("demand requests   %d (LLC miss rate %.3f)\n", r.DemandRequests, r.LLCMissRate)
	fmt.Printf("ORAM latency      %.0f ns (mean, per data request)\n", r.MeanORAMLatencyNS)
	if r.Scheme != forkoram.SchemeInsecure {
		fmt.Printf("ORAM accesses     %d real + %d dummy (+%d stash-served)\n",
			r.RealAccesses, r.DummyAccesses, r.StashServed)
		fmt.Printf("avg path length   %.2f buckets per phase\n", r.AvgPathBuckets)
		fmt.Printf("DRAM time/access  %.0f ns\n", r.MeanAccessDRAMNS)
		fmt.Printf("stash             mean %.1f, max %d, overflow rate %.5f\n",
			r.Stash.MeanOccupancy, r.Stash.MaxOccupancy, r.Stash.OverflowRate)
	}
	fmt.Printf("DRAM              %d reads, %d writes, %d activations, row hit rate %.3f\n",
		r.DRAM.Reads, r.DRAM.Writes, r.DRAM.Activations,
		float64(r.DRAM.RowHits)/maxf(float64(r.DRAM.RowHits+r.DRAM.RowMisses), 1))
	fmt.Printf("energy            %.3f mJ (DRAM dyn %.3f + background %.3f + controller %.3f)\n",
		r.Energy.TotalMJ(), r.Energy.DRAMDynamicMJ, r.Energy.DRAMBackgroundMJ, r.Energy.ControllerMJ)
	if r.Truncated {
		fmt.Println("WARNING: run truncated by the access safety cap")
	}
}

func runChaos(cfg forkoram.ChaosConfig) {
	rep := forkoram.RunChaos(cfg)
	fmt.Print(rep.String())
	if !rep.Ok() {
		os.Exit(1)
	}
}

func runCrash(cfg forkoram.CrashChaosConfig) {
	rep := forkoram.RunCrashChaos(cfg)
	fmt.Print(rep.String())
	if !rep.Ok() {
		os.Exit(1)
	}
}

// runRecoverDemo drives a workload through a Service whose device
// suffers continuous transient faults with retries disabled, so every
// fault fail-stops the device and the supervisor heals it inline. The
// client never sees an error; the demo verifies read-your-writes across
// every heal and prints the supervisor's counters.
func runRecoverDemo(seed uint64, ops int) {
	// Rate and cadence are balanced so the journal suffix replayed per
	// heal stays short enough to complete under continuing faults, and
	// checkpoints (which reset the consecutive-recovery budget) land
	// often enough that the budget tracks incidents, not lifetime.
	p := 0.004 / 3
	svc, err := forkoram.NewService(forkoram.ServiceConfig{
		Device: forkoram.DeviceConfig{
			Blocks:    128,
			BlockSize: 64,
			QueueSize: 8,
			Seed:      seed,
			Variant:   forkoram.Fork,
			Retries:   -1,
			Faults: &faults.Config{
				Seed:           rng.SeedAt(seed, 1),
				PTransientRead: p, PTransientWrite: p, PDroppedWrite: p,
			},
		},
		CheckpointEvery: 16,
		MaxRecoveries:   64,
	})
	if err != nil {
		fatalf("recover demo: %v", err)
	}
	ctx := context.Background()
	wl := rng.New(rng.SeedAt(seed, 2))
	oracle := make(map[uint64][]byte)
	lost := 0
	for i := 0; i < ops; i++ {
		addr := wl.Uint64n(128)
		if wl.Float64() < 0.5 {
			data := make([]byte, 64)
			for j := range data {
				data[j] = byte(wl.Uint64n(256))
			}
			if err := svc.Write(ctx, addr, data); err != nil {
				fatalf("recover demo: write %d: %v", i, err)
			}
			oracle[addr] = data
		} else {
			got, err := svc.Read(ctx, addr)
			if err != nil {
				fatalf("recover demo: read %d: %v", i, err)
			}
			want := oracle[addr]
			if want == nil {
				want = make([]byte, 64)
			}
			if !bytes.Equal(got, want) {
				lost++
			}
		}
	}
	st := svc.Stats()
	if err := svc.Close(); err != nil {
		fatalf("recover demo: close: %v", err)
	}
	fmt.Printf("recover demo: %d ops against a continuously faulting device (state %v)\n", ops, st.State)
	fmt.Printf("  supervisor: %d recoveries (%d failed attempts), %d journal records replayed\n",
		st.Recoveries, st.FailedRecoveries, st.ReplayedOps)
	fmt.Printf("  durability: %d checkpoints, %d journal records, %d lost acknowledged writes\n",
		st.Checkpoints, st.WALRecords, lost)
	if lost > 0 {
		os.Exit(1)
	}
	fmt.Printf("  ok: every fault healed in place, no client-visible failures\n")
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "forksim: "+format+"\n", args...)
	os.Exit(1)
}
