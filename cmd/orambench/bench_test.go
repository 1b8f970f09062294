package main

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestMCSweepSmoke runs the multi-core serve-stage sweep at toy scale:
// every (gomaxprocs, depth, workers) cell must measure a positive rate,
// every entry must be stamped with the GOMAXPROCS it actually ran
// under, and the concurrent cells must beat the depth-1 serial
// baseline on overlapped simulated-remote round trips.
func TestMCSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("mc sweep smoke is seconds-long")
	}
	prev := runtime.GOMAXPROCS(0)
	res, err := runSweep(svcConfig{
		blocks:        256,
		blockSize:     64,
		clients:       4,
		ops:           160,
		seed:          0x5bc4,
		remoteLatency: 300 * time.Microsecond,
	}, mcCells)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != prev {
		t.Fatalf("sweep leaked GOMAXPROCS override: now %d, was %d", got, prev)
	}
	if len(res.runs) != 6 {
		t.Fatalf("got %d runs, want 6", len(res.runs))
	}
	for _, run := range res.runs {
		if run.Gomaxprocs == 0 || run.NumCPU == 0 {
			t.Fatalf("cell missing gomaxprocs/numcpu stamp: %+v", run)
		}
		if run.Run.OpsPerSec <= 0 {
			t.Fatalf("cell gmp=%d depth=%d workers=%d measured nothing", run.Gomaxprocs, run.Depth, run.Workers)
		}
		if run.Workers >= 2 && run.Run.Pipeline.Windows == 0 {
			t.Errorf("concurrent cell gmp=%d depth=%d workers=%d never entered the pipeline", run.Gomaxprocs, run.Depth, run.Workers)
		}
	}
	if res.best.Workers < 2 {
		t.Fatalf("best cell is not concurrent: %+v", res.best)
	}
	// With per-bulk-call remote RTTs dominating, overlapping fetches and
	// writebacks across in-flight accesses must beat serial depth 1 even
	// on one core; the acceptance bar for the real sweep is 1.3x.
	if res.best.Speedup < 1.3 {
		t.Errorf("best concurrent speedup %.2fx < 1.3x (gmp=%d depth=%d workers=%d)",
			res.best.Speedup, res.best.Gomaxprocs, res.best.Depth, res.best.Workers)
	}
}

// TestTierBenchSmoke runs the tier comparison at a toy scale: every
// configuration must complete with zero front-door errors, the remote
// runs must show retry-absorbed transients (or none injected), and the
// RAM-tier runs must serve reads from memory.
func TestTierBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tier bench smoke is seconds-long")
	}
	res, err := runTierBench(svcConfig{blocks: 256, blockSize: 64, clients: 2, ops: 200, seed: 0x7e13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d runs", len(res))
	}
	for _, run := range res {
		if run.Ops == 0 || run.OpsPerSec <= 0 {
			t.Fatalf("run %s measured nothing: %+v", run.Tier, run)
		}
	}
	for _, tier := range []string{"disk+tier", "remote+tier"} {
		if run := res.run(tier); run.Storage.Tier.ReadHits == 0 {
			t.Errorf("%s run never hit the RAM tier", tier)
		}
	}
	for _, tier := range []string{"remote", "remote+tier"} {
		st := res.run(tier).Storage
		if st.Remote.ReadCalls+st.Remote.WriteCalls == 0 {
			t.Errorf("%s run never touched the remote", tier)
		}
		if injected := st.Remote.TransientReads + st.Remote.TransientWrites; injected > 0 &&
			st.Retry.Recovered == 0 {
			t.Errorf("%s run injected %d transients but the retry layer recovered none", tier, injected)
		}
	}
}

var errInjected = errors.New("injected write failure")

// failingDoor acknowledges every op except its k-th write, and closes
// failed when it refuses that one.
type failingDoor struct {
	mu     sync.Mutex
	writes int
	k      int
	failed chan struct{}
}

func (f *failingDoor) Read(context.Context, uint64) ([]byte, error) { return nil, nil }

func (f *failingDoor) Write(context.Context, uint64, []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writes++; f.writes == f.k {
		close(f.failed)
		return errInjected
	}
	return nil
}

// TestDriveReturnsWriteError is the driver's negative control: a front
// door that fails one write must fail the run with that error, whether
// the run is counted or lasts until a stop channel closes, and whether
// it writes only or mixes in reads.
func TestDriveReturnsWriteError(t *testing.T) {
	cfg := svcConfig{blocks: 64, blockSize: 64, clients: 4, ops: 40, seed: 1}
	for _, perClient := range []int{cfg.perClient(), 0} {
		for _, mixed := range []bool{false, true} {
			door := &failingDoor{k: 7, failed: make(chan struct{})}
			// The until-stop run ends once the failure is in.
			_, err := drive(cfg.clients, perClient, door.failed, rwOp(door, cfg, mixed))
			if !errors.Is(err, errInjected) {
				t.Errorf("perClient=%d mixed=%v: drive returned %v, want the injected write error", perClient, mixed, err)
			}
		}
	}
}
