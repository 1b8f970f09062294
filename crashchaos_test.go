package forkoram

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"forkoram/internal/tree"
)

// crashTargetCases are the campaign's three targets: the reduced config
// every test run drives, the target's own properties, and the larger
// config that pins its kill-point coverage.
var crashTargetCases = []struct {
	name    string
	reduced CrashChaosConfig
	check   func(t *testing.T, rep CrashReport)
	cover   CrashChaosConfig
	covers  func(t *testing.T, rep CrashReport)
}{
	{
		name:    "single",
		reduced: CrashChaosConfig{Seed: 0x51ab, Schedules: 30},
		check:   func(*testing.T, CrashReport) {},
		cover:   CrashChaosConfig{Seed: 0xc0ffee, Schedules: 120},
		covers: func(t *testing.T, rep CrashReport) {
			for p := 0; p < numCrashPoints; p++ {
				if rep.PointHits[p] == 0 {
					t.Errorf("crash point %v never hit (hits: %v)", CrashPoint(p), rep.PointHits)
				}
			}
		},
	},
	{
		name:    "sharded",
		reduced: CrashChaosConfig{Seed: 0x5a4d, Schedules: 25, Shards: 3},
		check: func(t *testing.T, rep CrashReport) {
			if rep.DownEvents == 0 || rep.SiblingReads == 0 || rep.SiblingWrites == 0 {
				t.Errorf("isolation property never exercised: %d down events, %d sibling reads, %d sibling writes",
					rep.DownEvents, rep.SiblingReads, rep.SiblingWrites)
			}
		},
		cover: CrashChaosConfig{Seed: 0xfeed5, Schedules: 80, Shards: 3},
		covers: func(t *testing.T, rep CrashReport) {
			// Fleets run no disk medium, so the disk-only sites are out
			// of reach; every other point is hit on every run.
			for p := 0; p < numCrashPoints; p++ {
				if pt := CrashPoint(p); pt != CrashMidBucketWrite && pt != CrashMidScrub && rep.PointHits[p] < 5 {
					t.Errorf("crash point %v hit %d times, want >= 5 (hits: %v)", pt, rep.PointHits[p], rep.PointHits)
				}
			}
			for i, n := range rep.ShardKills {
				if n == 0 {
					t.Errorf("shard %d never killed (kills: %v)", i, rep.ShardKills)
				}
			}
		},
	},
	{
		name:    "reshard",
		reduced: CrashChaosConfig{Seed: 0x4e5d, Schedules: 25, Shards: 2, AddShards: 2},
		check: func(t *testing.T, rep CrashReport) {
			if rep.Rebuilds == 0 || rep.Resumes == 0 {
				t.Errorf("rebuild-and-resume never exercised: %d rebuilds, %d resumes", rep.Rebuilds, rep.Resumes)
			}
			if rep.MigReads == 0 || rep.MigWrites == 0 {
				t.Errorf("no-full-stop property never exercised: %d reads, %d writes during migration",
					rep.MigReads, rep.MigWrites)
			}
			if rep.Migrations < uint64(rep.Schedules) {
				t.Errorf("only %d cutovers committed across %d schedules", rep.Migrations, rep.Schedules)
			}
			// Indexes 2 and 3 exist only in the recipient generation, so
			// a kill there landed during a migration.
			if k := rep.ShardKills; len(k) != 4 || k[2]+k[3] == 0 {
				t.Errorf("no shard kill landed on a recipient shard (per-shard kills: %v)", k)
			}
		},
		// 25 schedules × 2 variants already cover every focus point
		// (rotation period 5): the reduced run is the coverage run.
		cover: CrashChaosConfig{Seed: 0x4e5d, Schedules: 25, Shards: 2, AddShards: 2},
		covers: func(t *testing.T, rep CrashReport) {
			for p := 0; p < numReshardPoints; p++ {
				if rep.PhaseHits[p] == 0 {
					t.Errorf("no kill ever landed at %s (hits: %v)", ReshardCrashPoint(p), rep.PhaseHits)
				}
			}
		},
	},
}

// crashCampaigns memoizes campaign reports by config, so a config two
// tests share runs once per test binary.
var crashCampaigns sync.Map

func crashCampaign(cfg CrashChaosConfig) CrashReport {
	if rep, ok := crashCampaigns.Load(cfg); ok {
		return rep.(CrashReport)
	}
	rep := RunCrashChaos(cfg)
	crashCampaigns.Store(cfg, rep)
	return rep
}

// TestCrashChaosReduced runs a reduced campaign against every target in
// the normal test suite; `make chaos` / forksim -crash run the full ones.
// Every service a campaign stands up must be gone when it returns.
func TestCrashChaosReduced(t *testing.T) {
	for _, tc := range crashTargetCases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			rep := crashCampaign(tc.reduced)
			t.Logf("\n%s", rep.String())
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			if rep.Crashes == 0 {
				t.Error("campaign injected no crashes")
			}
			if rep.LostAcks != 0 || rep.SilentCorruptions != 0 {
				t.Errorf("lost acks %d, silent corruptions %d", rep.LostAcks, rep.SilentCorruptions)
			}
			tc.check(t, rep)
			waitGoroutines(t, base, "the "+tc.name+" campaign")
		})
	}
}

// TestCrashChaosCoversEveryPoint checks that a moderately sized campaign
// kills each target at every point it can reach — otherwise the "crash
// at every point" claim silently degrades to "at some points".
func TestCrashChaosCoversEveryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("needs larger campaigns")
	}
	for _, tc := range crashTargetCases {
		t.Run(tc.name, func(t *testing.T) {
			rep := crashCampaign(tc.cover)
			if !rep.Ok() {
				t.Fatalf("violations: %v", rep.Violations)
			}
			tc.covers(t, rep)
		})
	}
}

// lossyTarget is an in-memory crash target that breaks the durability
// contract on purpose: every fifth write is killed, and the kill either
// forgets every write the target ever acknowledged or lands the killed
// write as a third value, neither old nor new.
type lossyTarget struct {
	mu      sync.Mutex
	mem     map[uint64][]byte
	writes  int
	corrupt bool
}

func (f *lossyTarget) Read(_ context.Context, addr uint64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.read(addr), nil
}

func (f *lossyTarget) read(addr uint64) []byte {
	if b := f.mem[addr]; b != nil {
		return bytes.Clone(b)
	}
	return make([]byte, crashBlockSize)
}

func (f *lossyTarget) Write(_ context.Context, addr uint64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writes++; f.writes%5 == 0 {
		if f.corrupt {
			third := bytes.Clone(data)
			third[0] ^= 0xff
			f.mem[addr] = third
		}
		return errKilled
	}
	f.mem[addr] = bytes.Clone(data)
	return nil
}

func (f *lossyTarget) Batch(_ context.Context, ops []BatchOp) ([][]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([][]byte, len(ops))
	for i, op := range ops {
		if op.Write {
			f.mem[op.Addr] = bytes.Clone(op.Data)
		} else {
			out[i] = f.read(op.Addr)
		}
	}
	return out, nil
}

func (f *lossyTarget) step(bool)   {}
func (f *lossyTarget) served(bool) {}
func (f *lossyTarget) shutdown()   {}

func (f *lossyTarget) recover(err error) bool {
	if !errors.Is(err, errKilled) {
		return false
	}
	if !f.corrupt {
		f.mu.Lock()
		clear(f.mem)
		f.mu.Unlock()
	}
	return true
}

// TestCrashChaosCatchesBrokenTargets is the oracle's negative control:
// the campaign driver, run against a target that loses acknowledged
// writes or lands in-flight writes as garbage, must fail.
func TestCrashChaosCatchesBrokenTargets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt bool
	}{{"forgets-acked-writes", false}, {"corrupts-in-flight-writes", true}} {
		t.Run(tc.name, func(t *testing.T) {
			prof := singleCrash
			prof.open = func(o *crashRun, _ CrashChaosConfig, _ uint64, _ Variant) {
				o.t = &lossyTarget{mem: make(map[uint64][]byte), corrupt: tc.corrupt}
			}
			var rep CrashReport
			runCrashCampaign(&rep, CrashChaosConfig{Seed: 1, Schedules: 2}, &prof)
			if rep.Ok() {
				t.Fatal("the campaign passed a target that breaks the durability contract")
			}
			if tc.corrupt && rep.SilentCorruptions == 0 {
				t.Error("no silent corruption counted for in-flight writes landing as a third value")
			}
			if !tc.corrupt && rep.LostAcks == 0 {
				t.Error("no lost ack counted for a target that forgets acknowledged writes")
			}
		})
	}
}

// TestClosedServicesLeakNoGoroutines: a service that is closed — after
// an orderly run, a fail-stop, or an injected kill — must leave no
// goroutine behind (TestCrashChaosReduced checks the same after every
// service the crash campaigns stand up). Pipelined devices start stage workers per dispatch window;
// each window has to join them before its Batch returns, whatever
// state the service ends in.
func TestClosedServicesLeakNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	writeBatch := func(svc *Service, seed uint64) error {
		ops := make([]BatchOp, 8)
		for i := range ops {
			ops[i] = BatchOp{Addr: uint64(i), Write: true, Data: chaosPayload(32, seed, uint64(i)+1)}
		}
		_, err := svc.Batch(ctx, ops)
		return err
	}

	// Killed inside a pipelined window, on a serve-stage worker.
	cfg := pipelinedServiceConfig()
	cfg.crashHook = func(p CrashPoint) bool { return p == CrashMidServe }
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBatch(svc, 1); !errors.Is(err, errKilled) {
		t.Fatalf("batch under a mid-serve kill returned %v, want the injected kill", err)
	}
	svc.Close()
	waitGoroutines(t, base, "closing a killed service")

	// Failed: corrupted frames on a disk medium poison a pipelined
	// window and the spent recovery budget fail-stops the service.
	cfg = pipelinedServiceConfig()
	cfg.MaxRecoveries = -1
	disk := diskFixture(t, cfg.Device)
	cfg.Device.Storage.Medium = disk
	svc, err = NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBatch(svc, 2); err != nil {
		t.Fatal(err)
	}
	for n := tree.Node(0); n < tree.Node(svc.dev.tr.Nodes()); n++ {
		if disk.Ciphertext(n) != nil {
			corruptFrameOnDisk(t, disk, n)
		}
	}
	if err := writeBatch(svc, 3); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("batch over a corrupted medium returned %v, want ErrUnrecoverable", err)
	}
	if st := svc.State(); st != StateFailed {
		t.Fatalf("state %v, want failed", st)
	}
	svc.Close()
	waitGoroutines(t, base, "closing a failed service")

	// Healthy.
	svc, err = NewService(pipelinedServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBatch(svc, 4); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Pipeline.Windows == 0 {
		t.Fatalf("the healthy service never engaged the pipeline: %+v", st.Pipeline)
	}
	waitGoroutines(t, base, "closing a healthy service")
}

// waitGoroutines polls until the goroutine count is back to base, and
// fails with every live stack once a second has passed.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines still running after %s, started with %d:\n%s", n, after, base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
