package forkoram

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"forkoram/internal/tree"
)

// TestCrashChaosReduced runs a reduced crash-at-every-point campaign in
// the normal test suite; `make chaos` / forksim -crash run the full one.
func TestCrashChaosReduced(t *testing.T) {
	rep := RunCrashChaos(CrashChaosConfig{Seed: 0x51ab, Schedules: 30, Faults: true})
	t.Logf("\n%s", rep.String())
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
	}
	if rep.Crashes == 0 {
		t.Fatal("campaign injected no crashes")
	}
	if rep.LostAcks != 0 || rep.SilentCorruptions != 0 {
		t.Fatalf("lost acks %d, silent corruptions %d", rep.LostAcks, rep.SilentCorruptions)
	}
}

// TestCrashChaosCoversEveryPoint checks that a moderately sized campaign
// kills the service at every CrashPoint at least once — otherwise the
// "crash at every point" claim silently degrades to "at some points".
func TestCrashChaosCoversEveryPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a larger campaign")
	}
	rep := RunCrashChaos(CrashChaosConfig{Seed: 0xc0ffee, Schedules: 120, Faults: true})
	if !rep.Ok() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	for p := 0; p < numCrashPoints; p++ {
		if rep.PointHits[p] == 0 {
			t.Errorf("crash point %v never hit (hits: %v)", CrashPoint(p), rep.PointHits)
		}
	}
}

// TestClosedServicesLeakNoGoroutines: a service that is closed — after
// an orderly run, a fail-stop, or an injected kill, including every
// service the crash campaign stands up — must leave no goroutine
// behind. Pipelined devices start stage workers per dispatch window;
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

	rep := RunCrashChaos(CrashChaosConfig{Seed: 0x51ab, Schedules: 30, Faults: true})
	if !rep.Ok() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	waitGoroutines(t, base, "the crash campaign")

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
