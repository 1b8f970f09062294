package forkoram

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"forkoram/internal/wal"
)

// TestGroupCommitCoalesces: concurrent writers racing the admission
// queue must be served in multi-request windows — fewer journal syncs
// than writes, every op accounted to exactly one group.
func TestGroupCommitCoalesces(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.CheckpointEvery = 1 << 30
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	const rounds, writers = 25, 4
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := svc.Write(ctx, uint64(w), chaosPayload(32, uint64(r), uint64(w)+1)); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
	st := svc.Stats()
	const total = rounds * writers
	if st.Writes != total || st.GroupedOps != total {
		t.Fatalf("writes %d, grouped ops %d, want %d", st.Writes, st.GroupedOps, total)
	}
	if st.WALSyncs >= total {
		t.Fatalf("%d syncs for %d writes: group commit never amortized a sync", st.WALSyncs, total)
	}
	if st.Groups == st.Writes {
		t.Fatal("every window was a singleton: coalescing never engaged")
	}
	var hist uint64
	for _, n := range st.GroupSizes {
		hist += n
	}
	if hist != st.Groups {
		t.Fatalf("histogram holds %d windows, Groups says %d", hist, st.Groups)
	}
	t.Logf("%d writes in %d groups, %d syncs, hist %v", st.Writes, st.Groups, st.WALSyncs, st.GroupSizes)
}

// TestGroupMaxSizeBound: with a deterministic backlog larger than
// MaxGroupSize, no dispatch window may exceed the bound.
func TestGroupMaxSizeBound(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.MaxGroupSize = 2
	cfg.CheckpointEvery = 1 << 30
	cfg.crashHook = blockingHook(entered, gate)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := svc.Write(ctx, 0, chaosPayload(32, 1, 1)); err != nil {
			t.Error(err)
		}
	}()
	<-entered // worker held inside write 0; build a 6-deep backlog behind it
	for w := 1; w <= 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := svc.Write(ctx, uint64(w), chaosPayload(32, 1, uint64(w)+1)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	// Admission is a buffered channel send, so "queued" is observable only
	// indirectly; give the senders a moment, then release the worker.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	st := svc.Stats()
	if st.Writes != 7 {
		t.Fatalf("writes %d, want 7", st.Writes)
	}
	for b := 2; b < len(st.GroupSizes); b++ {
		if st.GroupSizes[b] != 0 {
			t.Fatalf("window larger than MaxGroupSize=2 dispatched: hist %v", st.GroupSizes)
		}
	}
	if st.GroupSizes[1] == 0 {
		t.Fatalf("backlog of 6 never produced a size-2 window: hist %v", st.GroupSizes)
	}
}

// TestGroupFairnessReaderNotStarved: a saturating writer pool must not
// starve a reader — FIFO admission puts every read in the next window,
// so all reads complete while the writers keep hammering.
func TestGroupFairnessReaderNotStarved(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.CheckpointEvery = 1 << 30
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(1); !stop.Load(); i++ {
				if err := svc.Write(ctx, uint64(w), chaosPayload(32, uint64(w), i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	// The reader owns addr 60, which no writer touches: every read must
	// return the zero block, promptly, under full write saturation.
	done := make(chan struct{})
	go func() {
		defer close(done)
		zero := make([]byte, 32)
		for i := 0; i < 50; i++ {
			got, err := svc.Read(ctx, 60)
			if err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
			if !bytes.Equal(got, zero) {
				t.Errorf("read %d returned non-zero block", i)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Error("reader starved: 50 reads did not complete under write saturation")
	}
	stop.Store(true)
	wg.Wait()
	if st := svc.Stats(); st.Reads < 50 {
		t.Fatalf("reads %d, want >= 50", st.Reads)
	}
}

// TestGroupInvalidOpIsolated: an invalid request coalesced into a
// window is answered with its own validation error without poisoning
// its neighbours (which must commit durably and be acknowledged).
func TestGroupInvalidOpIsolated(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.CheckpointEvery = 1 << 30
	cfg.crashHook = blockingHook(entered, gate)
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := svc.Write(ctx, 0, chaosPayload(32, 3, 1)); err != nil {
			t.Error(err)
		}
	}()
	<-entered
	var badErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		badErr = svc.Write(ctx, 1, []byte{1, 2, 3}) // wrong payload size
	}()
	for w := 2; w <= 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := svc.Write(ctx, uint64(w), chaosPayload(32, 3, uint64(w))); err != nil {
				t.Errorf("write %d: %v", w, err)
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if badErr == nil || errors.Is(badErr, errKilled) {
		t.Fatalf("malformed write in a group returned %v, want a validation error", badErr)
	}
	for w := 2; w <= 4; w++ {
		got, err := svc.Read(ctx, uint64(w))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, chaosPayload(32, 3, uint64(w))) {
			t.Fatalf("write %d lost after sharing a window with an invalid op", w)
		}
	}
}

// TestGroupMixedKindsInterleave: batches, writes, and reads from many
// goroutines — with disjoint address ranges so each can assert
// read-your-writes — exercising mixed-kind windows and the span-based
// result distribution under -race.
func TestGroupMixedKindsInterleave(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG, rounds = 6, 8, 18
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			base := uint64(g * perG)
			last := make(map[uint64][]byte)
			for i := 0; i < rounds; i++ {
				switch i % 3 {
				case 0: // write
					addr := base + uint64(i)%perG
					data := chaosPayload(32, uint64(g)+10, uint64(i)+1)
					if err := svc.Write(ctx, addr, data); err != nil {
						t.Errorf("g%d write: %v", g, err)
						return
					}
					last[addr] = data
				case 1: // batch: one write + one read-back of an own address
					wa, ra := base+uint64(i)%perG, base+uint64(i+1)%perG
					data := chaosPayload(32, uint64(g)+20, uint64(i)+1)
					out, err := svc.Batch(ctx, []BatchOp{
						{Addr: wa, Write: true, Data: data},
						{Addr: ra},
					})
					if err != nil {
						t.Errorf("g%d batch: %v", g, err)
						return
					}
					last[wa] = data
					want := last[ra]
					if want == nil {
						want = make([]byte, 32)
					}
					if !bytes.Equal(out[1], want) {
						t.Errorf("g%d batch read diverged at addr %d", g, ra)
						return
					}
				default: // read
					addr := base + uint64(i)%perG
					got, err := svc.Read(ctx, addr)
					if err != nil {
						t.Errorf("g%d read: %v", g, err)
						return
					}
					want := last[addr]
					if want == nil {
						want = make([]byte, 32)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("g%d lost write at addr %d", g, addr)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if want := uint64(goroutines * rounds); st.GroupedOps != want {
		t.Fatalf("grouped ops %d, want %d (every request in exactly one window)", st.GroupedOps, want)
	}
}

// TestBurstLingerCoalesces pins the explicit first-request linger that
// replaced the scheduler-yield coalescing hack: a second write landing
// within BurstLinger of the first must still share its window and its
// sync — on any host, not just a single-P runtime.
func TestBurstLingerCoalesces(t *testing.T) {
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.BurstLinger = 300 * time.Millisecond
	cfg.CheckpointEvery = 1 << 30
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 1 {
				time.Sleep(20 * time.Millisecond) // inside the burst linger
			}
			if err := svc.Write(ctx, uint64(w), chaosPayload(32, 5, uint64(w)+1)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Groups != 1 || st.GroupedOps != 2 || st.WALSyncs != 1 {
		t.Fatalf("burst linger did not coalesce: groups %d, grouped ops %d, syncs %d",
			st.Groups, st.GroupedOps, st.WALSyncs)
	}

	// Disabled linger (negative): the same 20ms-apart pair must now
	// commit as two singleton windows with two syncs.
	cfg2 := testServiceConfig(Fork)
	cfg2.QueueDepth = 8
	cfg2.BurstLinger = -1
	cfg2.CheckpointEvery = 1 << 30
	svc2, err := NewService(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if w == 1 {
				time.Sleep(20 * time.Millisecond)
			}
			if err := svc2.Write(ctx, uint64(w), chaosPayload(32, 6, uint64(w)+1)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	if st := svc2.Stats(); st.Groups != 2 || st.WALSyncs != 2 {
		t.Fatalf("disabled burst linger still coalesced: groups %d, syncs %d", st.Groups, st.WALSyncs)
	}
}

// TestBurstCoalescingFewCores is the few-core regression for the
// replaced Gosched hack: pinned to a single P, concurrent writer bursts
// must still form multi-op windows through the default burst linger.
func TestBurstCoalescingFewCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := testServiceConfig(Fork)
	cfg.QueueDepth = 8
	cfg.CheckpointEvery = 1 << 30
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	const rounds, writers = 25, 4
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if err := svc.Write(ctx, uint64(w), chaosPayload(32, uint64(r)+40, uint64(w)+1)); err != nil {
					t.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
	st := svc.Stats()
	if st.Groups == st.Writes {
		t.Fatal("single-P bursts never coalesced: every window was a singleton")
	}
	if st.WALSyncs >= st.Writes {
		t.Fatalf("%d syncs for %d writes on one P: coalescing regressed", st.WALSyncs, st.Writes)
	}
}

// pipelinedServiceConfig is testServiceConfig over a concurrent serve
// stage (PipelineDepth 4, ServeWorkers 2), so multi-op dispatch windows
// run through the device pipeline.
func pipelinedServiceConfig() ServiceConfig {
	cfg := testServiceConfig(Fork)
	cfg.Device.QueueSize = 8
	cfg.Device.PipelineDepth = 4
	cfg.Device.ServeWorkers = 2
	return cfg
}

// TestPipelinedServiceRoundTrip: read-your-writes, a multi-op batch, an
// explicit checkpoint, and exact stats through a pipelined device.
func TestPipelinedServiceRoundTrip(t *testing.T) {
	svc, err := NewService(pipelinedServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for a := uint64(0); a < 16; a++ {
		if err := svc.Write(ctx, a, chaosPayload(32, 77, a+1)); err != nil {
			t.Fatalf("write %d: %v", a, err)
		}
	}
	ops := make([]BatchOp, 0, 8)
	for a := uint64(0); a < 8; a++ {
		ops = append(ops, BatchOp{Addr: a})
	}
	out, err := svc.Batch(ctx, ops)
	if err != nil {
		t.Fatalf("read batch: %v", err)
	}
	for a := uint64(0); a < 16; a++ {
		got, err := svc.Read(ctx, a)
		if err != nil {
			t.Fatalf("read %d: %v", a, err)
		}
		if !bytes.Equal(got, chaosPayload(32, 77, a+1)) {
			t.Fatalf("addr %d read back wrong data", a)
		}
		if a < 8 && !bytes.Equal(out[a], got) {
			t.Fatalf("batch read of addr %d diverged from the single read", a)
		}
	}
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint barrier: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Writes != 16 || st.Reads != 16 || st.Batches != 1 {
		t.Fatalf("writes %d reads %d batches %d, want 16/16/1", st.Writes, st.Reads, st.Batches)
	}
	if st.Pipeline.Windows == 0 {
		t.Fatalf("the read batch never engaged the pipeline: %+v", st.Pipeline)
	}
}

// TestPipelinedDegenerateWindows drives the nothing-to-do paths over a
// pipelined device: a window whose every request is invalid (nothing
// journaled, nothing applied), a checkpoint with no window in flight,
// and a lone write that commits as a singleton window. Each pipelined
// batch opens and closes its own session, so none of these may wedge
// or double-retire.
func TestPipelinedDegenerateWindows(t *testing.T) {
	svc, err := NewService(pipelinedServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()

	// Empty window: the sole gathered request fails validation.
	if err := svc.Write(ctx, 0, []byte{1, 2, 3}); err == nil || errors.Is(err, errKilled) {
		t.Fatalf("malformed write returned %v, want a validation error", err)
	}
	if err := svc.Checkpoint(ctx); err != nil {
		t.Fatalf("checkpoint on an idle service: %v", err)
	}
	if err := svc.Write(ctx, 1, chaosPayload(32, 78, 1)); err != nil {
		t.Fatalf("lone write: %v", err)
	}
	if _, err := svc.Batch(ctx, []BatchOp{{Addr: 1}, {Addr: 2}}); err != nil {
		t.Fatalf("pipelined read batch: %v", err)
	}
	got, err := svc.Read(ctx, 1)
	if err != nil || !bytes.Equal(got, chaosPayload(32, 78, 1)) {
		t.Fatalf("lone write not readable: %v", err)
	}
	// Another invalid-only window right before Close, so teardown runs
	// with the last window being degenerate.
	if err := svc.Write(ctx, 1<<40, chaosPayload(32, 78, 2)); err == nil {
		t.Fatal("out-of-range write was accepted")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close after degenerate windows: %v", err)
	}
}

// TestPipelinedCloseMidBurst: Close arriving while a burst of writers
// is still being coalesced into pipelined windows must drain cleanly —
// every acknowledged write durable — and a new incarnation over the
// same stores must read everything back.
func TestPipelinedCloseMidBurst(t *testing.T) {
	walStore := wal.NewMemStore()
	ckpts := NewMemCheckpointStore()
	cfg := pipelinedServiceConfig()
	cfg.QueueDepth = 16
	cfg.WAL = walStore
	cfg.Checkpoints = ckpts
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const writers, each = 8, 6
	acked := make([][]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				addr := uint64(w*each + i)
				err := svc.Write(ctx, addr, chaosPayload(32, 99, addr))
				if err == nil {
					acked[w] = append(acked[w], addr)
					continue
				}
				if !errors.Is(err, ErrClosed) {
					t.Errorf("writer %d: %v", w, err)
				}
				return // closed mid-burst: later writes would also be refused
			}
		}(w)
	}
	// Let the burst form windows, then close into it.
	time.Sleep(2 * time.Millisecond)
	if err := svc.Close(); err != nil {
		t.Fatalf("close mid-burst: %v", err)
	}
	wg.Wait()

	cfg2 := pipelinedServiceConfig()
	cfg2.WAL = walStore
	cfg2.Checkpoints = ckpts
	svc2, err := NewService(cfg2)
	if err != nil {
		t.Fatalf("reopen after mid-burst close: %v", err)
	}
	defer svc2.Close()
	n := 0
	for w := range acked {
		for _, addr := range acked[w] {
			got, err := svc2.Read(ctx, addr)
			if err != nil {
				t.Fatalf("reopened read %d: %v", addr, err)
			}
			if !bytes.Equal(got, chaosPayload(32, 99, addr)) {
				t.Fatalf("acked write %d lost across mid-burst close", addr)
			}
			n++
		}
	}
	t.Logf("%d acked writes survived a mid-burst close", n)
}
