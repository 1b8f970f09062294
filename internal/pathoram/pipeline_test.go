package pathoram

import (
	"bytes"
	"errors"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/rng"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// pipeHarness builds a controller over a fresh Mem backend and seeds its
// stash with real blocks labelled from labels, so refills have something
// to evict and reads something to find.
func pipeHarness(t *testing.T, tr tree.Tree, geo block.Geometry, labels []tree.Label, seedBlocks int) *Controller {
	t.Helper()
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{Tree: tr, StashCapacity: 400, TrackData: true}, st)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < seedBlocks; a++ {
		c.stash.Put(block.Block{
			Addr:  uint64(a),
			Label: labels[a%len(labels)],
			Data:  payload(geo.PayloadSize, byte(a)),
		})
	}
	return c
}

// startPipe opens a pipelined window that must engage.
func startPipe(t *testing.T, c *Controller, o PipelineOpts) {
	t.Helper()
	ok, err := c.StartPipelineOpts(o)
	if err != nil || !ok {
		t.Fatalf("StartPipelineOpts(%+v) = %v, %v; want an engaged window", o, ok, err)
	}
}

// forkStep is one fork-style access of a scripted sequence: read
// [from, L] of label, serve addr (relabelled to newLabel, writing data
// when non-nil) unless dummy, refill [stop, L] leaf to root.
type forkStep struct {
	label, newLabel tree.Label
	from, stop      uint
	addr            uint64
	data            []byte
	dummy           bool
}

// forkScript builds a valid fork-style access sequence over blocks
// [0, seedBlocks) whose initial labels are init: every fourth access is
// a dummy on a random path, the others serve a block on its current
// path and relabel it. Reads merge from the overlap with the previous
// label and refills stop at the overlap with the next, so the stash
// always holds the path prefix a block might sit in.
func forkScript(tr tree.Tree, src *rng.Source, init []tree.Label, steps, payloadSize int) []forkStep {
	pos := append([]tree.Label(nil), init...)
	script := make([]forkStep, steps)
	for i := range script {
		s := &script[i]
		if i%4 == 3 {
			s.label, s.dummy = tree.Label(src.Uint64n(tr.Leaves())), true
		} else {
			s.addr = src.Uint64n(uint64(len(pos)))
			s.label = pos[s.addr]
			s.newLabel = tree.Label(src.Uint64n(tr.Leaves()))
			pos[s.addr] = s.newLabel
			if i%2 == 0 {
				s.data = payload(payloadSize, byte(i))
			}
		}
	}
	for i := range script {
		if i > 0 {
			script[i].from = tr.Overlap(script[i-1].label, script[i].label)
		}
		if i+1 < len(script) {
			script[i].stop = tr.Overlap(script[i].label, script[i+1].label)
		}
	}
	return script
}

// TestPipelineMatchesSerial drives identically-seeded controllers
// through the same fork-style access sequence — merged reads from the
// overlap level, a served request, per-level leaf-to-root refills
// stopping at the overlap with the next label — once serially and once
// inside a pipelined window at one and two serve workers, recording
// each access with ReadRange/DeferServe/WriteLevel, sealing it with
// CommitAccess and prefetching the next path. Served payloads, every
// adversary-visible node sequence, the final stash, and the final
// medium must match: the pipeline may overlap stages in time, never
// change what they do.
func TestPipelineMatchesSerial(t *testing.T) {
	tr := tree.MustNew(6)
	geo := block.Geometry{Z: 4, PayloadSize: 64}
	const steps, seedBlocks = 120, 32

	src := rng.New(99)
	init := make([]tree.Label, seedBlocks)
	for i := range init {
		init[i] = tree.Label(src.Uint64n(tr.Leaves()))
	}
	script := forkScript(tr, src, init, steps, geo.PayloadSize)

	// drive runs the script and returns the concatenated read-node trace
	// and the served payloads (filled at execution when pipelined).
	drive := func(c *Controller, pipelined bool) ([]tree.Node, [][]byte) {
		var trace []tree.Node
		var buf []tree.Node
		served := make([][]byte, len(script))
		for i, s := range script {
			if s.from <= tr.LeafLevel() {
				var err error
				buf, err = c.ReadRange(s.label, s.from, buf[:0])
				if err != nil {
					t.Fatalf("step %d: read: %v", i, err)
				}
				trace = append(trace, buf...)
			}
			if !s.dummy {
				op := OpRead
				if s.data != nil {
					op = OpWrite
				}
				if pipelined {
					if !c.DeferServe(op, s.addr, s.newLabel, s.data, func(o []byte, _ error) { served[i] = o }) {
						t.Fatalf("step %d: DeferServe refused inside a window", i)
					}
				} else {
					o, err := c.FetchBlock(op, s.addr, s.newLabel, s.data)
					if err != nil {
						t.Fatalf("step %d: fetch: %v", i, err)
					}
					served[i] = o
				}
			}
			for lvl := int(tr.LeafLevel()); lvl >= int(s.stop); lvl-- {
				if _, err := c.WriteLevel(s.label, uint(lvl)); err != nil {
					t.Fatalf("step %d: write level %d: %v", i, lvl, err)
				}
			}
			if !pipelined {
				c.EndAccess()
				continue
			}
			if err := c.CommitAccess(AccessDeps{
				Label: s.label, ReadFrom: s.from, Stop: s.stop, Dummy: s.dummy,
			}); err != nil {
				t.Fatalf("step %d: commit: %v", i, err)
			}
			if i+1 < len(script) && script[i+1].from <= tr.LeafLevel() {
				c.Prefetch(script[i+1].label, script[i+1].from)
			}
		}
		return trace, served
	}

	ref := pipeHarness(t, tr, geo, init, seedBlocks)
	refTrace, refServed := drive(ref, false)

	for _, workers := range []int{1, 2} {
		pip := pipeHarness(t, tr, geo, init, seedBlocks)
		startPipe(t, pip, PipelineOpts{Depth: 4, ServeWorkers: workers})
		pipTrace, pipServed := drive(pip, true)
		if err := pip.StopPipeline(); err != nil {
			t.Fatalf("workers %d: StopPipeline: %v", workers, err)
		}

		if len(refTrace) != len(pipTrace) {
			t.Fatalf("workers %d: trace lengths diverged: %d vs %d", workers, len(refTrace), len(pipTrace))
		}
		for i := range refTrace {
			if refTrace[i] != pipTrace[i] {
				t.Fatalf("workers %d: read trace diverged at %d: %d vs %d", workers, i, refTrace[i], pipTrace[i])
			}
		}
		for i := range refServed {
			if !bytes.Equal(refServed[i], pipServed[i]) {
				t.Fatalf("workers %d: step %d served a different payload", workers, i)
			}
		}

		st := pip.PipelineStats()
		if st.Windows != 1 {
			t.Fatalf("workers %d: want 1 pipelined window, got %d", workers, st.Windows)
		}
		if st.Prefetches == 0 || st.PrefetchedBuckets == 0 {
			t.Fatalf("workers %d: pipeline never prefetched: %+v", workers, st)
		}
		if st.Writebacks == 0 {
			t.Fatalf("workers %d: pipeline never wrote back: %+v", workers, st)
		}
		if w, g := ref.stash.Stats().Accesses, pip.stash.Stats().Accesses; w != g {
			t.Fatalf("workers %d: stash samples diverged: %d vs %d", workers, w, g)
		}

		// Final stash: identical occupancy and identical blocks.
		if w, g := ref.stash.Len(), pip.stash.Len(); w != g {
			t.Fatalf("workers %d: stash occupancy diverged: %d vs %d", workers, w, g)
		}
		for a := uint64(0); a < seedBlocks; a++ {
			rb, rok := ref.stash.Get(a)
			pb, pok := pip.stash.Get(a)
			if rok != pok {
				t.Fatalf("workers %d: stash presence of addr %d diverged", workers, a)
			}
			if rok && (rb.Label != pb.Label || !bytes.Equal(rb.Data, pb.Data)) {
				t.Fatalf("workers %d: stash block %d diverged", workers, a)
			}
		}

		// Final medium: every bucket holds the same blocks (ciphertexts
		// differ by nonce; contents must not).
		for n := tree.Node(0); n < tree.Node(tr.Nodes()); n++ {
			rb, err := ref.store.ReadBucket(n)
			if err != nil {
				t.Fatal(err)
			}
			want := append([]block.Block(nil), rb.Blocks...)
			for i := range want {
				want[i].Data = append([]byte(nil), want[i].Data...)
			}
			pb, err := pip.store.ReadBucket(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(pb.Blocks) {
				t.Fatalf("workers %d: bucket %d occupancy diverged: %d vs %d", workers, n, len(want), len(pb.Blocks))
			}
			for i := range want {
				if want[i].Addr != pb.Blocks[i].Addr || want[i].Label != pb.Blocks[i].Label ||
					!bytes.Equal(want[i].Data, pb.Blocks[i].Data) {
					t.Fatalf("workers %d: bucket %d block %d diverged", workers, n, i)
				}
			}
		}
	}
}

// TestPipelineStartGates pins the conditions under which the pipeline
// refuses to engage, leaving the serial path untouched.
func TestPipelineStartGates(t *testing.T) {
	tr := tree.MustNew(4)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	start := func(c *Controller, depth, workers int) bool {
		t.Helper()
		ok, err := c.StartPipelineOpts(PipelineOpts{Depth: depth, ServeWorkers: workers})
		if err != nil {
			t.Fatalf("StartPipelineOpts(depth %d): %v", depth, err)
		}
		return ok
	}

	serial, err := NewController(Config{Tree: tr, StashCapacity: 100}, noBulk{st})
	if err != nil {
		t.Fatal(err)
	}
	if start(serial, 4, 1) {
		t.Fatal("pipeline engaged without a bulk backend")
	}

	for _, workers := range []int{1, 2} {
		c, err := NewController(Config{Tree: tr, StashCapacity: 100}, st)
		if err != nil {
			t.Fatal(err)
		}
		if start(c, 1, workers) {
			t.Fatalf("workers %d: pipeline engaged at depth 1 (serial by definition)", workers)
		}
		if !start(c, 2, workers) {
			t.Fatalf("workers %d: pipeline refused a valid depth-2 request", workers)
		}
		if start(c, 2, workers) {
			t.Fatalf("workers %d: pipeline engaged twice without StopPipeline", workers)
		}
		if err := c.StopPipeline(); err != nil {
			t.Fatalf("workers %d: StopPipeline on idle pipeline: %v", workers, err)
		}
		if st := c.PipelineStats(); st.Windows != 1 {
			t.Fatalf("workers %d: want 1 window recorded, got %d", workers, st.Windows)
		}

		c.err = errors.New("already failed")
		if start(c, 2, workers) {
			t.Fatalf("workers %d: pipeline engaged on a failed controller", workers)
		}
	}
}

// TestStartPipelineOptsValidation pins the typed rejection and clamping
// edges of StartPipelineOpts: nonsensical geometry is an error (not a
// silent serial fallback), and an over-provisioned worker pool clamps
// to the window depth with the clamp surfaced as a stat.
func TestStartPipelineOptsValidation(t *testing.T) {
	tr := tree.MustNew(4)
	geo := block.Geometry{Z: 4, PayloadSize: 32}

	cases := []struct {
		name    string
		opts    PipelineOpts
		wantErr error
		started bool
		clamps  uint64
	}{
		{name: "depth zero", opts: PipelineOpts{Depth: 0}, wantErr: ErrPipelineDepth},
		{name: "depth negative", opts: PipelineOpts{Depth: -3}, wantErr: ErrPipelineDepth},
		{name: "workers clamp to depth", opts: PipelineOpts{Depth: 2, ServeWorkers: 8}, started: true, clamps: 1},
		{name: "workers within depth", opts: PipelineOpts{Depth: 4, ServeWorkers: 2}, started: true},
		{name: "workers zero is one worker", opts: PipelineOpts{Depth: 4}, started: true},
		{name: "depth one is serial", opts: PipelineOpts{Depth: 1}}, // gate, not an error
	}
	for _, tc := range cases {
		st, err := storage.NewMem(tr, geo, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(Config{Tree: tr, StashCapacity: 100}, st)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := c.StartPipelineOpts(tc.opts)
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("%s: error %v, want %v", tc.name, err, tc.wantErr)
			}
			if ok {
				t.Fatalf("%s: started despite invalid options", tc.name)
			}
			// A rejected start must not fail-stop the controller.
			if c.Err() != nil {
				t.Fatalf("%s: rejection latched controller error %v", tc.name, c.Err())
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: unexpected error %v", tc.name, err)
		}
		if ok != tc.started {
			t.Fatalf("%s: started=%v, want %v", tc.name, ok, tc.started)
		}
		if ok {
			if err := c.StopPipeline(); err != nil {
				t.Fatalf("%s: stop: %v", tc.name, err)
			}
		}
		if got := c.PipelineStats().WorkerClamps; got != tc.clamps {
			t.Fatalf("%s: WorkerClamps %d, want %d", tc.name, got, tc.clamps)
		}
	}
}

// failingBulk wraps a BulkBackend and fails WriteBuckets after a set
// number of calls — the worker-side failure the pipeline must latch.
type failingBulk struct {
	storage.BulkBackend
	remaining int
}

var errBulkWrite = errors.New("injected bulk write failure")

func (f *failingBulk) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	if f.remaining <= 0 {
		return errBulkWrite
	}
	f.remaining--
	return f.BulkBackend.WriteBuckets(ns, bks)
}

// TestPipelineWritebackErrorFailStops verifies that a writeback failure
// on a writer surfaces (at the latest) at StopPipeline and fail-stops
// the controller — the planned evictions are lost, exactly like a serial
// write failure.
func TestPipelineWritebackErrorFailStops(t *testing.T) {
	tr := tree.MustNew(5)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	for _, workers := range []int{1, 2} {
		st, err := storage.NewMem(tr, geo, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(Config{Tree: tr, StashCapacity: 200, TrackData: true}, &failingBulk{BulkBackend: st, remaining: 2})
		if err != nil {
			t.Fatal(err)
		}
		startPipe(t, c, PipelineOpts{Depth: 2, ServeWorkers: workers})
		var derr error
		for i := 0; i < 8 && derr == nil; i++ {
			label := tree.Label(uint64(i) % tr.Leaves())
			if _, derr = c.ReadRange(label, 0, nil); derr != nil {
				break
			}
			for lvl := int(tr.LeafLevel()); lvl >= 0 && derr == nil; lvl-- {
				_, derr = c.WriteLevel(label, uint(lvl))
			}
			if derr == nil {
				derr = c.CommitAccess(AccessDeps{Label: label, Dummy: true})
			}
		}
		serr := c.StopPipeline()
		if derr == nil && serr == nil {
			t.Fatalf("workers %d: injected writeback failure never surfaced", workers)
		}
		if !errors.Is(c.Err(), errBulkWrite) {
			t.Fatalf("workers %d: controller error = %v, want the injected failure", workers, c.Err())
		}
		if _, err := c.ReadRange(0, 0, nil); !errors.Is(err, errBulkWrite) {
			t.Fatalf("workers %d: controller kept serving after writeback failure: %v", workers, err)
		}
	}
}

// TestPipelinePrefetchMismatchFaults verifies the engine-bug tripwire:
// consuming a prefetch issued for a different (label, level) must fault
// rather than silently serve the wrong path, and fail-stop the
// controller at detection, not only at StopPipeline.
func TestPipelinePrefetchMismatchFaults(t *testing.T) {
	tr := tree.MustNew(5)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	for _, workers := range []int{1, 2} {
		st, err := storage.NewMem(tr, geo, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(Config{Tree: tr, StashCapacity: 200}, st)
		if err != nil {
			t.Fatal(err)
		}
		startPipe(t, c, PipelineOpts{Depth: 2, ServeWorkers: workers})
		c.Prefetch(3, 0)
		if _, err := c.ReadRange(5, 0, nil); err == nil {
			t.Fatalf("workers %d: mismatched prefetch consumed without error", workers)
		}
		if c.Err() == nil {
			t.Fatalf("workers %d: mismatch did not fail-stop the controller", workers)
		}
		if err := c.StopPipeline(); err == nil {
			t.Fatalf("workers %d: StopPipeline cleared a fail-stopped controller", workers)
		}
	}
}

// TestPipelineCommitDivergenceFailStops verifies the footprint tripwire:
// sealing an access whose engine-reported footprint disagrees with what
// the stage recorded fails at CommitAccess and fail-stops the
// controller at once.
func TestPipelineCommitDivergenceFailStops(t *testing.T) {
	tr := tree.MustNew(5)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{Tree: tr, StashCapacity: 200}, st)
	if err != nil {
		t.Fatal(err)
	}
	startPipe(t, c, PipelineOpts{Depth: 2, ServeWorkers: 2})
	if _, err := c.ReadRange(5, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitAccess(AccessDeps{Label: 6, Dummy: true}); err == nil {
		t.Fatal("divergent footprint sealed without error")
	}
	if c.Err() == nil {
		t.Fatal("divergence did not fail-stop the controller")
	}
	if err := c.StopPipeline(); err == nil {
		t.Fatal("StopPipeline cleared a fail-stopped controller")
	}
}

// TestPipelineUnsealedAccessFailStops verifies that a window stopped
// with a recorded access that was never sealed — its reads, serve and
// refill would never run — fails with ErrUnsealedAccess and fail-stops
// the controller instead of silently dropping the access.
func TestPipelineUnsealedAccessFailStops(t *testing.T) {
	tr := tree.MustNew(5)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	for _, workers := range []int{1, 2} {
		st, err := storage.NewMem(tr, geo, make([]byte, 16))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewController(Config{Tree: tr, StashCapacity: 200}, st)
		if err != nil {
			t.Fatal(err)
		}
		startPipe(t, c, PipelineOpts{Depth: 2, ServeWorkers: workers})
		if _, err := c.ReadRange(5, 0, nil); err != nil {
			t.Fatal(err)
		}
		for lvl := int(tr.LeafLevel()); lvl >= 0; lvl-- {
			if _, err := c.WriteLevel(5, uint(lvl)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.StopPipeline(); !errors.Is(err, ErrUnsealedAccess) {
			t.Fatalf("workers %d: StopPipeline = %v, want ErrUnsealedAccess", workers, err)
		}
		if !errors.Is(c.Err(), ErrUnsealedAccess) {
			t.Fatalf("workers %d: controller error = %v, want ErrUnsealedAccess", workers, c.Err())
		}
	}
}

// TestFailedRetireKeepsPendingFetchSlot pins the slot-recycling rule of
// the abort path: once an error is latched, a task resolves, executes
// and retires without waiting for its own fetch, which may still sit in
// the fetch queue. Recycling that slot would let the next Prefetch
// rewrite it while the fetch worker still owns it (a data race the
// -race crash campaign caught on kill paths).
func TestFailedRetireKeepsPendingFetchSlot(t *testing.T) {
	tr := tree.MustNew(4)
	geo := block.Geometry{Z: 4, PayloadSize: 32}
	st, err := storage.NewMem(tr, geo, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewController(Config{Tree: tr, StashCapacity: 100}, st)
	if err != nil {
		t.Fatal(err)
	}
	startPipe(t, c, PipelineOpts{Depth: 2, ServeWorkers: 2})
	cs := c.cs
	pending := &pfSlot{} // queued, not yet ready
	cs.mu.Lock()
	task := cs.takeTask()
	task.pf, task.executed, task.failed = pending, true, true
	cs.tasks = append(cs.tasks, task)
	cs.resolveIdx = len(cs.tasks)
	cs.retireLoop()
	for _, s := range cs.slotFree {
		if s == pending {
			t.Error("slot with a pending fetch recycled at retire")
		}
	}
	cs.mu.Unlock()
	if err := c.StopPipeline(); err != nil {
		t.Fatal(err)
	}
}
