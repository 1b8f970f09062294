// Pipelined path fetch and writeback (the intra-shard ORAM pipeline).
//
// A pipelined dispatch window overlaps the three stages of consecutive
// Fork Path accesses:
//
//	fetch      — ReadBuckets + Open of access N+1's scheduled path
//	serve/evict — stash mutation, request serving, eviction planning (N)
//	writeback  — EncodeBucket + Seal + WriteBuckets of access N's refill
//
// Only the serve/evict stage runs on the engine goroutine; fetch and
// writeback each get a worker. Program order is preserved because stash
// and position-map state are touched by exactly one goroutine — the
// workers see only storage nodes and self-owned buffers.
//
// Why overlapping is safe: the fork engine commits the next scheduled
// access at Finish (the fork point becomes visible, so dummy-request
// replacing can no longer swap it). From that instant, access N+1's
// label and read range [overlap(N,N+1), L] are fixed — and provably
// DISJOINT from access N's write set [overlap(N,N+1), L] on path N,
// because the two paths diverge exactly at the overlap level. Deeper
// overlap (writeback N-1 vs. fetch N+1) can conflict, e.g. when labels
// repeat; the pipeline tracks queued writeback nodes as hazards and a
// fetch waits until every node it needs has retired — a store buffer,
// in CPU terms.
//
// Why prefetch leaks nothing: the schedule is deterministic given the
// (public) access sequence; prefetching path N+1 only moves memory
// traffic the adversary was already going to observe earlier in time,
// and its timing depends on queue occupancy the adversary cannot see
// beyond what the serial engine already reveals.
package pathoram

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"forkoram/internal/block"
	"forkoram/internal/prof"
	"forkoram/internal/tree"
)

// Typed option errors returned by StartPipelineOpts. Both are
// configuration bugs, not requests for the serial path: a depth of 1
// (serial) is expressed as Depth: 1, never 0 or negative.
var (
	// ErrPipelineDepth rejects PipelineOpts.Depth < 1.
	ErrPipelineDepth = errors.New("pathoram: pipeline depth must be >= 1")
	// ErrWritebackQueue rejects PipelineOpts.WritebackQueue < 0 (0 means
	// "use the default sizing", negative is meaningless).
	ErrWritebackQueue = errors.New("pathoram: writeback queue must be >= 0")
)

// PipelineStats counts pipelined work and per-stage stalls. Counters
// accumulate across dispatch windows (folded in at StopPipeline).
type PipelineStats struct {
	// Windows is the number of pipelined dispatch windows run.
	Windows uint64 `json:"windows"`
	// Prefetches counts path segments fetched ahead of their access;
	// PrefetchedBuckets the buckets they carried.
	Prefetches        uint64 `json:"prefetches"`
	PrefetchedBuckets uint64 `json:"prefetched_buckets"`
	// Writebacks counts access refills retired by the writeback worker.
	Writebacks uint64 `json:"writebacks"`
	// FetchWaits/FetchWaitNs: fetch-stage stalls — prefetches (or
	// window-start reads) that waited for a conflicting queued
	// writeback to retire before touching storage.
	FetchWaits  uint64 `json:"fetch_waits"`
	FetchWaitNs uint64 `json:"fetch_wait_ns"`
	// EvictWaits/EvictWaitNs: serve/evict-stage stalls — the engine
	// goroutine blocked waiting for its prefetched path to arrive.
	EvictWaits  uint64 `json:"evict_waits"`
	EvictWaitNs uint64 `json:"evict_wait_ns"`
	// WritebackWaits/WritebackWaitNs: writeback-stage stalls — refill
	// submissions blocked on the bounded in-flight queue (pipeline full).
	WritebackWaits  uint64 `json:"writeback_waits"`
	WritebackWaitNs uint64 `json:"writeback_wait_ns"`
	// ServeWaits/ServeWaitNs: admission stalls of the concurrent serve
	// stage — the sequencer blocked starting a new access because all
	// in-flight slots were occupied (window backpressure). Zero under
	// the serial serve stage.
	ServeWaits  uint64 `json:"serve_waits,omitempty"`
	ServeWaitNs uint64 `json:"serve_wait_ns,omitempty"`
	// DepWaits/DepWaitNs: dependency stalls of the concurrent serve
	// stage — accesses that parked behind a conflicting older in-flight
	// access (RAW/WAR/WAW at the stash, or overlapping fork-path node
	// sets) and the time from park to dispatch. Zero under the serial
	// serve stage.
	DepWaits  uint64 `json:"dep_waits,omitempty"`
	DepWaitNs uint64 `json:"dep_wait_ns,omitempty"`
	// WindowTurnarounds/WindowTurnaroundNs: inter-window stalls — the
	// gap between one pipelined window's completion (last retire) and
	// the next window's first fetch issue. Under the window-barriered
	// scheduler this spans the whole group-commit turnaround (gather,
	// journal append, fsync). Only meaningful under saturation: with
	// idle clients the gap includes think time.
	WindowTurnarounds  uint64 `json:"window_turnarounds,omitempty"`
	WindowTurnaroundNs uint64 `json:"window_turnaround_ns,omitempty"`
	// WorkerClamps counts windows that requested more serve workers
	// than in-flight slots (ServeWorkers > Depth); the pool is clamped
	// to Depth, since a worker beyond the ROB size can never hold a
	// task.
	WorkerClamps uint64 `json:"worker_clamps,omitempty"`
}

// Add folds o into s (aggregation across shards or windows).
func (s *PipelineStats) Add(o PipelineStats) {
	s.Windows += o.Windows
	s.Prefetches += o.Prefetches
	s.PrefetchedBuckets += o.PrefetchedBuckets
	s.Writebacks += o.Writebacks
	s.FetchWaits += o.FetchWaits
	s.FetchWaitNs += o.FetchWaitNs
	s.EvictWaits += o.EvictWaits
	s.EvictWaitNs += o.EvictWaitNs
	s.WritebackWaits += o.WritebackWaits
	s.WritebackWaitNs += o.WritebackWaitNs
	s.ServeWaits += o.ServeWaits
	s.ServeWaitNs += o.ServeWaitNs
	s.DepWaits += o.DepWaits
	s.DepWaitNs += o.DepWaitNs
	s.WindowTurnarounds += o.WindowTurnarounds
	s.WindowTurnaroundNs += o.WindowTurnaroundNs
	s.WorkerClamps += o.WorkerClamps
}

// Delta returns s - prev, for before/after snapshots of cumulative
// counters.
func (s PipelineStats) Delta(prev PipelineStats) PipelineStats {
	return PipelineStats{
		Windows:            s.Windows - prev.Windows,
		Prefetches:         s.Prefetches - prev.Prefetches,
		PrefetchedBuckets:  s.PrefetchedBuckets - prev.PrefetchedBuckets,
		Writebacks:         s.Writebacks - prev.Writebacks,
		FetchWaits:         s.FetchWaits - prev.FetchWaits,
		FetchWaitNs:        s.FetchWaitNs - prev.FetchWaitNs,
		EvictWaits:         s.EvictWaits - prev.EvictWaits,
		EvictWaitNs:        s.EvictWaitNs - prev.EvictWaitNs,
		WritebackWaits:     s.WritebackWaits - prev.WritebackWaits,
		WritebackWaitNs:    s.WritebackWaitNs - prev.WritebackWaitNs,
		ServeWaits:         s.ServeWaits - prev.ServeWaits,
		ServeWaitNs:        s.ServeWaitNs - prev.ServeWaitNs,
		DepWaits:           s.DepWaits - prev.DepWaits,
		DepWaitNs:          s.DepWaitNs - prev.DepWaitNs,
		WindowTurnarounds:  s.WindowTurnarounds - prev.WindowTurnarounds,
		WindowTurnaroundNs: s.WindowTurnaroundNs - prev.WindowTurnaroundNs,
		WorkerClamps:       s.WorkerClamps - prev.WorkerClamps,
	}
}

// wbJob is one access's planned refill travelling to the writeback
// worker: the nodes written (leaf-to-root, the order WriteLevel planned
// them) and the evicted blocks per node. The job owns its block slices
// — EvictAppend transferred the blocks out of the stash — so the worker
// encodes and seals without touching any engine-side state.
type wbJob struct {
	ns     []tree.Node
	bks    []block.Bucket
	blocks [][]block.Block
}

// pipeline is the per-window overlapped fetch/writeback unit. It lives
// for one dispatch window: StartPipeline spawns the two workers,
// StopPipeline drains and joins them, so an idle Controller owns no
// goroutines.
type pipeline struct {
	c     *Controller
	depth int

	// mu guards queued (the writeback hazard set: node -> pending job
	// count), wbErr, and the shared stall counters; cond signals hazard
	// retirement.
	mu     sync.Mutex
	cond   *sync.Cond
	queued map[tree.Node]int
	wbErr  error
	shared PipelineStats // worker-side counters (FetchWaits, Writebacks)

	wbCh   chan *wbJob
	wbFree chan *wbJob
	cur    *wbJob // job under construction by the current access's WriteLevel calls
	wg     sync.WaitGroup

	pfCh chan struct{}
	pf   prefetchState

	stats PipelineStats // engine-goroutine counters
}

// prefetchState is the single-slot fetch stage. The engine goroutine
// writes the request fields and sends on pfCh (happens-before the
// worker's read); the worker fills bks/err and closes done
// (happens-before the engine's consume). At most one prefetch is
// outstanding — issued after Finish(N), consumed by Begin(N+1).
type prefetchState struct {
	active bool
	label  tree.Label
	from   uint
	done   chan struct{}
	err    error
	ns     []tree.Node
	bks    []block.Bucket
}

func newPipeline(c *Controller, depth, wbQueue int) *pipeline {
	if wbQueue < depth-1 {
		// depth-1 refills may queue behind the one the worker holds; a
		// larger WritebackQueue only adds slack.
		wbQueue = depth - 1
	}
	p := &pipeline{
		c:      c,
		depth:  depth,
		queued: make(map[tree.Node]int),
		wbCh:   make(chan *wbJob, wbQueue),
		// One job may sit in the worker and one more is always free for
		// the access under construction.
		wbFree: make(chan *wbJob, wbQueue+2),
		pfCh:   make(chan struct{}, 1),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < wbQueue+2; i++ {
		p.wbFree <- &wbJob{}
	}
	p.wg.Add(2)
	go prof.Stage("fetch", p.fetchWorker)
	go prof.Stage("writeback", p.writebackWorker)
	return p
}

// PipelineOpts shapes one pipelined dispatch window.
type PipelineOpts struct {
	// Depth bounds the in-flight accesses of the window (>= 2 engages
	// the pipeline; 1 is the serial path).
	Depth int
	// ServeWorkers sizes the concurrent serve/evict stage: >= 2 runs
	// independent accesses' stash phases across a worker pool with
	// dependency-tracked scheduling (DESIGN.md §15); <= 1 keeps the
	// single-goroutine serve stage of DESIGN.md §12.
	ServeWorkers int
	// WritebackQueue bounds refill jobs queued behind the in-flight
	// writeback(s). 0 defaults to Depth-1 (the §12 sizing).
	WritebackQueue int
	// Observer, when set with ServeWorkers >= 2, receives each access's
	// bus trace at retire time, in program order. The slices are owned
	// by the callee only for the duration of the call.
	Observer func(label tree.Label, dummy bool, read, write []tree.Node)
	// Kill, when set with ServeWorkers >= 2, is polled by serve workers
	// before each access's stash phase; a non-nil error aborts the
	// window with that error (chaos kill point).
	Kill func() error
}

// StartPipeline arms the overlapped fetch/writeback pipeline for one
// dispatch window. It reports false — leaving the controller on the
// serial path — when the backend has no bulk interface (Integrity or
// Faults decorators pin per-bucket semantics), when depth < 2 (depth 1
// IS the serial path), or when the controller has already fail-stopped.
// Every StartPipeline that returns true must be paired with a
// StopPipeline before the controller is used serially again.
func (c *Controller) StartPipeline(depth int) bool {
	ok, _ := c.StartPipelineOpts(PipelineOpts{Depth: depth})
	return ok
}

// StartPipelineOpts is StartPipeline with the full option set; see
// PipelineOpts. ServeWorkers >= 2 arms the concurrent serve/evict stage
// instead of the serial one. Malformed options (Depth < 1,
// WritebackQueue < 0) are rejected with a typed error; every other
// false return is the deliberate serial path.
func (c *Controller) StartPipelineOpts(o PipelineOpts) (bool, error) {
	if o.Depth < 1 {
		return false, fmt.Errorf("%w (got %d)", ErrPipelineDepth, o.Depth)
	}
	if o.WritebackQueue < 0 {
		return false, fmt.Errorf("%w (got %d)", ErrWritebackQueue, o.WritebackQueue)
	}
	if c.err != nil || c.bulk == nil || o.Depth < 2 || c.pipe != nil || c.cs != nil {
		return false, nil
	}
	if o.ServeWorkers >= 2 {
		c.cs = newCserve(c, o)
	} else {
		c.pipe = newPipeline(c, o.Depth, o.WritebackQueue)
	}
	return true, nil
}

// StopPipeline drains the in-flight writebacks, joins the stage
// workers, folds the window's statistics, and returns the first error
// any stage latched (also latching it as the controller's fatal error:
// a failed writeback lost evicted blocks, so the controller must
// fail-stop exactly like a serial write failure).
func (c *Controller) StopPipeline() error {
	if c.cs != nil {
		cs := c.cs
		c.cs = nil
		err := cs.stop()
		st := cs.stats
		st.Add(cs.shared)
		st.Windows = 1
		c.pipeStats.Add(st)
		c.seamStart = time.Now()
		if err != nil && c.err == nil {
			c.err = err
		}
		return c.err
	}
	if c.pipe == nil {
		return c.err
	}
	p := c.pipe
	c.pipe = nil
	err := p.stop()
	st := p.stats
	st.Add(p.shared)
	st.Windows = 1
	c.pipeStats.Add(st)
	c.seamStart = time.Now()
	if err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}

// noteFirstFetch records the window-turnaround stall: the gap between
// the previous window's completion (StopPipeline) and this window's
// first fetch issue. Sequencer goroutine only, like pipeStats itself.
func (c *Controller) noteFirstFetch() {
	if c.seamStart.IsZero() {
		return
	}
	c.pipeStats.WindowTurnarounds++
	c.pipeStats.WindowTurnaroundNs += uint64(time.Since(c.seamStart))
	c.seamStart = time.Time{}
}

// Prefetch starts fetching the path of the next committed access —
// levels [fromLevel, L] of label — on the fetch worker. The caller
// (the Fork drive loop) must only pass a schedule the engine has
// committed (Engine.NextScheduled), or the next ReadRange will fault
// on the mismatch. No-op outside a pipelined window.
func (c *Controller) Prefetch(label tree.Label, fromLevel uint) {
	if c.err != nil || fromLevel > c.tr.LeafLevel() {
		return
	}
	if c.cs != nil {
		c.cs.prefetch(label, fromLevel)
		return
	}
	if c.pipe == nil {
		return
	}
	c.pipe.prefetch(label, fromLevel)
}

// FlushWriteback hands the current access's planned refill to the
// writeback worker (blocking while the bounded in-flight queue is
// full) and returns any failure a previous writeback latched. Call
// once per access, after its write phase completes. No-op outside a
// pipelined window.
func (c *Controller) FlushWriteback() error {
	if c.cs != nil {
		// The concurrent stage flushes at task execution; this is only an
		// error poll point for the drive loop.
		if err := c.cs.latched(); err != nil {
			if c.err == nil {
				c.err = err
			}
			return err
		}
		return nil
	}
	if c.pipe == nil {
		return nil
	}
	if err := c.pipe.flush(); err != nil {
		if c.err == nil {
			c.err = err
		}
		return err
	}
	return nil
}

// PipelineStats returns counters accumulated over every completed
// pipelined window.
func (c *Controller) PipelineStats() PipelineStats { return c.pipeStats }

// prefetch issues the single-slot fetch request. Engine goroutine only.
func (p *pipeline) prefetch(label tree.Label, fromLevel uint) {
	if p.pf.active {
		return // one outstanding fetch max (drive-loop bug; harmless to skip)
	}
	p.c.noteFirstFetch()
	ns := p.pf.ns[:0]
	for lvl := fromLevel; lvl <= p.c.tr.LeafLevel(); lvl++ {
		ns = append(ns, p.c.tr.NodeAt(label, lvl))
	}
	if cap(p.pf.bks) < len(ns) {
		p.pf.bks = make([]block.Bucket, len(ns))
	}
	p.pf.ns = ns
	p.pf.bks = p.pf.bks[:len(ns)]
	p.pf.label, p.pf.from = label, fromLevel
	p.pf.err = nil
	p.pf.done = make(chan struct{})
	p.pf.active = true
	p.stats.Prefetches++
	p.pfCh <- struct{}{} // cap 1, one outstanding: never blocks
}

// fetchWorker serves the single-slot fetch stage: wait out writeback
// hazards, then bulk-read and decrypt the committed path segment into
// the prefetch buffers.
func (p *pipeline) fetchWorker() {
	defer p.wg.Done()
	for range p.pfCh {
		p.waitClear(p.pf.ns)
		p.pf.err = p.c.bulk.ReadBuckets(p.pf.ns, p.pf.bks)
		close(p.pf.done)
	}
}

// waitClear blocks until no queued writeback touches any node of ns —
// the load side of the store-buffer discipline. Counted as fetch-stage
// stall time. Returns immediately once a writeback error is latched
// (jobs then retire without writing, so waiting longer is pointless).
func (p *pipeline) waitClear(ns []tree.Node) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.conflicts(ns) {
		return
	}
	t0 := time.Now()
	for p.conflicts(ns) && p.wbErr == nil {
		p.cond.Wait()
	}
	p.shared.FetchWaits++
	p.shared.FetchWaitNs += uint64(time.Since(t0))
}

// conflicts reports whether any node of ns has a queued writeback.
// Caller holds mu.
func (p *pipeline) conflicts(ns []tree.Node) bool {
	for _, n := range ns {
		if p.queued[n] > 0 {
			return true
		}
	}
	return false
}

// writebackWorker retires refill jobs: encode + seal + WriteBuckets,
// then clear the job's nodes from the hazard set. After a failure the
// remaining jobs retire without writing (their evicted blocks are lost
// either way — the controller fail-stops on the latched error).
func (p *pipeline) writebackWorker() {
	defer p.wg.Done()
	for job := range p.wbCh {
		p.mu.Lock()
		failed := p.wbErr != nil
		p.mu.Unlock()
		var err error
		if !failed {
			err = p.c.bulk.WriteBuckets(job.ns, job.bks)
		}
		p.mu.Lock()
		if err != nil && p.wbErr == nil {
			p.wbErr = err
		}
		for _, n := range job.ns {
			if p.queued[n]--; p.queued[n] <= 0 {
				delete(p.queued, n)
			}
		}
		if err == nil && !failed {
			p.shared.Writebacks++
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		p.wbFree <- job // pool is sized to all jobs: never blocks
	}
}

// readRange is the pipelined ReadRange: consume the staged prefetch
// when one is outstanding (it must match — the schedule is committed),
// otherwise fall back to a hazard-checked synchronous bulk read (the
// window's first access, or a drive loop that skipped a prefetch).
func (p *pipeline) readRange(label tree.Label, fromLevel uint, dst []tree.Node) ([]tree.Node, error) {
	c := p.c
	if !p.pf.active {
		c.noteFirstFetch()
		start := len(dst)
		for lvl := fromLevel; lvl <= c.tr.LeafLevel(); lvl++ {
			dst = append(dst, c.tr.NodeAt(label, lvl))
		}
		p.waitClear(dst[start:])
		return c.readRangeBulk(label, fromLevel, dst[:start])
	}
	if p.pf.label != label || p.pf.from != fromLevel {
		err := fmt.Errorf("pathoram: prefetched path (label %d, from level %d) does not match access (label %d, from level %d) — engine bug",
			p.pf.label, p.pf.from, label, fromLevel)
		c.err = err
		return dst, err
	}
	select {
	case <-p.pf.done:
	default:
		t0 := time.Now()
		<-p.pf.done
		p.stats.EvictWaits++
		p.stats.EvictWaitNs += uint64(time.Since(t0))
	}
	p.pf.active = false
	if p.pf.err != nil {
		c.err = p.pf.err
		return dst, p.pf.err
	}
	// Stash the prefetched buckets root-to-leaf, exactly like the serial
	// bulk path (last-put-wins must favour the deepest same-label copy).
	for i := range p.pf.bks {
		c.stash.PutBucket(&p.pf.bks[i])
	}
	p.stats.PrefetchedBuckets += uint64(len(p.pf.ns))
	return append(dst, p.pf.ns...), nil
}

// writeLevel is the pipelined WriteLevel: plan the eviction now — on
// the engine goroutine, so the greedy stash assignment is identical to
// the serial path — but defer the encrypt+write into the access's
// writeback job instead of touching storage.
func (p *pipeline) writeLevel(label tree.Label, level uint) (tree.Node, error) {
	c := p.c
	n := c.tr.NodeAt(label, level)
	job := p.cur
	if job == nil {
		job = <-p.wbFree // free by construction: at most depth jobs elsewhere
		job.ns, job.bks = job.ns[:0], job.bks[:0]
		p.cur = job
	}
	i := len(job.ns)
	if cap(job.blocks) <= i {
		grown := make([][]block.Block, i+1, 2*(i+1))
		copy(grown, job.blocks)
		job.blocks = grown
	}
	job.blocks = job.blocks[:i+1]
	job.blocks[i] = c.stash.EvictAppend(job.blocks[i][:0], n, c.z)
	job.ns = append(job.ns, n)
	job.bks = append(job.bks, block.Bucket{Blocks: job.blocks[i]})
	return n, nil
}

// flush submits the current access's refill job to the writeback
// worker. A latched writeback error is returned instead (the planned
// blocks are lost; the caller fail-stops).
func (p *pipeline) flush() error {
	job := p.cur
	if job == nil {
		return p.latched() // access wrote nothing (fully merged refill)
	}
	p.cur = nil
	p.mu.Lock()
	if err := p.wbErr; err != nil {
		p.mu.Unlock()
		p.wbFree <- job
		return err
	}
	for _, n := range job.ns {
		p.queued[n]++
	}
	p.mu.Unlock()
	select {
	case p.wbCh <- job:
	default:
		t0 := time.Now()
		p.wbCh <- job
		p.stats.WritebackWaits++
		p.stats.WritebackWaitNs += uint64(time.Since(t0))
	}
	return nil
}

// latched returns the first worker-latched error, if any.
func (p *pipeline) latched() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wbErr
}

// stop drains both stages and joins the workers. An unconsumed
// prefetch (abort path) is waited out so the fetch worker is quiescent
// before its channel closes; an unflushed cur job means the window
// aborted mid-access — its evicted blocks are gone from the stash,
// which is exactly why every abort path poisons the device.
func (p *pipeline) stop() error {
	if p.pf.active {
		<-p.pf.done
		p.pf.active = false
	}
	close(p.pfCh)
	close(p.wbCh)
	p.wg.Wait()
	if p.pf.err != nil && p.wbErr == nil {
		return p.pf.err // no lock needed: workers joined
	}
	return p.wbErr
}
