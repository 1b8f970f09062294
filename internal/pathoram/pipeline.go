// Pipelined dispatch windows: the options, statistics, and Controller
// entry points of the intra-shard ORAM pipeline. The engine itself, the
// serve stage, lives in concurrent.go.
package pathoram

import (
	"errors"
	"fmt"
	"time"

	"forkoram/internal/tree"
)

// Typed pipeline errors.
var (
	// ErrPipelineDepth rejects PipelineOpts.Depth < 1: a configuration
	// bug, not a request for the serial path, which is Depth: 1.
	ErrPipelineDepth = errors.New("pathoram: pipeline depth must be >= 1")
	// ErrUnsealedAccess is a drive-loop bug: StopPipeline returns it, and
	// fail-stops the controller, when an access was recorded (ReadRange,
	// WriteLevel or DeferServe) but never sealed by CommitAccess, so its
	// work never ran.
	ErrUnsealedAccess = errors.New("pathoram: pipelined access recorded but never sealed by CommitAccess")
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
	// Writebacks counts access refills retired by the writeback stage.
	Writebacks uint64 `json:"writebacks"`
	// FetchWaits/FetchWaitNs: fetch-stage stalls — fetches that waited
	// for a conflicting older queued writeback to retire before touching
	// storage.
	FetchWaits  uint64 `json:"fetch_waits"`
	FetchWaitNs uint64 `json:"fetch_wait_ns"`
	// EvictWaits/EvictWaitNs: serve/evict-stage stalls — in-order
	// resolution blocked on the head access's own path fetch.
	EvictWaits  uint64 `json:"evict_waits"`
	EvictWaitNs uint64 `json:"evict_wait_ns"`
	// WritebackWaits/WritebackWaitNs: writeback-stage stalls — serve
	// workers blocked on a free refill job or the bounded writeback
	// queue (pipeline full).
	WritebackWaits  uint64 `json:"writeback_waits"`
	WritebackWaitNs uint64 `json:"writeback_wait_ns"`
	// ServeWaits/ServeWaitNs: admission stalls of the serve stage — the
	// sequencer blocked starting a new access because all in-flight
	// slots were occupied (window backpressure).
	ServeWaits  uint64 `json:"serve_waits,omitempty"`
	ServeWaitNs uint64 `json:"serve_wait_ns,omitempty"`
	// DepWaits/DepWaitNs: dependency stalls of the serve stage —
	// accesses that parked behind a conflicting older in-flight access
	// (RAW/WAR/WAW at the stash, or overlapping fork-path node sets) and
	// the time from park to dispatch.
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

// PipelineOpts shapes one pipelined dispatch window.
type PipelineOpts struct {
	// Depth bounds the in-flight accesses of the window (>= 2 engages
	// the pipeline; 1 is the serial path).
	Depth int
	// ServeWorkers sizes the serve/evict stage's worker pool (DESIGN.md
	// §15): independent accesses' stash phases run across that many
	// workers with dependency-tracked scheduling. <= 1 means one serve
	// worker; values above Depth clamp to Depth.
	ServeWorkers int
	// Observer, when set, receives each access's bus trace at retire
	// time, in program order. The slices are owned by the callee only
	// for the duration of the call.
	Observer func(label tree.Label, dummy bool, read, write []tree.Node)
	// Kill, when set, is polled by serve workers before each access's
	// stash phase; a non-nil error aborts the window with that error
	// (chaos kill point).
	Kill func() error
}

// StartPipelineOpts arms the serve stage for one dispatch window. It
// rejects Depth < 1 with ErrPipelineDepth, and reports false with no
// error — leaving the controller on the serial path — when the backend
// has no bulk interface (Integrity or Faults decorators pin per-bucket
// semantics), when Depth is 1 (the serial path by definition), when a
// window is already open, or when the controller has fail-stopped.
// Every start that returns true must be paired with a StopPipeline
// before the controller is used serially again. Within the window each
// access is recorded by ReadRange, WriteLevel and DeferServe and sealed
// by CommitAccess; Prefetch may start the next committed path early.
func (c *Controller) StartPipelineOpts(o PipelineOpts) (bool, error) {
	if o.Depth < 1 {
		return false, fmt.Errorf("%w (got %d)", ErrPipelineDepth, o.Depth)
	}
	if c.err != nil || c.bulk == nil || o.Depth < 2 || c.cs != nil {
		return false, nil
	}
	c.cs = newCserve(c, o)
	return true, nil
}

// StopPipeline drains the window, joins the stage workers, folds the
// window's statistics, and returns the first error any stage latched
// (also latching it as the controller's fatal error: a failed writeback
// lost evicted blocks, so the controller must fail-stop exactly like a
// serial write failure). No-op outside a window.
func (c *Controller) StopPipeline() error {
	cs := c.cs
	if cs == nil {
		return c.err
	}
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
// levels [fromLevel, L] of label — on a fetch worker. The caller (the
// Fork drive loop) must only pass a schedule the engine has committed
// (Engine.NextScheduled), or the next ReadRange will fault on the
// mismatch. No-op outside a pipelined window.
func (c *Controller) Prefetch(label tree.Label, fromLevel uint) {
	if c.err != nil || c.cs == nil || fromLevel > c.tr.LeafLevel() {
		return
	}
	c.cs.prefetch(label, fromLevel)
}

// PipelineStats returns counters accumulated over every completed
// pipelined window.
func (c *Controller) PipelineStats() PipelineStats { return c.pipeStats }
