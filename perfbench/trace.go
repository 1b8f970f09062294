package main

import (
	"sync"
	"sync/atomic"
	"time"

	"forkoram"
	"forkoram/internal/block"
	"forkoram/internal/storage"
	"forkoram/internal/tree"
)

// tracer times and counts the calls the program makes into each
// layer's public interface, from outside: decorators installed through
// ServiceConfig.WAL, ServiceConfig.Checkpoints, StorageConfig.Medium,
// RemoteConfig.Sleep and DeviceConfig.Observer. Nothing inside the
// library is instrumented. Counting is armed only for the timed window.
type tracer struct {
	on atomic.Bool

	walBytes, walSyncs, walSyncNs atomic.Int64
	ckpts, ckptNs, ckptBytes      atomic.Int64
	rdCalls, wrCalls              atomic.Int64
	rdNs, wrNs                    atomic.Int64
	real, dummy                   atomic.Int64
	bucketsRead, bucketsWritten   atomic.Int64

	mu     sync.Mutex
	syncMs []float64 // each WAL Sync
	rttUs  []float64 // each simulated round trip, as slept
}

// observe is the DeviceConfig.Observer: one call per tree traversal.
func (t *tracer) observe(_ uint64, dummy bool, rd, wr []uint64) {
	if !t.on.Load() {
		return
	}
	if dummy {
		t.dummy.Add(1)
	} else {
		t.real.Add(1)
	}
	t.bucketsRead.Add(int64(len(rd)))
	t.bucketsWritten.Add(int64(len(wr)))
}

// sleep times one simulated round trip (RemoteConfig.Sleep).
func (t *tracer) sleep(d time.Duration) {
	if !t.on.Load() {
		nap(d)
		return
	}
	t0 := time.Now()
	nap(d)
	us := float64(time.Since(t0)) / 1e3
	t.mu.Lock()
	t.rttUs = append(t.rttUs, us)
	t.mu.Unlock()
}

// tracedWAL times the journal's Sync barrier and counts appended bytes.
type tracedWAL struct {
	forkoram.WALStore
	t *tracer
}

func (w tracedWAL) Append(p []byte) error {
	if w.t.on.Load() {
		w.t.walBytes.Add(int64(len(p)))
	}
	return w.WALStore.Append(p)
}

func (w tracedWAL) Sync() error {
	if !w.t.on.Load() {
		return w.WALStore.Sync()
	}
	t0 := time.Now()
	err := w.WALStore.Sync()
	d := time.Since(t0)
	w.t.walSyncs.Add(1)
	w.t.walSyncNs.Add(int64(d))
	w.t.mu.Lock()
	w.t.syncMs = append(w.t.syncMs, float64(d)/1e6)
	w.t.mu.Unlock()
	return err
}

// tracedCheckpoints times checkpoint saves and counts their bytes.
type tracedCheckpoints struct {
	forkoram.CheckpointStore
	t *tracer
}

func (c tracedCheckpoints) Save(ck *forkoram.Checkpoint) error {
	if !c.t.on.Load() {
		return c.CheckpointStore.Save(ck)
	}
	t0 := time.Now()
	err := c.CheckpointStore.Save(ck)
	c.t.ckptNs.Add(int64(time.Since(t0)))
	c.t.ckpts.Add(1)
	n := len(ck.Snapshot)
	for _, ct := range ck.Medium {
		n += len(ct)
	}
	c.t.ckptBytes.Add(int64(n))
	return err
}

// tracedMedium times every bucket call into the base medium. Under a
// remote tier it sits below the simulated latency, so its busy time is
// the medium's own work (bucket crypto on the in-memory medium). It
// keeps the bulk methods, so the pipeline's bulk path stays engaged.
type tracedMedium struct {
	storage.Medium
	t *tracer
}

func (m tracedMedium) ReadBucket(n tree.Node) (block.Bucket, error) {
	if !m.t.on.Load() {
		return m.Medium.ReadBucket(n)
	}
	t0 := time.Now()
	b, err := m.Medium.ReadBucket(n)
	m.t.read(t0)
	return b, err
}

func (m tracedMedium) ReadBuckets(ns []tree.Node, out []block.Bucket) error {
	if !m.t.on.Load() {
		return m.Medium.ReadBuckets(ns, out)
	}
	t0 := time.Now()
	err := m.Medium.ReadBuckets(ns, out)
	m.t.read(t0)
	return err
}

func (m tracedMedium) WriteBucket(n tree.Node, b *block.Bucket) error {
	if !m.t.on.Load() {
		return m.Medium.WriteBucket(n, b)
	}
	t0 := time.Now()
	err := m.Medium.WriteBucket(n, b)
	m.t.write(t0)
	return err
}

func (m tracedMedium) WriteBuckets(ns []tree.Node, bks []block.Bucket) error {
	if !m.t.on.Load() {
		return m.Medium.WriteBuckets(ns, bks)
	}
	t0 := time.Now()
	err := m.Medium.WriteBuckets(ns, bks)
	m.t.write(t0)
	return err
}

func (t *tracer) read(t0 time.Time) {
	t.rdCalls.Add(1)
	t.rdNs.Add(int64(time.Since(t0)))
}

func (t *tracer) write(t0 time.Time) {
	t.wrCalls.Add(1)
	t.wrNs.Add(int64(time.Since(t0)))
}

// newMedium builds the in-memory medium a device configured by cfg
// would build for itself, so it can be wrapped. The tree is read back
// from a throwaway device rather than re-deriving the library's sizing.
func newMedium(cfg forkoram.DeviceConfig) (storage.Medium, error) {
	probe, err := forkoram.NewDevice(forkoram.DeviceConfig{Blocks: cfg.Blocks, BlockSize: cfg.BlockSize, Z: cfg.Z})
	if err != nil {
		return nil, err
	}
	level := uint(0)
	for uint64(1)<<level < probe.Leaves() {
		level++
	}
	tr, err := tree.New(level)
	if err != nil {
		return nil, err
	}
	return storage.NewMem(tr, block.Geometry{Z: cfg.Z, PayloadSize: cfg.BlockSize}, make([]byte, 16))
}
