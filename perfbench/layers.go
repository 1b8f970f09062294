package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"forkoram"
)

// pathRef is the paper-unit reference: the same op stream replayed on
// a Path ORAM (Variant Baseline) device.
type pathRef struct {
	ops, accesses, buckets int64
}

// replayBaseline replays the logged requests, one Batch call each,
// against a fresh, prefilled Baseline device and counts its tree
// traversals and buckets moved.
func replayBaseline(s spec, log []arrival) (pathRef, error) {
	var ref pathRef
	var on atomic.Bool
	var accesses, buckets atomic.Int64
	dev, err := forkoram.NewDevice(forkoram.DeviceConfig{
		Blocks: s.blocks, BlockSize: blockSize, Z: 4, Variant: forkoram.Baseline,
		Observer: func(_ uint64, _ bool, rd, wr []uint64) {
			if on.Load() {
				accesses.Add(1)
				buckets.Add(int64(len(rd) + len(wr)))
			}
		},
	})
	if err != nil {
		return ref, err
	}
	ops := make([]forkoram.BatchOp, 0, 256)
	for a := uint64(0); a < s.blocks; a++ {
		ops = append(ops, forkoram.BatchOp{Addr: a, Write: true, Data: payload(blockSize, a, 0)})
		if len(ops) == cap(ops) || a == s.blocks-1 {
			if _, err := dev.Batch(ops); err != nil {
				return ref, fmt.Errorf("prefill: %w", err)
			}
			ops = ops[:0]
		}
	}
	on.Store(true)
	for _, a := range log {
		op := forkoram.BatchOp{Addr: a.addr, Write: a.write}
		if a.write {
			op.Data = payload(blockSize, a.addr, 1)
		}
		if _, err := dev.Batch([]forkoram.BatchOp{op}); err != nil {
			return ref, err
		}
		ref.ops++
	}
	ref.accesses, ref.buckets = accesses.Load(), buckets.Load()
	return ref, nil
}

// perLayer computes the traced run's metrics: per-op work, busy and
// waiting time at each layer boundary, over the timed window.
func perLayer(t *tracer, rec *recorder, before, after forkoram.ServiceStats,
	elapsed time.Duration, ref pathRef, h host) []metric {
	ops := float64(rec.acked)
	per := func(x int64) float64 { return ratio(float64(x), ops) }
	groups := float64(after.Groups - before.Groups)
	grouped := float64(after.GroupedOps - before.GroupedOps)
	pipe := after.Pipeline
	pb := before.Pipeline
	trav := t.real.Load() + t.dummy.Load()
	ckpts := t.ckpts.Load()
	nsPerOpMs := func(ns uint64) float64 { return ratio(float64(ns)/1e6, ops) }
	t.mu.Lock()
	syncMs, rttUs := t.syncMs, t.rttUs
	t.mu.Unlock()
	return []metric{
		{name: "wal.syncs_per_op", unit: "1/op", value: per(t.walSyncs.Load())},
		{name: "wal.sync_ms_p50", unit: "ms", value: quantile(syncMs, 0.5), note: fmt.Sprintf("n=%d syncs", len(syncMs))},
		{name: "wal.sync_ms_p99", unit: "ms", value: quantile(syncMs, 0.99), note: fmt.Sprintf("n=%d syncs", len(syncMs))},
		{name: "wal.sync_busy_frac", unit: "fraction", value: ratio(float64(t.walSyncNs.Load()), float64(elapsed))},
		{name: "wal.bytes_per_write", unit: "B/write", value: ratio(float64(t.walBytes.Load()), float64(rec.ackedWrites))},
		{name: "service.mean_group", unit: "requests", value: ratio(grouped, groups), note: "requests per dispatch window"},
		{name: "service.groups_per_op", unit: "1/op", value: ratio(groups, ops)},
		{name: "service.max_stall_ms", unit: "ms", value: float64(rec.maxStall) / 1e6,
			note: "longest interval with requests outstanding and none completing"},
		{name: "checkpoint.count", unit: "count", value: float64(ckpts)},
		{name: "checkpoint.save_ms", unit: "ms", value: ratio(float64(t.ckptNs.Load())/1e6, float64(ckpts)), note: "mean Save"},
		{name: "checkpoint.bytes", unit: "B", value: ratio(float64(t.ckptBytes.Load()), float64(ckpts)), note: "mean per checkpoint"},
		{name: "fork.accesses_per_op", unit: "1/op", value: per(trav), note: "real + dummy tree traversals"},
		{name: "fork.dummy_frac", unit: "fraction", value: ratio(float64(t.dummy.Load()), float64(trav))},
		{name: "fork.stash_hit_frac", unit: "fraction", value: max(0, 1-per(t.real.Load())),
			note: "1 - real traversals per op"},
		{name: "device.buckets_read_per_access", unit: "buckets", value: ratio(float64(t.bucketsRead.Load()), float64(trav))},
		{name: "device.buckets_written_per_access", unit: "buckets", value: ratio(float64(t.bucketsWritten.Load()), float64(trav))},
		{name: "device.buckets_per_op", unit: "buckets/op", value: per(t.bucketsRead.Load() + t.bucketsWritten.Load()),
			note: "Fork, read + written"},
		{name: "device.path_oram_buckets_per_access", unit: "buckets", value: ratio(float64(ref.buckets), float64(ref.accesses)),
			note: fmt.Sprintf("Path ORAM replay of %d ops", ref.ops)},
		{name: "device.path_oram_buckets_per_op", unit: "buckets/op", value: ratio(float64(ref.buckets), float64(ref.ops))},
		{name: "storage.read_calls_per_op", unit: "1/op", value: per(t.rdCalls.Load())},
		{name: "storage.write_calls_per_op", unit: "1/op", value: per(t.wrCalls.Load())},
		{name: "storage.rtt_us", unit: "us", value: quantile(rttUs, 0.5), note: fmt.Sprintf("median of %d round trips as slept", len(rttUs))},
		{name: "storage.read_busy_us_per_op", unit: "us/op", value: ratio(float64(t.rdNs.Load())/1e3, ops)},
		{name: "storage.write_busy_us_per_op", unit: "us/op", value: ratio(float64(t.wrNs.Load())/1e3, ops)},
		{name: "pipeline.windows_per_op", unit: "1/op", value: ratio(float64(pipe.Windows-pb.Windows), ops)},
		{name: "pipeline.fetch_wait_ms", unit: "ms/op", value: nsPerOpMs(pipe.FetchWaitNs - pb.FetchWaitNs)},
		{name: "pipeline.evict_wait_ms", unit: "ms/op", value: nsPerOpMs(pipe.EvictWaitNs - pb.EvictWaitNs)},
		{name: "pipeline.writeback_wait_ms", unit: "ms/op", value: nsPerOpMs(pipe.WritebackWaitNs - pb.WritebackWaitNs)},
		{name: "pipeline.window_turnaround_us", unit: "us", value: ratio(float64(pipe.WindowTurnaroundNs-pb.WindowTurnaroundNs)/1e3,
			float64(pipe.WindowTurnarounds-pb.WindowTurnarounds)), note: "mean per seam"},
		{name: "harness.gen_late_p99_ms", unit: "ms", value: quantile(rec.lateMs, 0.99), note: "generator lateness, open loop"},
		{name: "harness.inflight_max", unit: "calls", value: float64(rec.inflMax)},
		{name: "host.sleep_floor_us", unit: "us", value: h.sleepFloorUs, note: "median 50 µs time.Sleep"},
	}
}
