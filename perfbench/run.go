package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"forkoram"
)

type options struct {
	seed     int64
	dur      time.Duration
	trace    bool
	setups   int           // fewest set-ups
	setupFor time.Duration // keep setting up until this much time has gone
	workdir  string
	host     host
}

const maxSetups = 25

// frontDoor is the part of *forkoram.Service the load generator calls; tests
// substitute a faulty one to prove the oracle catches it.
type frontDoor interface {
	Read(ctx context.Context, addr uint64) ([]byte, error)
	Write(ctx context.Context, addr uint64, data []byte) error
	Batch(ctx context.Context, ops []forkoram.BatchOp) ([][]byte, error)
}

// instance is one constructed, prefilled service and what it owns.
type instance struct {
	svc    *forkoram.Service
	walFn  func() error // closes and removes the journal file, if any
	remote atomic.Bool  // simulated round trips sleep only while set
}

func (in *instance) close() error {
	err := in.svc.Close()
	if in.walFn != nil {
		if cerr := in.walFn(); err == nil {
			err = cerr
		}
	}
	return err
}

// open builds the workload's service, prefills every block with
// version 0 and checkpoints, so the timed window starts from a clean
// journal. t, when non-nil, is installed around every layer.
func open(s spec, opt options, t *tracer, rep int) (*instance, error) {
	in := &instance{}
	dev := forkoram.DeviceConfig{
		Blocks:        s.blocks,
		BlockSize:     blockSize,
		Z:             4,
		Seed:          uint64(opt.seed),
		Variant:       forkoram.Fork,
		PipelineDepth: s.depth,
	}
	if s.rtt > 0 {
		sleep := nap
		if t != nil {
			sleep = t.sleep
		}
		dev.Storage.Remote = &forkoram.RemoteConfig{
			Seed:         uint64(opt.seed),
			ReadLatency:  s.rtt,
			WriteLatency: s.rtt,
			// Set-up and the final read-back are not timed, so they
			// skip the simulated distance.
			Sleep: func(d time.Duration) {
				if in.remote.Load() {
					sleep(d)
				}
			},
		}
	}
	if t != nil {
		dev.Observer = t.observe
		m, err := newMedium(dev)
		if err != nil {
			return nil, err
		}
		dev.Storage.Medium = tracedMedium{Medium: m, t: t}
	}
	cfg := forkoram.ServiceConfig{CheckpointEvery: s.ckptEvery}
	if s.durable {
		path := filepath.Join(opt.workdir, fmt.Sprintf("perfbench-wal-%d-%d", os.Getpid(), rep))
		_ = os.Remove(path) // a leftover from a killed run
		fs, err := forkoram.OpenWALFile(path)
		if err != nil {
			return nil, err
		}
		in.walFn = func() error {
			err := fs.Close()
			if rerr := os.Remove(path); err == nil {
				err = rerr
			}
			return err
		}
		cfg.WAL = fs
	} else {
		cfg.WAL = &memJournal{forkoram.NewWALMemStore()}
	}
	if t != nil {
		cfg.WAL = tracedWAL{WALStore: cfg.WAL, t: t}
		cfg.Checkpoints = tracedCheckpoints{CheckpointStore: forkoram.NewMemCheckpointStore(), t: t}
	}
	cfg.Device = dev
	svc, err := forkoram.NewService(cfg)
	if err != nil {
		if in.walFn != nil {
			_ = in.walFn()
		}
		return nil, err
	}
	in.svc = svc
	ctx := context.Background()
	const chunk = 256
	ops := make([]forkoram.BatchOp, 0, chunk)
	for a := uint64(0); a < s.blocks; a++ {
		ops = append(ops, forkoram.BatchOp{Addr: a, Write: true, Data: payload(blockSize, a, 0)})
		if len(ops) == chunk || a == s.blocks-1 {
			if _, err := svc.Batch(ctx, ops); err != nil {
				_ = in.close()
				return nil, fmt.Errorf("prefill: %w", err)
			}
			ops = ops[:0]
		}
	}
	if err := svc.Checkpoint(ctx); err != nil {
		_ = in.close()
		return nil, fmt.Errorf("checkpoint after prefill: %w", err)
	}
	return in, nil
}

// memJournal is the library's in-memory journal store, swapped for an
// empty one when a checkpoint truncates it. The library's store keeps
// its buffer's capacity across truncation, and that capacity grows with
// the number of writes a run got through; swapping it keeps heap_mib a
// measure of the service's state rather than of its throughput.
type memJournal struct{ forkoram.WALStore }

func (j *memJournal) Reset() error {
	j.WALStore = forkoram.NewWALMemStore()
	return nil
}

// run measures one workload. wrap, when non-nil, decorates the
// service's front door (tests use it to inject faults).
func run(s spec, opt options, wrap func(frontDoor) frontDoor) (*report, error) {
	var t *tracer
	if opt.trace {
		t = &tracer{}
	}
	// Set up at least opt.setups times and for at least opt.setupFor
	// (at most maxSetups times), and keep the last instance: setup_s is
	// the median, steadier than any one construction.
	var setups []float64
	var in *instance
	o := newOracle(blockSize)
	first := time.Now()
	for i := 0; i < max(1, opt.setups) || (time.Since(first) < opt.setupFor && i < maxSetups); i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", i, err)
			}
		}
		t0 := time.Now()
		var err error
		in, err = open(s, opt, t, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	for a := uint64(0); a < s.blocks; a++ {
		o.prefilled(a)
	}
	runtime.GC()

	var fd frontDoor = in.svc
	if wrap != nil {
		fd = wrap(fd)
	}
	rec := newRecorder(opt.trace)
	before := in.svc.Stats()
	in.remote.Store(true)
	if t != nil {
		t.on.Store(true)
	}
	cpu0, steal0 := cpuTime(), hostSteal()
	start := time.Now()
	driveOpen(fd, o, s.arrivals(opt.seed, opt.dur), rec, start)
	elapsed := rec.lastDone.Sub(start)
	cpu := cpuTime() - cpu0
	steal := hostSteal().sub(steal0)
	if t != nil {
		t.on.Store(false)
	}
	in.remote.Store(false)
	after := in.svc.Stats()

	// The live heap is measured at a quiescent point holding one fresh
	// checkpoint and an empty journal, whatever the run's length.
	if err := in.svc.Checkpoint(context.Background()); err != nil {
		return nil, fmt.Errorf("checkpoint after the window: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := float64(ms.HeapAlloc) / (1 << 20)

	rerr := readBack(fd, o)
	if err := in.close(); err != nil && rerr == nil {
		rerr = fmt.Errorf("close: %w", err)
	}
	if rerr != nil {
		return nil, rerr
	}
	nbad, bad := o.mismatches()

	rep := &report{
		attempted:       rec.attempted,
		failed:          rec.failed + rec.refused + nbad,
		mismatches:      nbad,
		bad:             bad,
		pipelineWindows: after.Pipeline.Windows - before.Pipeline.Windows,
	}
	rep.lines = append(rep.lines,
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("window %.3fs acked=%d failed=%d refused=%d mismatches=%d pipeline_windows=%d",
			elapsed.Seconds(), rec.acked, rec.failed, rec.refused, nbad, rep.pipelineWindows),
		fmt.Sprintf("generator lateness p50=%.3fms p99=%.3fms",
			quantile(rec.lateMs, 0.5), quantile(rec.lateMs, 0.99)),
		fmt.Sprintf("process cpu %.2fs in the window: %.1fus per acked op, %.2f cores busy",
			cpu.Seconds(), ratio(float64(cpu)/1e3, float64(rec.acked)), ratio(cpu.Seconds(), elapsed.Seconds())),
		fmt.Sprintf("host steal %.2f%% of CPU time in the window (time the hypervisor ran something else)",
			100*ratio(float64(steal.steal), float64(steal.total))))
	e2e := rec.endToEnd(elapsed, setups, heap, nbad)
	if !opt.trace {
		rep.metrics = e2e
		rep.extra = []metric{{name: "error_rate", unit: "fraction",
			value: ratio(float64(rep.failed), float64(rec.attempted)),
			note:  fmt.Sprintf("failed=%d refused=%d mismatches=%d of %d", rec.failed, rec.refused, nbad, rec.attempted)}}
		return rep, nil
	}
	// The traced run reports the headline numbers too, to set against
	// an untraced run of the same seed: the difference is the tracing
	// overhead.
	for _, m := range e2e {
		if m.name != "setup_s" && m.name != "heap_mib" && m.name != "acked_frac" {
			m.name = "traced." + m.name
			rep.extra = append(rep.extra, m)
		}
	}
	ref, err := replayBaseline(s, rec.log)
	if err != nil {
		return nil, fmt.Errorf("path oram reference: %w", err)
	}
	rep.metrics = perLayer(t, rec, before, after, elapsed, ref, opt.host)
	return rep, nil
}

// readBack reads every address written in the run once the load has
// drained and checks each against the oracle.
func readBack(fd frontDoor, o *oracle) error {
	addrs := o.written()
	ctx := context.Background()
	for i := 0; i < len(addrs); i += 256 {
		chunk := addrs[i:min(i+256, len(addrs))]
		ops := make([]forkoram.BatchOp, len(chunk))
		floors := make([]uint64, len(chunk))
		for j, a := range chunk {
			ops[j] = forkoram.BatchOp{Addr: a}
			floors[j] = o.issueRead(a)
		}
		out, err := fd.Batch(ctx, ops)
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		for j, a := range chunk {
			o.checkRead(a, floors[j], out[j])
		}
	}
	return nil
}

// recorder collects what the load generator observes, under one lock.
type recorder struct {
	mu                sync.Mutex
	readMs, writeMs   []float64
	lateMs            []float64
	attempted, acked  int
	ackedWrites       int
	failed, refused   int
	inflight, inflMax int
	busySince         time.Time
	maxStall          time.Duration
	lastDone          time.Time
	keepLog           bool
	log               []arrival // the first replayCap requests issued
}

// replayCap is the most requests the Path ORAM reference replays.
const replayCap = 20000

func newRecorder(keepLog bool) *recorder { return &recorder{keepLog: keepLog} }

// admit accounts a request about to be sent. With limit requests
// outstanding, it refuses the request instead.
func (r *recorder) admit(a arrival, limit int, now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if r.inflight >= limit {
		r.refused++
		return false
	}
	if r.inflight == 0 {
		r.busySince = now
	}
	r.inflight++
	r.inflMax = max(r.inflMax, r.inflight)
	if r.keepLog && len(r.log) < replayCap {
		r.log = append(r.log, a)
	}
	return true
}

// done accounts a finished request with its latency. A stall is the
// longest interval with requests outstanding and none completing.
func (r *recorder) done(write bool, lat time.Duration, err error, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.inflight--
	r.maxStall = max(r.maxStall, now.Sub(r.busySince))
	r.busySince = now
	if now.After(r.lastDone) {
		r.lastDone = now
	}
	if err != nil {
		r.failed++
		return
	}
	r.acked++
	ms := float64(lat) / 1e6
	if write {
		r.ackedWrites++
		r.writeMs = append(r.writeMs, ms)
	} else {
		r.readMs = append(r.readMs, ms)
	}
}

func (r *recorder) late(d time.Duration) {
	r.mu.Lock()
	r.lateMs = append(r.lateMs, float64(d)/1e6)
	r.mu.Unlock()
}

// driveOpen issues the schedule open loop: each request is sent when
// it is due, whatever is still outstanding, and its latency counts from
// when it was due, so a stall also charges the requests queued behind
// it. Past inflightCap outstanding requests, new ones are refused.
func driveOpen(fd frontDoor, o *oracle, arr []arrival, rec *recorder, start time.Time) {
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, a := range arr {
		due := start.Add(a.at)
		nap(time.Until(due))
		now := time.Now()
		rec.late(now.Sub(due))
		if !rec.admit(a, inflightCap, now) {
			continue
		}
		wg.Add(1)
		go func(a arrival, due time.Time) {
			defer wg.Done()
			var err error
			if a.write {
				ver, stamp, data := o.issueWrite(a.addr)
				err = fd.Write(ctx, a.addr, data)
				end := time.Now()
				if err != nil {
					o.failWrite(a.addr, ver, stamp)
				} else {
					o.ackWrite(a.addr, ver, stamp)
				}
				rec.done(true, end.Sub(due), err, end)
				return
			}
			floor := o.issueRead(a.addr)
			data, err := fd.Read(ctx, a.addr)
			end := time.Now()
			if err != nil {
				o.abortRead(a.addr, floor)
			} else {
				o.checkRead(a.addr, floor, data)
			}
			rec.done(false, end.Sub(due), err, end)
		}(a, due)
	}
	wg.Wait()
}

// cpuTime is the CPU time the process has used so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ticks are the host-wide CPU time counters of /proc/stat, in ticks;
// zero where that file does not exist.
type ticks struct{ steal, total uint64 }

func hostSteal() ticks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return ticks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	var t ticks
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

func (t ticks) sub(o ticks) ticks { return ticks{t.steal - o.steal, t.total - o.total} }

// segmentSamples is the fewest samples a latency segment holds: ten
// beyond its p99.
const segmentSamples = 1000

// segmented splits xs, which is in completion order, into k consecutive
// segments of at least segmentSamples each (k at most 5) and returns
// the median over the segments of their q-quantile. A burst of host
// interference shorter than a segment then moves one segment's figure,
// not the run's.
func segmented(xs []float64, q float64) (float64, int) {
	k := min(5, max(1, len(xs)/segmentSamples))
	vals := make([]float64, k)
	for i := range vals {
		vals[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	sort.Float64s(vals)
	return (vals[(k-1)/2] + vals[k/2]) / 2, k
}

// endToEnd computes the metrics a user of the service sees.
func (r *recorder) endToEnd(elapsed time.Duration, setups []float64, heap float64, mismatches int) []metric {
	lat := func(name string, xs []float64, q float64, kind string) metric {
		v, k := segmented(xs, q)
		note := fmt.Sprintf("n=%d %s, median of %d segments; whole window %.4g", len(xs), kind, k, quantile(xs, q))
		if q > 0.5 && len(xs)/k-int(math.Ceil(q*float64(len(xs)/k))) < 10 {
			note += " — too few samples beyond this percentile"
		}
		return metric{name: name, unit: "ms", value: v, note: note}
	}
	bad := r.failed + r.refused + mismatches
	return []metric{
		{name: "setup_s", unit: "s", value: quantile(setups, 0.5), note: fmt.Sprintf("median of %d set-ups", len(setups))},
		{name: "ops_per_s", unit: "ops/s", value: ratio(float64(r.acked), elapsed.Seconds()),
			note: fmt.Sprintf("%d acked in %.3fs", r.acked, elapsed.Seconds())},
		lat("read_p50_ms", r.readMs, 0.5, "reads per call"),
		lat("read_p99_ms", r.readMs, 0.99, "reads per call"),
		lat("write_p50_ms", r.writeMs, 0.5, "writes per call"),
		lat("write_p99_ms", r.writeMs, 0.99, "writes per call"),
		{name: "acked_frac", unit: "fraction", value: 1 - ratio(float64(bad), float64(r.attempted)),
			note: fmt.Sprintf("1 - error_rate; %d of %d attempted not acked or wrong", bad, r.attempted)},
		{name: "heap_mib", unit: "MiB", value: heap, note: "live heap after a forced GC, checkpoints included"},
	}
}
