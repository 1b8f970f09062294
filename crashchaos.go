package forkoram

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"forkoram/internal/faults"
	"forkoram/internal/rng"
	"forkoram/internal/wal"
)

// CrashChaosConfig parameterizes RunCrashChaos: the crash-at-every-point
// campaign. The widths pick the target. Shards == 0 runs one supervised
// Service; Shards > 0 a ShardedService fleet of that width, killed one
// shard supervisor at a time while its siblings are probed; AddShards > 0
// an online reshard from Shards (default 2) to Shards+AddShards under
// client traffic, killing the router at every ReshardCrashPoint as well
// as the shard supervisors. A schedule's workload, fleet and kill plan
// are a pure function of (Seed, schedule index, variant); only the burst
// case (concurrent writers racing the admission queue, to exercise the
// group-commit path and its kill sites) admits requests in
// scheduler-dependent order — the invariants checked are order-free.
type CrashChaosConfig struct {
	// Seed derives every schedule's workload, device, kill and fault
	// seeds.
	Seed uint64
	// Schedules is the number of independent crash schedules (default
	// 100). Each runs once per Device variant, so the campaign executes
	// 2×Schedules target lifetimes.
	Schedules int
	// Shards is the fleet width (0: one Service) or, with AddShards, the
	// reshard's starting width.
	Shards int
	// AddShards > 0 splits the fleet to Shards+AddShards online; odd
	// schedules then merge back, so both directions run under kills.
	AddShards int
	// Disk runs EVERY single-Service schedule over a durable disk bucket
	// store (one file per schedule in a temp dir, the handle shared
	// across that schedule's incarnations like a WAL). Off, every even
	// schedule still runs on disk so the disk-only kill sites
	// (mid-bucket-write, mid-scrub) stay covered. Fleets ignore it.
	Disk bool
}

// CrashReport aggregates a RunCrashChaos campaign.
type CrashReport struct {
	Schedules int    // target lifetimes executed (2× config.Schedules)
	Shards    int    // fleet width (0: one Service), the starting width of a reshard
	AddShards int    // shards the reshard adds (0: no migration)
	Ops       uint64 // client operations attempted
	Acked     uint64 // acknowledged mutations the oracle then holds the target to

	Crashes   uint64                 // supervisor kills injected (every shard)
	PointHits [numCrashPoints]uint64 // supervisor kills per CrashPoint
	Restarts  uint64                 // cold starts that came up after a kill: Service reopens, shard restarts

	Recoveries  uint64 // in-process supervised restores (single and sharded targets)
	ReplayedOps uint64 // journal records replayed across them
	Checkpoints uint64

	// ShardKills counts supervisor kills per shard index (fleets only).
	// DownEvents counts one-or-more-shards-down episodes of the sharded
	// target; SiblingReads/SiblingWrites the probes healthy siblings
	// served WHILE a shard was down — the isolation property.
	ShardKills    []uint64
	DownEvents    uint64
	SiblingReads  uint64
	SiblingWrites uint64

	// Reshard target: committed cutovers, copy work (re-copied chunks
	// after a rebuild included), Reshard calls that resumed a journaled
	// migration, router kills per ReshardCrashPoint and the fleet
	// rebuilds after them, and client operations acknowledged WHILE a
	// migration epoch was open — the no-full-stop-window property.
	Migrations  uint64
	BlocksMoved uint64
	Chunks      uint64
	Resumes     uint64
	RouterKills uint64
	PhaseHits   [numReshardPoints]uint64
	Rebuilds    uint64
	MigReads    uint64
	MigWrites   uint64

	// LostAcks counts acknowledged writes missing after a recovery, and
	// SilentCorruptions reads that returned wrong bytes without an error —
	// the two outcomes the durability design must rule out.
	LostAcks          uint64
	SilentCorruptions uint64
	// Violations holds failure descriptions, capped at 20.
	Violations []string
}

// Ok reports whether the campaign finished with no violations.
func (r *CrashReport) Ok() bool { return len(r.Violations) == 0 }

func (r *CrashReport) violate(format string, args ...any) {
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// String renders the report for the CLI.
func (r *CrashReport) String() string {
	var b bytes.Buffer
	switch {
	case r.AddShards > 0:
		fmt.Fprintf(&b, "crash-chaos: %d fleet lifetimes resharding %d->%d shards", r.Schedules, r.Shards, r.Shards+r.AddShards)
	case r.Shards > 0:
		fmt.Fprintf(&b, "crash-chaos: %d fleet lifetimes x %d shards", r.Schedules, r.Shards)
	default:
		fmt.Fprintf(&b, "crash-chaos: %d service lifetimes", r.Schedules)
	}
	fmt.Fprintf(&b, ", %d ops, %d acked mutations\n", r.Ops, r.Acked)
	fmt.Fprintf(&b, "  crashes: %d injected (", r.Crashes)
	for p := 0; p < numCrashPoints; p++ {
		if p > 0 {
			fmt.Fprintf(&b, ", ")
		}
		fmt.Fprintf(&b, "%d %s", r.PointHits[p], CrashPoint(p))
	}
	fmt.Fprintf(&b, "), %d restarts\n", r.Restarts)
	if r.ShardKills != nil {
		fmt.Fprintf(&b, "  per-shard kills: %v\n", r.ShardKills)
	}
	if r.AddShards > 0 {
		fmt.Fprintf(&b, "  migrations: %d committed cutovers, %d blocks copied in %d chunks, %d resumes\n",
			r.Migrations, r.BlocksMoved, r.Chunks, r.Resumes)
		fmt.Fprintf(&b, "  router kills: %d (", r.RouterKills)
		for p := 0; p < numReshardPoints; p++ {
			if p > 0 {
				fmt.Fprintf(&b, ", ")
			}
			fmt.Fprintf(&b, "%d %s", r.PhaseHits[p], ReshardCrashPoint(p))
		}
		fmt.Fprintf(&b, "), %d fleet rebuilds\n", r.Rebuilds)
		fmt.Fprintf(&b, "  during migration: %d reads + %d writes acknowledged (dual routing, no full-stop window)\n",
			r.MigReads, r.MigWrites)
	} else {
		if r.Shards > 0 {
			fmt.Fprintf(&b, "  isolation: %d shard-down episodes; siblings served %d reads + %d writes while a shard was down\n",
				r.DownEvents, r.SiblingReads, r.SiblingWrites)
		}
		fmt.Fprintf(&b, "  healing: %d recoveries, %d journal records replayed, %d checkpoints\n",
			r.Recoveries, r.ReplayedOps, r.Checkpoints)
	}
	fmt.Fprintf(&b, "  lost acknowledged writes: %d, silent corruptions: %d\n",
		r.LostAcks, r.SilentCorruptions)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	if r.Ok() {
		fmt.Fprintf(&b, "  ok: every acknowledged write survived every crash\n")
	}
	return b.String()
}

// foldKills adds one kill plan's hits, landed on shard, to the report.
func (r *CrashReport) foldKills(shard int, p *crashPlan) {
	for pt, n := range p.hits {
		r.PointHits[pt] += n
		r.Crashes += n
		if r.ShardKills != nil {
			r.ShardKills[shard] += n
		}
	}
}

// foldStats adds one retired Service incarnation's healing counters.
// Stats are per incarnation, so each is folded exactly once: before its
// replacement or when the schedule ends.
func (r *CrashReport) foldStats(s ServiceStats) {
	r.Recoveries += s.Recoveries
	r.ReplayedOps += s.ReplayedOps
	r.Checkpoints += s.Checkpoints
}

// crashPlan arms supervisor kills at pseudo-random crash-hook
// consultations. Firing "at the Nth hook consultation" (rather than at a
// fixed point) spreads kills uniformly over every CrashPoint the write
// path consults, including the recovery-path points reachable only
// while healing. The kill budget is private to one Service or shared by
// a fleet (each shard's hook runs on that shard's supervisor). mu
// serializes consultations: inside a pipelined window, CrashMidServe
// (serve workers) and CrashMidBucketWrite (overlapped writeback
// goroutines) consult the plan concurrently. The journal itself is
// quiescent during a dispatch window — the service worker is blocked
// inside Batch — so serializing the plan suffices.
type crashPlan struct {
	mu     sync.Mutex
	wl     *rng.Source
	store  *wal.MemStore
	budget *atomic.Int64
	frame  int // disk frame length (0: no disk medium)
	tear   int // bytes of the killed frame that land, drawn when the kill fires
	count  uint64
	next   uint64
	hits   [numCrashPoints]uint64
}

// newCrashPlan arms the first kill anywhere in the first span
// consultations and installs the plan's torn-tail hook on store.
func newCrashPlan(seed uint64, store *wal.MemStore, budget *atomic.Int64, span uint64) *crashPlan {
	p := &crashPlan{wl: rng.New(seed), store: store, budget: budget}
	p.next = 1 + p.wl.Uint64n(span)
	store.CrashTruncate = p.truncateCrash
	return p
}

// fire consumes one unit of the kill budget if this consultation is
// armed, and arms the next kill soon: crashes that land while the
// previous one is still being recovered from are the interesting ones.
func (p *crashPlan) fire() bool {
	p.count++
	if p.count < p.next || p.budget.Load() <= 0 {
		return false
	}
	if p.budget.Add(-1) < 0 {
		p.budget.Add(1) // lost the race for the last unit
		return false
	}
	p.next = p.count + 1 + p.wl.Uint64n(24)
	return true
}

// hook is the ServiceConfig.crashHook: a firing kill also tears the
// journal's unsynced buffer at a random byte boundary, modelling the
// arbitrary prefix a real crash can leave behind an unfinished write,
// and a mid-bucket-write kill draws how much of the frame lands.
func (p *crashPlan) hook(pt CrashPoint) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fire() {
		return false
	}
	p.hits[pt]++
	p.store.Crash(int(p.wl.Uint64n(uint64(p.store.Buffered()) + 1)))
	if pt == CrashMidBucketWrite {
		p.tear = int(p.wl.Uint64n(uint64(p.frame) + 1))
	}
	return true
}

// tearLen is the ServiceConfig.crashTear hook: the frame tear drawn when
// the mid-bucket-write kill fired.
func (p *crashPlan) tearLen(int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tear
}

// truncateCrash is the MemStore.CrashTruncate hook: a kill landing
// inside wal.Open's torn-tail truncation (between ftruncate and fsync,
// in FileStore terms) while a previous crash is being reopened from.
// Whether the truncation persisted is itself random — both outcomes
// must recover identically, since only garbage bytes are ever dropped.
func (p *crashPlan) truncateCrash(int) (error, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.fire() {
		return nil, false
	}
	p.hits[CrashMidCompaction]++
	return errKilled, p.wl.Uint64n(2) == 0
}

// crashShard is one shard's durable stores and kill plan. The stores
// outlive every incarnation, so a restart or rebuild reopens the SAME
// stores the kill tore.
type crashShard struct {
	wal   *wal.MemStore
	ckpts *MemCheckpointStore
	plan  *crashPlan
}

func newCrashShard(seed uint64, budget *atomic.Int64, span uint64) *crashShard {
	w := wal.NewMemStore()
	return &crashShard{wal: w, ckpts: NewMemCheckpointStore(), plan: newCrashPlan(seed, w, budget, span)}
}

func (s *crashShard) install(sc *ServiceConfig) {
	sc.WAL = s.wal
	sc.Checkpoints = s.ckpts
	sc.crashHook = s.plan.hook
}

// pendingWrite is a mutation that was killed in flight: the crash landed
// between admission and acknowledgement, so the oracle cannot know
// whether it is durable. After recovery the ambiguity is resolved by
// reading the address back — the target must return either the old or
// the new value, anything else is a corruption.
type pendingWrite struct {
	addr uint64
	old  []byte // nil: never written before
	new  []byte
}

// crashTarget is what the campaign drives: a front door plus the
// target's own recovery. The shared driver (crashRun) never switches on
// the target kind; everything particular to a target lives behind these
// methods.
type crashTarget interface {
	Read(ctx context.Context, addr uint64) ([]byte, error)
	Write(ctx context.Context, addr uint64, data []byte) error
	Batch(ctx context.Context, ops []BatchOp) ([][]byte, error)
	// step runs the target's own work between client operations; wait
	// runs it to completion before the final sweep.
	step(wait bool)
	// served notes a client operation of the drive phase acknowledged.
	served(write bool)
	// recover brings the target back after an operation failed with
	// err. It reports false if err is no injected kill (the caller
	// records the violation) or the schedule died healing.
	recover(err error) bool
	// shutdown closes a live target through kills, scrubs every device,
	// and folds the target's kill and healing counters into the report.
	// It runs on every exit path.
	shutdown()
}

// crashProfile is one target's fixed shape: its client operation mix
// and the constructor that stands a schedule's target up. A roll below
// write writes, below batch runs a 2+U(batchN)-op batch, below burst
// races 2+U(3) concurrent writers; the rest read.
type crashProfile struct {
	ops                 int
	blocks              uint64
	write, batch, burst float64
	batchN              uint64
	open                func(o *crashRun, cfg CrashChaosConfig, idx uint64, variant Variant)
}

const crashBlockSize = 32

var (
	singleCrash  = crashProfile{ops: 48, blocks: 48, write: 0.45, batch: 0.60, burst: 0.70, batchN: 3, open: openSingleTarget}
	shardedCrash = crashProfile{ops: 64, blocks: 60, write: 0.40, batch: 0.60, burst: 0.70, batchN: 4, open: openShardedTarget}
	reshardCrash = crashProfile{ops: 96, blocks: 48, write: 0.45, batch: 0.65, burst: 0.65, batchN: 4, open: openReshardTarget}
)

// RunCrashChaos runs the crash-at-every-point campaign: for each
// schedule (and each Device variant) it stands the target up over
// in-memory journal and checkpoint stores, drives a random
// read/write/batch workload against a plain map oracle, and kills
// supervisors at crash-hook-selected points of the write path — between
// journal append and the durability barrier, between the barrier and
// apply, after apply but before acknowledgement, between checkpoint save
// and journal truncation, and mid-restore while a previous crash is
// being healed. After every kill the target recovers over the surviving
// stores (a reopen, a shard restart after probing the siblings, or a
// fleet rebuild that resumes the migration), and every in-flight
// mutation is resolved by read-back: old or new value, nothing else.
// Acknowledged writes must read back exactly. The final sweep reads
// every address, closes the target, and scrubs every device.
func RunCrashChaos(cfg CrashChaosConfig) CrashReport {
	if cfg.Schedules == 0 {
		cfg.Schedules = 100
	}
	prof := &singleCrash
	switch {
	case cfg.AddShards > 0:
		if cfg.Shards == 0 {
			cfg.Shards = 2
		}
		prof = &reshardCrash
	case cfg.Shards > 0:
		prof = &shardedCrash
	}
	rep := CrashReport{Shards: cfg.Shards, AddShards: cfg.AddShards}
	if cfg.Shards > 0 {
		rep.ShardKills = make([]uint64, cfg.Shards+cfg.AddShards)
	}
	runCrashCampaign(&rep, cfg, prof)
	return rep
}

func runCrashCampaign(rep *CrashReport, cfg CrashChaosConfig, prof *crashProfile) {
	rep.Schedules = 2 * cfg.Schedules
	for i := uint64(0); i < uint64(cfg.Schedules); i++ {
		for _, v := range []Variant{Baseline, Fork} {
			o := &crashRun{
				rep:    rep,
				prof:   prof,
				id:     fmt.Sprintf("schedule %d/%v", i, v),
				seed:   rng.SeedAt(cfg.Seed, 2*i+uint64(v)),
				oracle: make(map[uint64][]byte),
			}
			prof.open(o, cfg, i, v)
			o.exec()
		}
	}
}

// crashRun is one schedule's oracle and driver: the map of acknowledged
// values, the in-flight writes awaiting read-back, and the workload.
type crashRun struct {
	rep  *CrashReport
	prof *crashProfile
	id   string
	seed uint64
	t    crashTarget // installed by prof.open

	oracle  map[uint64][]byte
	pend    []pendingWrite
	counter uint64 // payload counter
	// busy is the address a readBack is mid-retry on (kept out of
	// sibling probes: a probe write there would invalidate the oracle
	// value the read is about to be compared against).
	busy    uint64
	busySet bool
	dead    bool
}

// violate records a violation; fail also ends the schedule.
func (o *crashRun) violate(format string, args ...any) {
	o.rep.violate("%s: %s", o.id, fmt.Sprintf(format, args...))
}

func (o *crashRun) fail(format string, args ...any) {
	o.violate(format, args...)
	o.dead = true
}

// exec drives the installed target, sweeps the address space and shuts
// the target down.
func (o *crashRun) exec() {
	defer o.t.shutdown()
	if o.dead {
		return
	}
	o.drive(rng.New(rng.SeedAt(o.seed, 4)))
	o.t.step(true)
	// Final sweep: read-your-writes over the whole address space.
	for addr := uint64(0); addr < o.prof.blocks && !o.dead; addr++ {
		o.rep.Ops++
		o.checkRead(addr)
	}
}

// pending draws the next payload for addr as an in-flight write over the
// oracle's current value; ack commits it.
func (o *crashRun) pending(addr uint64) pendingWrite {
	o.counter++
	return pendingWrite{addr: addr, old: o.oracle[addr], new: chaosPayload(crashBlockSize, o.seed, o.counter)}
}

func (o *crashRun) ack(w pendingWrite) {
	o.oracle[w.addr] = w.new
	o.rep.Acked++
}

// drive runs the client workload: writes, reads, batches and
// concurrent bursts, in the profile's mix.
func (o *crashRun) drive(wl *rng.Source) {
	ctx := context.Background()
	p := o.prof
	for op := 0; op < p.ops && !o.dead; op++ {
		if o.t.step(false); o.dead {
			return
		}
		o.rep.Ops++
		switch roll := wl.Float64(); {
		case roll < p.write:
			w := o.pending(wl.Uint64n(p.blocks))
			if o.settle(o.t.Write(ctx, w.addr, w.new), []pendingWrite{w}, "write") {
				o.ack(w)
				o.t.served(true)
			}
		case roll < p.batch: // distinct addresses, mixed reads and writes
			n := 2 + int(wl.Uint64n(p.batchN))
			ops := make([]BatchOp, 0, n)
			var pend []pendingWrite
			used := make(map[uint64]bool)
			for len(ops) < n {
				addr := wl.Uint64n(p.blocks)
				if used[addr] {
					continue
				}
				used[addr] = true
				if wl.Float64() < 0.6 {
					w := o.pending(addr)
					ops = append(ops, BatchOp{Addr: addr, Write: true, Data: w.new})
					pend = append(pend, w)
				} else {
					ops = append(ops, BatchOp{Addr: addr})
				}
			}
			out, err := o.t.Batch(ctx, ops)
			// A fleet commits per shard: on a mid-batch kill, sub-batches
			// on surviving shards may be durable, so EVERY write in the
			// batch settles as in-flight.
			if !o.settle(err, pend, "batch") {
				continue
			}
			for i, op := range ops {
				if op.Write {
					o.ack(pendingWrite{addr: op.Addr, new: op.Data})
				} else {
					o.compareRead(op.Addr, out[i])
				}
				o.t.served(op.Write)
			}
		case roll < p.burst: // concurrent distinct-address writes
			// Several writers race into the admission queue together so the
			// supervisor coalesces them into one group commit — the only way
			// to reach the group kill sites (after-group-append/sync) and the
			// group ack rule: every write acked by one sync, or none.
			n := 2 + int(wl.Uint64n(3))
			pend := make([]pendingWrite, 0, n)
			used := make(map[uint64]bool)
			for len(pend) < n {
				addr := wl.Uint64n(p.blocks)
				if used[addr] {
					continue
				}
				used[addr] = true
				pend = append(pend, o.pending(addr))
			}
			o.rep.Ops += uint64(n - 1) // loop header counted one
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range pend {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					errs[i] = o.t.Write(ctx, pend[i].addr, pend[i].new)
				}(i)
			}
			wg.Wait()
			// Addresses are distinct, so acks commit independently; a kill
			// leaves each unacked write ambiguous (group durable-but-unacked,
			// torn away, or never admitted) — settle resolves every one.
			var killed error
			for i, err := range errs {
				switch {
				case err == nil:
					o.ack(pend[i])
					o.t.served(true)
				case errors.Is(err, errKilled):
					killed = err
					o.pend = append(o.pend, pend[i])
				default:
					o.fail("burst write failed with unexpected error: %v", err)
				}
			}
			if killed != nil && !o.dead {
				o.settle(killed, nil, "burst write")
			}
		default:
			if o.checkRead(wl.Uint64n(p.blocks)) {
				o.t.served(false)
			}
		}
	}
}

// settle classifies an operation's error: nil means acknowledged (the
// caller commits the oracle); otherwise the target recovers and every
// pending write is resolved by read-back. Reports whether the operation
// was acknowledged.
func (o *crashRun) settle(err error, pend []pendingWrite, what string) bool {
	if err == nil {
		return true
	}
	o.pend = append(o.pend, pend...)
	if o.recovered(err, what) {
		o.resolvePend()
	}
	return false
}

// recovered hands a failed operation's error to the target's recovery;
// an error it does not own ends the schedule.
func (o *crashRun) recovered(err error, what string) bool {
	if o.t.recover(err) {
		return true
	}
	if !o.dead {
		o.fail("%s failed with unexpected error: %v", what, err)
	}
	return false
}

// closeThrough closes the target, recovering through kills that land
// inside a final checkpoint. Reports whether the close went through.
func (o *crashRun) closeThrough(shut func() error) bool {
	for !o.dead {
		err := shut()
		if err == nil {
			return true
		}
		o.settle(err, nil, "close")
	}
	return false
}

// resolvePend settles every in-flight write: the read-back must produce
// the new value (the journal record was durable and replay applied it —
// promote the oracle) or the old value (the record was torn away — keep
// the oracle). Anything else lost or corrupted data.
func (o *crashRun) resolvePend() {
	for len(o.pend) > 0 && !o.dead {
		// Peek, don't pop: the write stays visible to sibling probes
		// while its own read-back may trigger more healing.
		p := o.pend[0]
		if got, ok := o.readBack(p.addr); ok {
			old := p.old
			if old == nil {
				old = make([]byte, crashBlockSize)
			}
			switch {
			case bytes.Equal(got, p.new):
				o.oracle[p.addr] = p.new
			case bytes.Equal(got, old):
				// Torn away pre-ack: a legitimate outcome for an unacknowledged write.
			default:
				o.rep.SilentCorruptions++
				o.violate("in-flight write at addr %d resolved to neither old nor new value", p.addr)
			}
		}
		o.pend = o.pend[1:]
	}
}

// unsettled reports whether addr has a write awaiting resolution or a
// read-back in progress.
func (o *crashRun) unsettled(addr uint64) bool {
	if o.busySet && o.busy == addr {
		return true
	}
	for _, p := range o.pend {
		if p.addr == addr {
			return true
		}
	}
	return false
}

// checkRead reads addr and holds the result to the oracle, then settles
// any in-flight writes the read's healing left behind (sibling probes)
// before the next client op can overwrite their evidence.
func (o *crashRun) checkRead(addr uint64) bool {
	got, ok := o.readBack(addr)
	if ok {
		o.compareRead(addr, got)
	}
	o.resolvePend()
	return ok
}

// readBack reads addr, recovering through any kill that lands during the
// read. ok=false means the schedule died.
func (o *crashRun) readBack(addr uint64) ([]byte, bool) {
	o.busy, o.busySet = addr, true
	defer func() { o.busySet = false }()
	for !o.dead {
		got, err := o.t.Read(context.Background(), addr)
		if err == nil {
			return got, true
		}
		if !o.recovered(err, fmt.Sprintf("read %d", addr)) {
			return nil, false
		}
	}
	return nil, false
}

// compareRead holds a successful read to the oracle; a mismatch on an
// acknowledged write is a lost ack (and a silent corruption either way).
func (o *crashRun) compareRead(addr uint64, got []byte) {
	want, acked := o.oracle[addr]
	if want == nil {
		want = make([]byte, crashBlockSize)
	}
	if !bytes.Equal(got, want) {
		o.rep.SilentCorruptions++
		if acked {
			o.rep.LostAcks++
			o.violate("acknowledged write at addr %d lost after recovery", addr)
		} else {
			o.violate("read at addr %d returned wrong data", addr)
		}
	}
}

// crashServiceConfig is the service every target runs (one per shard in
// a fleet): small, checkpointing often (more save/truncate windows to
// kill in), and integrity-verified on even schedules.
func crashServiceConfig(seed, idx uint64, variant Variant, blocks uint64) ServiceConfig {
	return ServiceConfig{
		Device: DeviceConfig{
			Blocks:    blocks,
			BlockSize: crashBlockSize,
			QueueSize: 4,
			Seed:      rng.SeedAt(seed, 3),
			Variant:   variant,
			Integrity: idx%2 == 0,
		},
		QueueDepth:      8,
		CheckpointEvery: 8,
		MaxRecoveries:   50,
		BackoffBase:     time.Nanosecond,
		BackoffMax:      time.Nanosecond,
		sleep:           func(time.Duration) {},
	}
}

// injectCrashFaults runs schedules ≡ 1 (mod 4) with low-rate transient
// storage faults and retries disabled: every transient poisons the
// device, so the supervisor's in-process heal (restore + replay) runs
// constantly underneath the kills instead of being absorbed by the
// controller's retry layer.
func injectCrashFaults(d *DeviceConfig, seed, idx uint64) {
	if idx%4 != 1 {
		return
	}
	p := 0.002 / 3
	d.Faults = &faults.Config{
		Seed:           rng.SeedAt(seed, 2),
		PTransientRead: p, PTransientWrite: p, PDroppedWrite: p,
	}
	d.Retries = -1
}

// openFleet stands a fleet up over its stores. Construction passes the
// same crash points as any cold start, so it retries until a fleet
// survives its own birth (the kill budgets bound the loop).
func (o *crashRun) openFleet(cfg ShardedServiceConfig) *ShardedService {
	for {
		svc, err := NewShardedService(cfg)
		if err == nil {
			return svc
		}
		if !errors.Is(err, errKilled) {
			o.fail("open fleet: %v", err)
			return nil
		}
	}
}

// scrubFleet structurally scrubs every quiesced shard device.
func (o *crashRun) scrubFleet(svc *ShardedService) {
	for i := 0; i < svc.Shards(); i++ {
		if err := svc.shard(i).dev.Scrub(); err != nil {
			o.violate("shard %d scrub after close: %v", i, err)
		}
	}
}

// ---------------------------------------------------------------------
// Single target: one supervised Service, reopened after every kill.
// ---------------------------------------------------------------------

type singleTarget struct {
	*Service
	run    *crashRun
	cfg    ServiceConfig
	plan   *crashPlan
	budget atomic.Int64
	disk   *DiskMedium
	dir    string
}

func openSingleTarget(o *crashRun, cfg CrashChaosConfig, idx uint64, variant Variant) {
	t := &singleTarget{run: o}
	o.t = t
	t.budget.Store(3)
	walStore := wal.NewMemStore()
	// First kill lands anywhere in the schedule: roughly three hook
	// consultations per write, half the ops are writes.
	t.plan = newCrashPlan(rng.SeedAt(o.seed, 1), walStore, &t.budget, uint64(o.prof.ops)*3/2+8)
	sc := crashServiceConfig(o.seed, idx, variant, o.prof.blocks)
	// Decorator matrix: even schedules verify integrity, schedules ≡1
	// (mod 4) inject storage faults, and schedules ≡3 (mod 4) run the
	// plain medium — the only configuration where the bulk interface is
	// exposed and the pipeline engages, so the mid-pipeline kill site is
	// reachable. There the window deepens and the serve stage fans across
	// workers, so kills land on a worker mid-access while sibling
	// accesses are in flight (CrashMidServe) and bucket-write kills land
	// inside overlapped writeback goroutines.
	injectCrashFaults(&sc.Device, o.seed, idx)
	sc.Device.PipelineDepth = 2
	if idx%4 == 3 {
		sc.Device.PipelineDepth = 4
		sc.Device.ServeWorkers = 2
	}
	// Disk schedules (every even schedule, or all of them with
	// cfg.Disk): the base medium is a real file, so kills can land
	// inside a frame write (leaving a torn, CRC-detectable tail) and the
	// background scrub walker runs — with a write-through RAM treetop as
	// its repair source — reaching the mid-scrub kill site.
	if cfg.Disk || idx%2 == 0 {
		dir, err := os.MkdirTemp("", "forkoram-chaos")
		if err != nil {
			o.fail("disk tempdir: %v", err)
			return
		}
		t.dir = dir
		t.disk, err = NewDiskMedium(sc.Device, filepath.Join(dir, "buckets.oram"))
		if err != nil {
			o.fail("open disk medium: %v", err)
			return
		}
		sc.Device.Storage.Medium = t.disk
		// Pipeline schedules keep the disk top-of-stack: the RAM tier
		// does not speak the bulk interface, so layering it would
		// disengage the pipeline and lose the bulk-write kill path.
		if idx%4 != 3 {
			sc.Device.Storage.TierBytes = 1 << 14
		}
		sc.ScrubEvery = 2
		sc.ScrubFrames = 16
		_, t.plan.frame = t.disk.FrameSpan(0)
	}
	sc.WAL = walStore
	sc.Checkpoints = NewMemCheckpointStore()
	sc.crashHook = t.plan.hook
	sc.crashTear = t.plan.tearLen
	t.cfg = sc
	t.open()
}

// open stands up a Service over the schedule's stores. NewService itself
// passes crash points (mid-restore, after-checkpoint-save), so this
// loops until an incarnation survives its own recovery; the kill budget
// bounds the loop.
func (t *singleTarget) open() bool {
	for {
		svc, err := NewService(t.cfg)
		if err == nil {
			t.Service = svc
			return true
		}
		if !errors.Is(err, errKilled) {
			t.run.fail("reopen: %v", err)
			return false
		}
	}
}

func (t *singleTarget) step(bool)   {}
func (t *singleTarget) served(bool) {}

// recover retires the killed incarnation and cold-starts a fresh Service
// over the surviving journal and checkpoint stores.
func (t *singleTarget) recover(err error) bool {
	if !errors.Is(err, errKilled) {
		return false
	}
	t.retire()
	if !t.open() {
		return false
	}
	t.run.rep.Restarts++
	return true
}

func (t *singleTarget) retire() {
	if t.Service != nil {
		t.run.rep.foldStats(t.Stats())
		t.Service = nil
	}
}

func (t *singleTarget) shutdown() {
	o := t.run
	if !o.dead && o.closeThrough(func() error { return t.Close() }) {
		if err := t.dev.Scrub(); err != nil {
			o.violate("scrub after close: %v", err)
		}
	}
	t.retire()
	o.rep.foldKills(0, t.plan)
	if t.disk != nil {
		t.disk.Close()
	}
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// ---------------------------------------------------------------------
// Sharded target: kills land in ONE shard's supervisor at a time (each
// shard has its own plan over its own journal, drawing on a fleet-wide
// budget) — exactly the failure the sharded design must isolate. Before
// a dead shard is restarted, every healthy sibling is probed for a read
// AND a write.
// ---------------------------------------------------------------------

type shardedTarget struct {
	*ShardedService
	run    *crashRun
	shards []*crashShard
	budget atomic.Int64
}

func openShardedTarget(o *crashRun, cfg CrashChaosConfig, idx uint64, variant Variant) {
	t := &shardedTarget{run: o, shards: make([]*crashShard, cfg.Shards)}
	o.t = t
	t.budget.Store(4)
	// First kill lands anywhere in the schedule: per-shard hook traffic
	// is roughly the single-service rate over the width.
	span := uint64(o.prof.ops)*3/(2*uint64(cfg.Shards)) + 8
	for i := range t.shards {
		t.shards[i] = newCrashShard(rng.SeedAt(o.seed, 10+uint64(i)), &t.budget, span)
	}
	sc := crashServiceConfig(o.seed, idx, variant, o.prof.blocks)
	// Same decorator matrix as the single target; the pipeline engages
	// on plain-medium schedules only, and odd schedules deepen the
	// window and fan the serve stage across workers.
	injectCrashFaults(&sc.Device, o.seed, idx)
	sc.Device.PipelineDepth = 2 + 2*int(idx%2)
	sc.Device.ServeWorkers = 2 * int(idx%2)
	t.ShardedService = o.openFleet(ShardedServiceConfig{
		Shards:  cfg.Shards,
		Service: sc,
		// Dead shards must stay dead until recover: sibling probes assert
		// ErrShardDown and the oracle's resolution order depends on
		// restarts being driven deterministically.
		SelfHeal: SelfHealConfig{Disable: true},
		PerShard: func(_ RoutingPolicy, shard int, c *ServiceConfig) { t.shards[shard].install(c) },
	})
}

func (t *shardedTarget) step(bool)   {}
func (t *shardedTarget) served(bool) {}

// recover restarts every killed shard — but FIRST probes each healthy
// sibling for a read and a write, certifying that a down shard degrades
// only its own residue class. Kills landing during the healing itself
// loop back in; the fleet-wide kill budget bounds the loop.
func (t *shardedTarget) recover(err error) bool {
	if !errors.Is(err, errKilled) {
		return false
	}
	o := t.run
	for !o.dead {
		var downs []int
		for i := range t.shards {
			if t.shard(i).Stats().State == stateKilled {
				downs = append(downs, i)
			}
		}
		if len(downs) == 0 {
			return true
		}
		o.rep.DownEvents++
		if t.siblingProbe(downs); o.dead {
			return false
		}
		for _, i := range downs {
			if !t.restartShard(i) {
				return false
			}
		}
	}
	return false
}

// siblingProbe drives one read and one write through every healthy
// shard while the shards in downs are still dead. A probe op that is
// itself killed (another shard's plan firing) just queues its pending
// write; recover's loop picks up the new corpse.
func (t *shardedTarget) siblingProbe(downs []int) {
	o := t.run
	ctx := context.Background()
	width := uint64(len(t.shards))
	for sh := 0; sh < len(t.shards) && !o.dead; sh++ {
		if slices.Contains(downs, sh) {
			// The dead shard itself must refuse, not hang or misroute.
			if _, err := t.Read(ctx, uint64(sh)); !errors.Is(err, ErrShardDown) {
				o.fail("dead shard %d returned %v, want ErrShardDown", sh, err)
			}
			continue
		}
		if t.shard(sh).Stats().State != StateHealthy {
			continue
		}
		// Probe an address owned by shard sh (addr ≡ sh mod width) whose
		// oracle entry is not ambiguous: a probe write over an unresolved
		// in-flight write would destroy the old-or-new evidence.
		addr, ok := uint64(sh), false
		for ; addr < o.prof.blocks; addr += width {
			if ok = !o.unsettled(addr); ok {
				break
			}
		}
		if !ok {
			continue
		}
		o.rep.Ops++
		got, err := t.Read(ctx, addr)
		switch {
		case err == nil:
			o.compareRead(addr, got)
			o.rep.SiblingReads++
		case errors.Is(err, errKilled): // this sibling died too; next round
			continue
		default:
			o.fail("sibling read on shard %d failed while shard(s) %v down: %v", sh, downs, err)
			continue
		}
		o.rep.Ops++
		w := pendingWrite{addr: addr, old: o.oracle[addr],
			new: chaosPayload(crashBlockSize, uint64(sh)^0x51b11e6, o.rep.Crashes+o.rep.Ops)}
		switch err := t.Write(ctx, addr, w.new); {
		case err == nil:
			o.ack(w)
			o.rep.SiblingWrites++
		case errors.Is(err, errKilled):
			o.pend = append(o.pend, w)
		default:
			o.fail("sibling write on shard %d failed while shard(s) %v down: %v", sh, downs, err)
		}
	}
}

// restartShard folds the dead incarnation's stats, then cold-starts the
// shard from its surviving stores. The restart's own recovery passes
// crash points; loop until an incarnation survives (budget-bounded).
func (t *shardedTarget) restartShard(i int) bool {
	t.run.rep.foldStats(t.shard(i).Stats())
	for {
		err := t.RestartShard(i)
		if err == nil {
			t.run.rep.Restarts++
			return true
		}
		if !errors.Is(err, errKilled) {
			t.run.fail("shard %d restart: %v", i, err)
			return false
		}
	}
}

func (t *shardedTarget) shutdown() {
	o := t.run
	if t.ShardedService != nil {
		if !o.dead && o.closeThrough(t.Close) {
			o.scrubFleet(t.ShardedService)
		}
		for i := range t.shards {
			o.rep.foldStats(t.shard(i).Stats())
		}
	}
	for i, s := range t.shards {
		o.rep.foldKills(i, s.plan)
	}
}

// ---------------------------------------------------------------------
// Reshard target: kills at every ReshardCrashPoint of an online reshard,
// concurrent client traffic throughout, full rebuild over the surviving
// stores after every router death.
// ---------------------------------------------------------------------

// Reshard target constants: migration chunk size and the kill budgets.
// Each schedule focuses its first router kill on one ReshardCrashPoint
// (rotating by schedule index).
const (
	reshardChunkBlocks    = 8
	reshardMaxRouterKills = 3
	reshardMaxShardKills  = 2
)

// reshardKillPlan arms router kills at ReshardCrashPoint consultations.
// Each schedule FOCUSES on one point (rotating with the schedule index,
// so a campaign of ≥5·variants schedules kills at every phase): the
// first kill fires at a pseudo-random consultation of the focus point,
// later kills at random consultations of any point. The hook is called
// from the migrator goroutine and from NewShardedService (a rebuild's
// pending retirement), so it locks.
type reshardKillPlan struct {
	mu     sync.Mutex
	wl     *rng.Source
	store  *wal.MemStore
	budget int
	focus  ReshardCrashPoint
	nth    uint64
	seen   [numReshardPoints]uint64
	hits   [numReshardPoints]uint64
}

func newReshardKillPlan(seed uint64, store *wal.MemStore, idx, blocks uint64) *reshardKillPlan {
	p := &reshardKillPlan{wl: rng.New(seed), store: store, budget: reshardMaxRouterKills}
	p.focus = ReshardCrashPoint(idx % uint64(numReshardPoints))
	switch p.focus {
	case ReshardKillMidStream:
		p.nth = 1 + p.wl.Uint64n(blocks)
	case ReshardKillAdvance:
		p.nth = 1 + p.wl.Uint64n((blocks+reshardChunkBlocks-1)/reshardChunkBlocks)
	default:
		p.nth = 1
	}
	return p
}

// hook kills the router and tears the router journal's unsynced buffer
// at a random byte boundary — the appended-but-sync-racing-the-crash
// outcome every kill point documents.
func (p *reshardKillPlan) hook(pt ReshardCrashPoint) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.budget <= 0 {
		return false
	}
	p.seen[pt]++
	fire := pt == p.focus && p.seen[pt] == p.nth
	if !fire && p.budget < reshardMaxRouterKills && p.wl.Float64() < 0.03 {
		fire = true
	}
	if !fire {
		return false
	}
	p.budget--
	p.hits[pt]++
	p.store.Crash(int(p.wl.Uint64n(uint64(p.store.Buffered()) + 1)))
	return true
}

// reshardStoreKey identifies one shard generation's stores.
type reshardStoreKey struct {
	version uint64
	shard   int
}

type reshardTarget struct {
	*ShardedService
	run   *crashRun
	scfg  ShardedServiceConfig
	rplan *reshardKillPlan
	// gens holds the durable per-(policy version, shard) stores, created
	// lazily by the PerShard hook: a fleet rebuilt mid-migration must
	// find BOTH generations' journals again, keyed exactly as the hook
	// contract says. PerShard runs from the constructor, the migrator's
	// restarts and the heal passes, so it locks.
	mu     sync.Mutex
	gens   map[reshardStoreKey]*crashShard
	budget atomic.Int64

	shards  int  // the seed width
	split   int  // the split target width (shards+AddShards)
	target  int  // width the in-flight/next migration drives toward
	merge   bool // queue a second migration back to the seed width
	running bool // a Reshard call is in flight
	migOpen bool // a migration epoch was open when the current client op began
	migErr  chan error
}

// openReshardTarget stands the fleet up over durable per-(version,
// shard) stores and a durable router journal, prefills half the address
// space, and launches the split (odd schedules merge back once it
// settles).
func openReshardTarget(o *crashRun, cfg CrashChaosConfig, idx uint64, variant Variant) {
	rstore := wal.NewMemStore()
	t := &reshardTarget{
		run:    o,
		rplan:  newReshardKillPlan(rng.SeedAt(o.seed, 20), rstore, idx, o.prof.blocks),
		gens:   make(map[reshardStoreKey]*crashShard),
		shards: cfg.Shards,
		split:  cfg.Shards + cfg.AddShards,
		target: cfg.Shards + cfg.AddShards,
		merge:  idx%2 == 1,
		migErr: make(chan error, 1),
	}
	o.t = t
	// The shard-kill budget stays at 0 until the first migration
	// starts: the prefill alone routes more writes than a plan's span
	// to shard 0 of the seed width (every even address when Shards is
	// 2), so an open budget would be spent before any migration. The
	// plans keep counting meanwhile, so armed kills fire once it opens.
	span := uint64(o.prof.ops)*3/(2*uint64(t.split)) + 8
	t.scfg = ShardedServiceConfig{
		Shards:    cfg.Shards,
		Service:   crashServiceConfig(o.seed, idx, variant, o.prof.blocks),
		RouterWAL: rstore,
		// recover heals deterministically (healDownShards); the
		// background loop would race the oracle's resolution order.
		SelfHeal:    SelfHealConfig{Disable: true},
		reshardHook: t.rplan.hook,
		sleep:       func(time.Duration) {},
		PerShard: func(p RoutingPolicy, shard int, sc *ServiceConfig) {
			t.mu.Lock()
			defer t.mu.Unlock()
			k := reshardStoreKey{p.Version, shard}
			if t.gens[k] == nil {
				t.gens[k] = newCrashShard(rng.SeedAt(o.seed, 100+31*p.Version+uint64(shard)), &t.budget, span)
			}
			t.gens[k].install(sc)
		},
	}
	if t.ShardedService = o.openFleet(t.scfg); o.dead {
		return
	}
	// Prefill half the space with acked writes: the migration must carry
	// real data, and the untouched half pins zero-block routing.
	for addr := uint64(0); addr < o.prof.blocks && !o.dead; addr += 2 {
		o.rep.Ops++
		w := o.pending(addr)
		if o.settle(t.Write(context.Background(), addr, w.new), []pendingWrite{w}, "prefill write") {
			o.ack(w)
		}
	}
	if !o.dead {
		t.budget.Store(reshardMaxShardKills)
		t.startMig()
	}
}

// step polls the migrator between client ops and, once the split has
// settled, launches the merge-back under the remaining traffic. With
// wait it joins the migration(s) — a router kill mid-join rebuilds and
// relaunches, bounded by the kill budget — and checks the fleet settled
// at its target width.
func (t *reshardTarget) step(wait bool) {
	o := t.run
	for !o.dead {
		switch {
		case t.running && wait:
			t.migDone(<-t.migErr)
			continue
		case t.running:
			select {
			case err := <-t.migErr:
				t.migDone(err)
			default:
			}
		case t.merge && t.Shards() == t.split:
			t.merge = false
			t.target = t.shards
			t.startMig()
			if wait {
				continue
			}
		case wait:
			if got := t.Shards(); got != t.target || t.Migrating() {
				o.fail("fleet ended at %d shards (migrating=%v), want %d settled", got, t.Migrating(), t.target)
			}
		}
		break
	}
	t.migOpen = !wait && !o.dead && t.Migrating()
}

func (t *reshardTarget) served(write bool) {
	switch {
	case !t.migOpen:
	case write:
		t.run.rep.MigWrites++
	default:
		t.run.rep.MigReads++
	}
}

// recover heals the failure err names: ErrShardDown means a shard died
// under the op (restart every down shard across both generations); a
// bare injected kill means the router died at a reshard point (join the
// migrator, rebuild the fleet, resume the migration).
func (t *reshardTarget) recover(err error) bool {
	o := t.run
	switch {
	case errors.Is(err, ErrShardDown):
		for !o.dead && t.Stats().Down > 0 {
			n, err := t.healDownShards()
			o.rep.Restarts += uint64(n)
			if err != nil {
				o.fail("heal down shards: %v", err)
			}
		}
	case errors.Is(err, errKilled):
		if !t.running {
			o.fail("router killed with no migration running")
			return false
		}
		t.migDone(<-t.migErr)
	default:
		return false
	}
	return !o.dead
}

// startMig launches Reshard toward t.target on the migrator goroutine.
func (t *reshardTarget) startMig() {
	t.running = true
	go func(svc *ShardedService, target int) {
		t.migErr <- svc.Reshard(context.Background(), ReshardConfig{NewShards: target, ChunkBlocks: reshardChunkBlocks})
	}(t.ShardedService, t.target)
}

// migDone classifies a finished Reshard call. A router death is
// whole-process death: fold the dead instance's migration counters,
// close it, rebuild over the surviving stores (the torn router journal
// replays into the exact dual-routing state), and relaunch the
// migration if the journal says one is open or the fleet is not yet at
// the target width.
func (t *reshardTarget) migDone(err error) {
	t.running = false
	o := t.run
	switch {
	case err == nil:
	case errors.Is(err, errKilled):
		t.foldMig()
		t.Close() // errors are moot: acked writes are synced by contract
		if t.ShardedService = o.openFleet(t.scfg); o.dead {
			return
		}
		o.rep.Rebuilds++
		if t.Migrating() || t.Shards() != t.target {
			t.startMig()
		}
	default:
		o.fail("reshard failed with unexpected error: %v", err)
	}
}

// foldMig folds one fleet instance's migration counters into the report
// (exactly once per instance: at rebuild or schedule end).
func (t *reshardTarget) foldMig() {
	m := t.Stats().Migration
	t.run.rep.Migrations += m.Completed
	t.run.rep.BlocksMoved += m.BlocksMoved
	t.run.rep.Chunks += m.Chunks
	t.run.rep.Resumes += m.Resumes
}

func (t *reshardTarget) shutdown() {
	o := t.run
	if t.ShardedService != nil {
		if !o.dead {
			if err := t.Close(); err != nil {
				o.violate("close: %v", err)
			} else {
				o.scrubFleet(t.ShardedService)
			}
		}
		if t.running { // violation paths: stop the migrator
			t.Close()
			<-t.migErr
			t.running = false
		}
		t.foldMig()
	}
	for pt, n := range t.rplan.hits {
		o.rep.PhaseHits[pt] += n
		o.rep.RouterKills += n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, s := range t.gens {
		o.rep.foldKills(k.shard, s.plan)
	}
}
