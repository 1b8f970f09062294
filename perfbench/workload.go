package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// spec is one workload: the load shape the generator produces and the
// Service configuration it drives. Every knob is one the library keeps
// public; the service receives only the generated operations.
type spec struct {
	name string
	why  string

	blocks   uint64  // address space (blocks of blockSize bytes), all prefilled
	readFrac float64 // share of reads
	zipfS    float64 // > 1: Zipf skew over scrambled addresses; 0: uniform

	rate float64 // Poisson arrivals per second, single Read/Write calls

	durable   bool          // file-backed WAL with fsync (else in-memory)
	ckptEvery int           // ServiceConfig.CheckpointEvery; 0 = library default
	depth     int           // DeviceConfig.PipelineDepth
	rtt       time.Duration // simulated remote tier read/write latency; 0 = none
}

const blockSize = 64

// inflightCap is the most requests outstanding at once; more are
// refused and count as failed.
const inflightCap = 512

// noCheckpoint is a CheckpointEvery no run reaches: checkpoints happen
// only in set-up and at Close, outside the timed window.
const noCheckpoint = 1 << 30

var workloads = []spec{
	{
		name: "durable-zipf",
		why:  "open loop, Zipf reads and writes over a file WAL with fsync: group-commit fsync and periodic checkpoints dominate",

		blocks: 1 << 14, readFrac: 0.7, zipfS: 1.1,
		rate: 300, durable: true,
	},
	{
		name: "remote-rtt",
		why:  "open loop over a simulated remote tier with 1 ms round trips and pipeline depth 4: storage round trips per access dominate",

		blocks: 1 << 12, readFrac: 0.5, rate: 200,
		ckptEvery: noCheckpoint, depth: 4, rtt: time.Millisecond,
	},
}

func lookup(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// arrival is one open-loop request: when it is due after the start of
// the timed window, where it goes, and whether it writes.
type arrival struct {
	at    time.Duration
	addr  uint64
	write bool
}

// arrivals is the open-loop schedule for a window of length dur: a
// Poisson process at s.rate conditioned on its expected count, so every
// seed offers the same load (given their number, Poisson arrival times
// are independent and uniform over the window). Fully determined by
// seed.
func (s spec) arrivals(seed int64, dur time.Duration) []arrival {
	r := rand.New(rand.NewSource(seed))
	next := s.addrs(r)
	out := make([]arrival, int(math.Round(s.rate*dur.Seconds())))
	for i := range out {
		out[i] = arrival{at: time.Duration(r.Int63n(int64(dur))), addr: next(), write: r.Float64() >= s.readFrac}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// addrs returns the workload's address generator drawing from r:
// uniform, or Zipf over a seeded permutation so the hot blocks are
// scattered across the address space.
func (s spec) addrs(r *rand.Rand) func() uint64 {
	if s.zipfS <= 1 {
		return func() uint64 { return uint64(r.Int63n(int64(s.blocks))) }
	}
	perm := r.Perm(int(s.blocks))
	z := rand.NewZipf(r, s.zipfS, 1, s.blocks-1)
	return func() uint64 { return uint64(perm[z.Uint64()]) }
}
