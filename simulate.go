package forkoram

import (
	"fmt"
	"io"

	"forkoram/internal/rng"
	"forkoram/internal/sim"
	"forkoram/internal/workload"
)

// SimConfig configures one full-system simulation run. See the field
// documentation on the underlying type; DefaultSimConfig fills the
// paper's Table 1 values.
type SimConfig = sim.Config

// SimResult is the metric set of one simulation run.
type SimResult = sim.Result

// Scheme selects the memory protection scheme of a simulation.
type Scheme = sim.Scheme

// Simulation schemes.
const (
	SchemeInsecure    = sim.Insecure
	SchemeTraditional = sim.Traditional
	SchemeForkPath    = sim.ForkPath
)

// Bucket-cache kinds for SimConfig.Cache.
const (
	SimCacheNone    = sim.CacheNone
	SimCacheTreetop = sim.CacheTreetop
	SimCacheMAC     = sim.CacheMAC
)

// DefaultSimConfig returns the paper's Table 1 configuration for the
// given scheme.
func DefaultSimConfig(scheme Scheme) SimConfig { return sim.Default(scheme) }

// RunSimulation executes one full-system simulation.
func RunSimulation(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// TraceRequest is one memory request of a recorded trace: a 64-byte-block
// address, a read/write flag and the compute gap (core cycles) since the
// previous request of the same thread.
type TraceRequest = workload.Request

// ReadTrace parses a trace in oramgen's text format ("<gap> <addr> <R|W>"
// per line).
func ReadTrace(r io.Reader) ([]TraceRequest, error) { return workload.ReadTrace(r) }

// WriteTrace serializes a trace in oramgen's text format.
func WriteTrace(w io.Writer, reqs []TraceRequest) error { return workload.WriteTrace(w, reqs) }

// GenerateTrace synthesizes n requests from a named benchmark profile.
func GenerateTrace(benchmark string, n int, seed uint64) ([]TraceRequest, error) {
	p, err := workload.Lookup(benchmark)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(p, rng.New(seed), 0, 0, 0)
	if err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("forkoram: trace length must be positive")
	}
	out := make([]TraceRequest, n)
	for i := range out {
		out[i] = gen.Next()
	}
	return out, nil
}
