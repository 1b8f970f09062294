// Command perfbench is the benchmark of the forkoram Service front
// door. It drives one named workload for a fixed time from a seed,
// checks every read against a shadow map of the acknowledged writes,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instruments installed; with --trace 1 they are the per-layer ones,
// read from decorators around each layer's public interface.
//
// Run it from the repository root with perfbench/run.sh, which builds
// it from source first:
//
//	bash perfbench/run.sh --workload remote-rtt --seed 1 --seconds 50 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 50, "length of the timed window")
	trace := flag.Int("trace", 0, "1 installs the per-layer instruments and reports their metrics")
	workdir := flag.String("workdir", ".", "directory for the journal files of durable workloads")
	flag.Parse()

	var list []spec
	if *workload == "all" {
		list = workloads
	} else if s, ok := lookup(*workload); ok {
		list = []spec{s}
	} else {
		names := make([]string, len(workloads))
		for i, s := range workloads {
			names[i] = s.name
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	// A wedged service must not hang the caller: give each run its
	// window plus generous set-up and drain time, then give up.
	limit := time.Duration(len(list)) * (dur + 100*time.Second)
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result after %v; giving up\n", limit)
		os.Exit(3)
	})

	h := stampHost()
	fmt.Printf("host num_cpu=%d gomaxprocs=%d go=%s sleep_floor_us=%.1f\n",
		h.numCPU, h.gomaxprocs, h.goVersion, h.sleepFloorUs)
	ok := true
	for _, s := range list {
		// setup_s is the median of at least three set-ups spanning at
		// least 2 s; the traced run does not report it.
		opt := options{seed: *seed, dur: dur, trace: *trace == 1, setups: 3, setupFor: 2 * time.Second,
			workdir: *workdir, host: h}
		if opt.trace {
			opt.setups, opt.setupFor = 1, 0
		}
		fmt.Printf("workload %s seed=%d seconds=%g trace=%d\n", s.name, *seed, *seconds, *trace)
		rep, err := run(s, opt, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		if rep.mismatches > 0 {
			ok = false
			for _, m := range rep.bad {
				fmt.Fprintf(os.Stderr, "perfbench: %s: oracle mismatch: %s\n", s.name, m)
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// host is the stamp every result carries: what the numbers ran on.
type host struct {
	numCPU, gomaxprocs int
	goVersion          string
	// sleepFloorUs is the median time a 50 µs time.Sleep really takes:
	// the timer floor under the generator and the simulated remote tier.
	sleepFloorUs float64
}

func stampHost() host {
	var ds []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		ds = append(ds, float64(time.Since(t0))/1e3)
	}
	return host{
		numCPU:       runtime.NumCPU(),
		gomaxprocs:   runtime.GOMAXPROCS(0),
		goVersion:    runtime.Version(),
		sleepFloorUs: quantile(ds, 0.5),
	}
}

// metric is one named number with its unit. note carries the sample
// count or other context for the human-readable line.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

type report struct {
	attempted, failed int // failed: errors + refusals + oracle mismatches
	mismatches        int
	bad               []string
	pipelineWindows   uint64   // pipelined dispatch windows in the timed window
	lines             []string // context printed before the metrics
	metrics           []metric // the ones the JSON result carries
	extra             []metric // printed only
}

func (r *report) print(w io.Writer) {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	vals := make(map[string]any, len(r.metrics))
	for _, group := range [][]metric{r.metrics, r.extra} {
		for _, m := range group {
			line := fmt.Sprintf("%-36s %14.6g %s", m.name, m.value, m.unit)
			if m.note != "" {
				line += "  (" + m.note + ")"
			}
			fmt.Fprintln(w, line)
		}
	}
	for _, m := range r.metrics {
		vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   r.mismatches == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   vals,
	})
	fmt.Fprintln(w, string(out))
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
