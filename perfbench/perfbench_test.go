package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"forkoram"
)

// tiny shrinks a workload to a size a unit test runs in a second.
func tiny(s spec) spec {
	s.blocks = 1 << 8
	if s.ckptEvery == 0 {
		s.ckptEvery = 16 // so the durable workload checkpoints in the window
	}
	return s
}

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 7, dur: 400 * time.Millisecond, trace: trace, setups: 2,
		workdir: t.TempDir(), host: stampHost()}
}

// declared reads the metric names BENCHMARK.json promises for a mode.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(r *report) []string {
	var names []string
	for _, m := range r.metrics {
		names = append(names, m.name+" "+m.unit)
	}
	sort.Strings(names)
	return names
}

func headline(r *report, name string) float64 {
	for _, group := range [][]metric{r.metrics, r.extra} {
		for _, m := range group {
			if m.name == name || m.name == "traced."+name {
				return m.value
			}
		}
	}
	return math.NaN()
}

func TestEveryWorkloadRunsTiny(t *testing.T) {
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for _, s := range workloads {
		s := tiny(s)
		t.Run(s.name, func(t *testing.T) {
			var reps [2]*report
			for i, trace := range []bool{false, true} {
				r, err := run(s, tinyOptions(t, trace), nil)
				if err != nil {
					t.Fatal(err)
				}
				if r.mismatches != 0 || r.failed != 0 || r.attempted == 0 {
					t.Fatalf("trace=%v: attempted %d failed %d mismatches %d %v",
						trace, r.attempted, r.failed, r.mismatches, r.bad)
				}
				want := e2e
				if trace {
					want = layers
				}
				if got := reported(r); !reflect.DeepEqual(got, want) {
					t.Fatalf("trace=%v reports\n%v\nBENCHMARK.json declares\n%v", trace, got, want)
				}
				for _, m := range r.metrics {
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) || m.value < 0 {
						t.Errorf("trace=%v: %s = %v", trace, m.name, m.value)
					}
				}
				reps[i] = r
			}
			if !trace0NeverZero(t, reps[0]) {
				return
			}
			if s.depth > 1 {
				for i, r := range reps {
					if w := r.pipelineWindows; w == 0 {
						t.Errorf("trace=%d: no pipelined windows; the bulk path was lost", i)
					}
				}
			}
			name := "read_p50_ms"
			base, traced := headline(reps[0], name), headline(reps[1], name)
			t.Logf("tracing overhead on %s: untraced %.4g, traced %.4g (%+.1f%%)",
				name, base, traced, 100*(traced-base)/base)
		})
	}
}

// trace0NeverZero checks the end-to-end metrics are all nonzero, as
// the bounds on them are shares of their medians.
func trace0NeverZero(t *testing.T, r *report) bool {
	t.Helper()
	ok := true
	for _, m := range r.metrics {
		if m.value == 0 {
			t.Errorf("end-to-end metric %s is 0", m.name)
			ok = false
		}
	}
	return ok
}

// stale serves every read of an address written through it from the
// first value it saw there: the bug class a broken stash or position
// map produces.
type stale struct {
	frontDoor
	mu    sync.Mutex
	first map[uint64][]byte
}

func (s *stale) Write(ctx context.Context, addr uint64, data []byte) error {
	s.mu.Lock()
	if _, ok := s.first[addr]; !ok {
		s.first[addr] = payload(blockSize, addr, 0)
	}
	s.mu.Unlock()
	return s.frontDoor.Write(ctx, addr, data)
}

func (s *stale) Read(ctx context.Context, addr uint64) ([]byte, error) {
	data, err := s.frontDoor.Read(ctx, addr)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.first[addr]; ok {
		return old, err
	}
	return data, err
}

func (s *stale) Batch(ctx context.Context, ops []forkoram.BatchOp) ([][]byte, error) {
	out, err := s.frontDoor.Batch(ctx, ops)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, op := range ops {
		if op.Write {
			if _, ok := s.first[op.Addr]; !ok {
				s.first[op.Addr] = payload(blockSize, op.Addr, 0)
			}
		} else if old, ok := s.first[op.Addr]; ok && err == nil {
			out[i] = old
		}
	}
	return out, err
}

func TestOracleCatchesInjectedStaleRead(t *testing.T) {
	for _, name := range []string{"durable-zipf", "remote-rtt"} {
		s, _ := lookup(name)
		r, err := run(tiny(s), tinyOptions(t, false), func(fd frontDoor) frontDoor {
			return &stale{frontDoor: fd, first: map[uint64][]byte{}}
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.mismatches == 0 {
			t.Errorf("%s: stale reads went unnoticed", name)
		}
		if headline(r, "acked_frac") >= 1 {
			t.Errorf("%s: acked_frac %v despite mismatches", name, headline(r, "acked_frac"))
		}
	}
}

func TestOracleRules(t *testing.T) {
	o := newOracle(blockSize)
	o.prefilled(5)
	v1, s1, d1 := o.issueWrite(5)
	// A read overlapping the write may see either version.
	f := o.issueRead(5)
	o.ackWrite(5, v1, s1)
	if !o.checkRead(5, f, payload(blockSize, 5, 0)) {
		t.Fatal("old version rejected for a read that overlapped the write")
	}
	// Once the write is acknowledged, a new read must not see version 0.
	f = o.issueRead(5)
	if o.checkRead(5, f, payload(blockSize, 5, 0)) {
		t.Fatal("stale version 0 accepted after the overwrite was acknowledged")
	}
	if !o.checkRead(5, o.issueRead(5), d1) {
		t.Fatal("current version rejected")
	}
	// Two overlapping writes: either may win.
	v2, s2, d2 := o.issueWrite(5)
	v3, s3, d3 := o.issueWrite(5)
	o.ackWrite(5, v3, s3)
	o.ackWrite(5, v2, s2)
	for _, d := range [][]byte{d2, d3} {
		if !o.checkRead(5, o.issueRead(5), d) {
			t.Fatal("one of two overlapping writes rejected")
		}
	}
	if o.checkRead(5, o.issueRead(5), d1) {
		t.Fatal("version overwritten by two later writes accepted")
	}
	corrupt := append([]byte(nil), d3...)
	corrupt[40] ^= 1
	if o.checkRead(5, o.issueRead(5), corrupt) {
		t.Fatal("corrupt payload accepted")
	}
	if o.checkRead(6, o.issueRead(6), d3) {
		t.Fatal("payload of another address accepted")
	}
	if n, _ := o.mismatches(); n != 4 {
		t.Fatalf("mismatches = %d, want 4", n)
	}
}

func TestSameSeedSameOpStream(t *testing.T) {
	for _, s := range workloads {
		a, b := s.arrivals(3, 2*time.Second), s.arrivals(3, 2*time.Second)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different schedules", s.name)
		}
		if reflect.DeepEqual(a, s.arrivals(4, 2*time.Second)) {
			t.Errorf("%s: different seeds, same schedule", s.name)
		}
	}
}
