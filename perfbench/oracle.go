package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Payloads encode (address, version): bytes 0-7 hold the address,
// 8-15 the version, and the rest a filler derived from both, so a
// torn, misrouted or stale block is told apart from the right one.
// Version 0 is the prefill value every address starts with.

func payload(size int, addr, ver uint64) []byte {
	p := make([]byte, size)
	binary.LittleEndian.PutUint64(p[0:], addr)
	binary.LittleEndian.PutUint64(p[8:], ver)
	x := addr*0x9e3779b97f4a7c15 ^ ver*0xbf58476d1ce4e5b9
	for i := 16; i < size; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		p[i] = byte(x)
	}
	return p
}

// decode returns the version a payload read from addr carries, or an
// error if it is not a well-formed payload for that address.
func decode(p []byte, size int, addr uint64) (uint64, error) {
	if len(p) != size {
		return 0, fmt.Errorf("addr %d: payload %d bytes, want %d", addr, len(p), size)
	}
	if got := binary.LittleEndian.Uint64(p[0:]); got != addr {
		return 0, fmt.Errorf("addr %d: payload belongs to addr %d", addr, got)
	}
	ver := binary.LittleEndian.Uint64(p[8:])
	want := payload(size, addr, ver)
	for i := 16; i < size; i++ {
		if p[i] != want[i] {
			return 0, fmt.Errorf("addr %d: payload version %d corrupt at byte %d", addr, ver, i)
		}
	}
	return ver, nil
}

// oracle is the shadow map of the writes the benchmark issued. Events
// are stamped from one logical clock. A read may return version v of
// its address unless v is known stale when the read is issued: v was
// acknowledged, and another write to the address was issued after that
// acknowledgement and acknowledged itself before the read was issued.
// Everything else — the newest acknowledged version, a version still in
// flight, either of two overlapping writes — is a legal result of a
// linearizable store. Versions no outstanding or future read may return
// are pruned, so the map stays O(addresses).
type oracle struct {
	size int

	mu    sync.Mutex
	clock uint64
	addrs map[uint64]*addrState
	bad   []string // first few mismatch descriptions
	nbad  int
}

type addrState struct {
	next uint64 // versions issued so far (version 0 is the prefill)
	// floor is the largest issue stamp of an acknowledged write: every
	// version acknowledged before floor has been overwritten.
	floor   uint64
	live    []verState // versions not yet pruned
	pending []uint64   // floors seen by reads still outstanding
}

type verState struct {
	ver uint64
	ack uint64 // stamp of the acknowledgement; 0 while in flight
}

func newOracle(size int) *oracle {
	return &oracle{size: size, addrs: make(map[uint64]*addrState)}
}

// prefilled records version 0 of addr as acknowledged at the start.
func (o *oracle) prefilled(addr uint64) {
	o.mu.Lock()
	o.clock++
	o.addrs[addr] = &addrState{next: 1, live: []verState{{ver: 0, ack: o.clock}}}
	o.mu.Unlock()
}

// issueWrite assigns the next version of addr and returns it with its
// payload and the issue stamp to hand back to ackWrite.
func (o *oracle) issueWrite(addr uint64) (ver, stamp uint64, data []byte) {
	o.mu.Lock()
	o.clock++
	st := o.state(addr)
	ver = st.next
	st.next++
	st.live = append(st.live, verState{ver: ver})
	stamp = o.clock
	o.mu.Unlock()
	return ver, stamp, payload(o.size, addr, ver)
}

// ackWrite records the acknowledgement of a write issued at stamp.
func (o *oracle) ackWrite(addr, ver, stamp uint64) {
	o.finishWrite(addr, ver, stamp, true)
}

// failWrite records a write that returned an error. It may or may not
// have been applied, so it stays a legal read result until a write
// issued after the failure is acknowledged; it never overwrites others.
func (o *oracle) failWrite(addr, ver, stamp uint64) {
	o.finishWrite(addr, ver, stamp, false)
}

func (o *oracle) finishWrite(addr, ver, stamp uint64, acked bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clock++
	st := o.state(addr)
	for i := range st.live {
		if st.live[i].ver == ver {
			st.live[i].ack = o.clock
		}
	}
	if acked && stamp > st.floor {
		st.floor = stamp
		st.prune()
	}
}

// issueRead registers a read of addr issued now and returns the floor
// it must be judged against; hand it back to checkRead.
func (o *oracle) issueRead(addr uint64) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clock++
	st := o.state(addr)
	st.pending = append(st.pending, st.floor)
	return st.floor
}

// checkRead verifies data returned by a read of addr issued with the
// given floor. It reports whether the result is legal and records a
// mismatch if not.
func (o *oracle) checkRead(addr, floor uint64, data []byte) bool {
	ver, err := decode(data, o.size, addr)
	o.mu.Lock()
	defer o.mu.Unlock()
	st := o.state(addr)
	if err == nil {
		err = st.legal(ver, floor)
	}
	st.endRead(floor)
	if err != nil {
		o.nbad++
		if len(o.bad) < 8 {
			o.bad = append(o.bad, err.Error())
		}
		return false
	}
	return true
}

// abortRead forgets a read that returned an error.
func (o *oracle) abortRead(addr, floor uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.state(addr).endRead(floor)
}

func (st *addrState) endRead(floor uint64) {
	for i, f := range st.pending {
		if f == floor {
			st.pending = append(st.pending[:i], st.pending[i+1:]...)
			break
		}
	}
	st.prune()
}

func (st *addrState) legal(ver, floor uint64) error {
	if ver >= st.next {
		return fmt.Errorf("version %d was never written", ver)
	}
	for _, v := range st.live {
		if v.ver == ver {
			if v.ack != 0 && v.ack < floor {
				return fmt.Errorf("stale version %d (acknowledged at %d, overwritten by a write issued at %d)",
					ver, v.ack, floor)
			}
			return nil
		}
	}
	return fmt.Errorf("stale version %d (overwritten before the read was issued)", ver)
}

// prune drops versions stale for every outstanding and future read.
func (st *addrState) prune() {
	bound := st.floor
	for _, f := range st.pending {
		bound = min(bound, f)
	}
	keep := st.live[:0]
	for _, v := range st.live {
		if v.ack == 0 || v.ack >= bound {
			keep = append(keep, v)
		}
	}
	st.live = keep
}

func (o *oracle) state(addr uint64) *addrState {
	st := o.addrs[addr]
	if st == nil {
		st = &addrState{}
		o.addrs[addr] = st
	}
	return st
}

// written returns every address written after the prefill, in
// ascending order, for the final read-back.
func (o *oracle) written() []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []uint64
	for a, st := range o.addrs {
		if st.next > 1 {
			out = append(out, a)
		}
	}
	slices.Sort(out)
	return out
}

// mismatches returns the number of illegal results seen so far and
// the first few descriptions.
func (o *oracle) mismatches() (int, []string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.nbad, append([]string(nil), o.bad...)
}
