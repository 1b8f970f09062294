// Package forkoram is a Go reproduction of "Fork Path: Improving
// Efficiency of ORAM by Removing Redundant Memory Accesses" (Zhang et
// al., MICRO-48, 2015).
//
// The package offers three public surfaces:
//
//   - Device: a functional oblivious block store. It hides the access
//     pattern to its backing storage behind Path ORAM, optionally with
//     the paper's Fork Path engine (path merging + request scheduling +
//     dummy request replacement). Payloads are protected with
//     probabilistic (counter-mode) encryption. Use it when you want an
//     ORAM as a data structure. A Device is strictly single-goroutine:
//     ORAM serializes memory accesses by construction, and the Device
//     enforces the contract with an atomic busy flag — a concurrent
//     entry returns ErrConcurrentAccess rather than corrupting state.
//
//   - Service: the serving layer over a Device — goroutine-safe
//     admission with context deadlines and bounded backpressure, a
//     write-ahead journal (internal/wal) so acknowledged writes survive
//     crashes, periodic checkpoints, and a supervisor that restores the
//     newest checkpoint and replays the journal when the device
//     fail-stops. Use it when the ORAM must stay up unattended.
//
//   - Simulation: the architectural evaluation stack — a trace-driven
//     multicore, shared LLC, hierarchical (recursive) Path ORAM
//     controller, on-chip bucket caches and a DDR3 timing/energy model.
//     Use RunSimulation for one configuration; cmd/orambench
//     regenerates every figure of the paper's evaluation section.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package forkoram
