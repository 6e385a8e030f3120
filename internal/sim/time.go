// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock (nanosecond resolution) by executing
// events in (time, insertion-order) order. On top of the raw event loop it
// offers three higher-level facilities used throughout the simulator:
//
//   - Proc: simulated processes (goroutines that run one at a time; one
//     that sleeps or blocks runs the event loop itself until an event
//     wakes it or another Proc), used for host-level application
//     processes.
//   - Resource: a FIFO server with a service time per request, used to model
//     serialized hardware units (the NIC firmware processor, DMA engines).
//   - Gate / Mailbox: blocking synchronization and message passing between
//     Procs in virtual time.
//
// All randomness flows through the kernel's seeded RNG, so a simulation run
// is a pure function of its configuration and seed.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant in simulated time, in nanoseconds since the start of
// the simulation.
type Time int64

// Microsecond is time.Microsecond, re-exported for brevity at call sites.
const Microsecond = time.Microsecond

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier instant o.
func (t Time) Sub(o Time) time.Duration { return time.Duration(t - o) }

// Before reports whether t precedes o.
func (t Time) Before(o Time) bool { return t < o }

// After reports whether t follows o.
func (t Time) After(o Time) bool { return t > o }

// Duration converts t to the duration elapsed since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// String formats t using time.Duration notation (e.g. "1.5ms").
func (t Time) String() string { return fmt.Sprint(time.Duration(t)) }
