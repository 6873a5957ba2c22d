// Package cpuhint exposes best-effort CPU micro-architectural hints — today
// a single one: software prefetch. The skip vector's descent is a pointer
// chase (tower node → child node → data chunk) whose every step begins with
// a load from a cache line the previous step just discovered; issuing a
// PREFETCHT0/PRFM for that line while the protocol work of the current step
// (hazard publication, seqlock validation) is still in flight overlaps the
// miss latency with work that must happen anyway ("Skiplists with
// Foresight", PPoPP'18).
//
// Hints are exactly that: they never fault, never synchronize, and never
// change program semantics. A prefetch of a stale pointer — a node recycled
// between the load and the hint — merely warms an irrelevant line. That is
// what makes the hint safe to issue for speculatively read pointers *before*
// the seqlock validation that proves them consistent, which is precisely
// where the latency overlap comes from.
//
// Platform support is compile-time: amd64 and arm64 get one-instruction
// assembly stubs; every other GOARCH (or any build with the purego tag)
// compiles Prefetch down to nothing — the `supported` constant folds the
// whole body away, so unsupported platforms pay zero, not a dynamic check.
//
// That build-time choice is the only switch: nothing turns hints on or off
// at run time, and a no-prefetch comparison is a `-tags purego` build. The
// hint count is recorded in the process-global telemetry registry as
// sv_prefetch_issued_total (telemetry-gated, like every other instrument).
package cpuhint

import "skipvector/internal/telemetry"

// issued counts hints actually executed (supported builds only).
// Sharded by cache-line address bits: prefetch sites have no per-goroutine
// stripe at hand, and the line address is a free locality token.
var issued = telemetry.Global.Counter("sv_prefetch_issued_total",
	"Software prefetch hints issued on the descent and intra-chunk search hot paths.")

// Supported reports whether this build issues real prefetch instructions.
func Supported() bool { return supported }

// Prefetch hints that the cache line containing addr will be read soon
// (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). It takes an address, not a
// pointer, so addr may be 0, stale, torn, past the end of its object or
// otherwise garbage: prefetch instructions ignore faults by definition, the
// collector never sees the value, and the hint body is assembly the race
// detector does not instrument, so no Go-level read ever occurs. On
// unsupported builds the call compiles to nothing.
func Prefetch(addr uintptr) {
	if !supported || addr == 0 {
		return
	}
	issued.Inc(int(addr >> 6))
	prefetch(addr)
}
