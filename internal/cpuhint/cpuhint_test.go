package cpuhint

import (
	"runtime"
	"testing"
	"unsafe"

	"skipvector/internal/telemetry"
)

// TestPrefetchIsSafeOnAnyPointer exercises the hint with the address classes
// the hot paths feed it: live heap memory, interior and misaligned
// addresses, zero, and addresses past the end of an object. None may fault —
// prefetch is architecturally exempt from memory faults, and the no-op build
// never dereferences at all.
func TestPrefetchIsSafeOnAnyPointer(t *testing.T) {
	buf := make([]byte, 4096)
	base := uintptr(unsafe.Pointer(&buf[0]))
	Prefetch(base)
	Prefetch(base + uintptr(len(buf)-1))
	Prefetch(0)
	Prefetch(base + 13)    // a misaligned interior address
	Prefetch(base + 1<<20) // far past the end of buf
	runtime.KeepAlive(buf)
}

// TestSupportedMatchesBuild pins the compile-time support matrix: the asm
// stub exists exactly on amd64/arm64 non-purego builds. A purego build of
// this same test asserts the inverse (CI runs both legs).
func TestSupportedMatchesBuild(t *testing.T) {
	wantAsm := runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64"
	if supported && !wantAsm {
		t.Fatalf("supported=true on GOARCH=%s with no asm stub", runtime.GOARCH)
	}
	if Supported() != supported {
		t.Fatalf("Supported() = %v, const = %v", Supported(), supported)
	}
}

// TestIssuedCountsHints checks the hint counter: with telemetry recording
// on, every non-nil hint on a supported build bumps sv_prefetch_issued_total
// once, and a build without a stub records none.
func TestIssuedCountsHints(t *testing.T) {
	defer telemetry.SetEnabled(false)
	telemetry.SetEnabled(true)
	var x int64
	before := issued.Load()
	addr := uintptr(unsafe.Pointer(&x))
	Prefetch(addr)
	Prefetch(addr)
	Prefetch(addr + 64)
	Prefetch(0)
	got := issued.Load() - before
	want := int64(0)
	if supported {
		want = 3
	}
	if got != want {
		t.Fatalf("Prefetch recorded %d hints, want %d", got, want)
	}
}

// BenchmarkPrefetch measures the per-hint cost (call + instruction) so
// EXPERIMENTS.md can cite it against the miss latency it hides.
func BenchmarkPrefetch(b *testing.B) {
	buf := make([]byte, 1<<16)
	base := uintptr(unsafe.Pointer(&buf[0]))
	for i := 0; i < b.N; i++ {
		Prefetch(base + uintptr(i*64)&(1<<16-1))
	}
	runtime.KeepAlive(buf)
}
