package cpuhint

import (
	"runtime"
	"testing"
	"unsafe"

	"skipvector/internal/telemetry"
)

// TestPrefetchIsSafeOnAnyPointer exercises the hint with the pointer classes
// the hot paths feed it: live heap memory, interior pointers, nil, and a
// dangling-looking address. None may fault — prefetch is architecturally
// exempt from memory faults, and the no-op build never dereferences at all.
func TestPrefetchIsSafeOnAnyPointer(t *testing.T) {
	buf := make([]byte, 4096)
	Prefetch(unsafe.Pointer(&buf[0]))
	Prefetch(unsafe.Pointer(&buf[len(buf)-1]))
	Prefetch(nil)
	// A misaligned interior pointer: hints take any byte address.
	Prefetch(unsafe.Pointer(&buf[13]))
	Prefetch2(unsafe.Pointer(&buf[0]), unsafe.Pointer(&buf[64]))
	Prefetch2(nil, nil)
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
	Prefetch(unsafe.Pointer(&x))
	Prefetch2(unsafe.Pointer(&x), unsafe.Pointer(&x))
	Prefetch(nil)
	Prefetch2(nil, nil)
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
	for i := 0; i < b.N; i++ {
		Prefetch(unsafe.Pointer(&buf[(i*64)&(1<<16-1)]))
	}
}
