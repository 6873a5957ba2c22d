//go:build (amd64 || arm64) && !purego

package cpuhint

// supported folds the Prefetch wrappers down to real hints on this build.
const supported = true

// prefetch is implemented in prefetch_{amd64,arm64}.s. It must never be
// called directly: Prefetch owns the zero check and the hint counter.
func prefetch(addr uintptr)
