//go:build (!amd64 && !arm64) || purego

package cpuhint

// supported folds the Prefetch wrappers away entirely on this build: with a
// constant false guard the compiler deletes the call sites, so platforms
// without a stub (or purego builds, the fallback CI leg) pay nothing.
const supported = false

// prefetch is unreachable on this build (Prefetch guards on supported);
// it exists so both build flavours present the same internal surface.
func prefetch(addr uintptr) {}
