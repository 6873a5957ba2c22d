//go:build (amd64 || arm64) && !purego

package cpuhint

import "unsafe"

// supported folds the Prefetch wrappers down to real hints on this build.
const supported = true

// prefetch is implemented in prefetch_{amd64,arm64}.s. It must never be
// called directly: the wrappers own the nil check and the hint counter.
//
//go:noescape
func prefetch(p unsafe.Pointer)
