//go:build !purego

#include "textflag.h"

// func prefetch(addr uintptr)
//
// PRFM PLDL1KEEP: load-prefetch into L1 with temporal (keep) hint — the
// arm64 equivalent of PREFETCHT0 for the descent's read-and-search targets.
TEXT ·prefetch(SB), NOSPLIT, $0-8
	MOVD addr+0(FP), R0
	PRFM (R0), PLDL1KEEP
	RET
