//go:build !purego

#include "textflag.h"

// func prefetch(addr uintptr)
//
// PREFETCHT0: pull the line holding p into every cache level. T0 (rather
// than T1/T2/NTA) because descent targets are read within a handful of
// instructions and then binary-searched — they want L1 residency, and the
// lines are small enough (a node header, a few key lines) not to thrash it.
TEXT ·prefetch(SB), NOSPLIT, $0-8
	MOVQ addr+0(FP), AX
	PREFETCHT0 (AX)
	RET
