package layers

import (
	"time"

	"skipvector/internal/core"
	"skipvector/internal/seqlock"
)

// SeqlockKernel times seqlock.Lock alone on a workload's key stream, one lock
// per data chunk's worth of consecutive keys: an optimistic read section
// (ReadVersion + Validate) for every read key and an uncontended write
// section (Acquire + Release) for every written key. It returns ns per
// section.
func SeqlockKernel(keySpace int64, reads, writes []int64) (readValidateNs, acquireReleaseNs float64) {
	span := int64(2 * core.DefaultConfig().TargetDataVectorSize)
	locks := make([]seqlock.Lock, (keySpace+span-1)/span)
	sink := 0
	t0 := time.Now()
	for _, k := range reads {
		l := &locks[k/span]
		if v, ok := l.ReadVersion(); ok && l.Validate(v) {
			sink++
		}
	}
	readValidateNs = perCall(t0, len(reads))
	t0 = time.Now()
	for _, k := range writes {
		l := &locks[k/span]
		l.Acquire()
		sink += int(l.Release().Seq() & 1)
	}
	acquireReleaseNs = perCall(t0, len(writes))
	kernelSink += sink
	return readValidateNs, acquireReleaseNs
}
