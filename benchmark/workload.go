package main

import (
	"path/filepath"
	"sync"
)

// adminAt places an admin op at position n·num/den of thread 0's list.
type adminAt struct {
	kind     opKind
	num, den int
}

// workload is one named traffic mix. Names are permanent: results of
// different commits are compared by workload name.
type workload struct {
	name string
	why  string // from BENCHMARK.json; see loadManifest
	salt uint64 // separates the workloads' random streams under one seed
	mix  []share
	keys func() keyStream
	// straddle lists the keys RangeQuery spans are centred on; nil takes the
	// span's start from the key stream.
	straddle []int64
	admin    []adminAt
	// opsPerSecond sizes the fixed work: one thread's list for one repetition
	// holds opsPerSecond × seconds ÷ repetitions ops. The constants were set so that
	// the timed phases of a run add up to about -seconds on the host that
	// defined the benchmark (see README.md); they are part of the inputs and
	// do not change with the code under test.
	opsPerSecond int
	// sampleEvery is the timing stride of point ops: every sampleEvery-th is
	// timed (two clock reads, about 50 ns, on calls that take a few hundred),
	// and every scan, batch and admin call.
	sampleEvery int
	open        func(dir string) (target, error)
}

var zipfOnce = sync.OnceValue(func() *zipf { return newZipf(keySpace, 0.99) })

var workloads = []*workload{
	{
		name:         "point-uniform",
		salt:         0x706f696e74,
		mix:          []share{{opLookup, 80}, {opInsert, 10}, {opRemove, 10}},
		keys:         func() keyStream { return uniformKeys{} },
		opsPerSecond: 570_000,
		sampleEvery:  16,
		open:         func(string) (target, error) { return openPlain(), nil },
	},
	{
		name: "scan-local",
		salt: 0x7363616e,
		mix: []share{{opLookup, 65}, {opFloor, 5}, {opCeiling, 5}, {opRange, 10}, {opCursor, 5},
			{opBatchSeq, 10}},
		keys:         func() keyStream { return &windowKeys{} },
		opsPerSecond: 230_000,
		sampleEvery:  16,
		open:         func(string) (target, error) { return openPlain(), nil },
	},
	{
		name:         "durable-mixed",
		salt:         0x64757261,
		mix:          []share{{opUpsert, 40}, {opRemove, 10}, {opBatchRand, 20}, {opLookup, 30}},
		keys:         func() keyStream { return uniformKeys{} },
		admin:        []adminAt{{opCompact, 1, 2}},
		opsPerSecond: 9_000,
		// The list is short and its calls are slow (a batch of 64 through the
		// log takes ~100 µs): timing every point op costs under 0.1 % and gives
		// the percentiles sixteen times the samples.
		sampleEvery: 1,
		open: func(dir string) (target, error) {
			return openDurable(filepath.Join(dir, "wal"))
		},
	},
	{
		name: "sharded-skew",
		salt: 0x7368617264,
		mix: []share{{opLookup, 45}, {opUpsert, 35}, {opRemove, 10}, {opBatchRand, 5},
			{opRange, 5}},
		keys:         func() keyStream { return zipfKeys{zipfOnce()} },
		straddle:     []int64{keySpace / 4, keySpace / 2, 3 * keySpace / 4},
		admin:        []adminAt{{opSplit, 1, 4}, {opMerge, 1, 2}, {opSplit, 3, 4}},
		opsPerSecond: 109_000,
		sampleEvery:  16,
		open:         func(string) (target, error) { return openSharded(), nil },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
