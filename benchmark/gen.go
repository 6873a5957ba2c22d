package main

import "math"

// Everything a workload feeds the map comes from this file: the benchmark's
// own RNG, its three key streams, the striped-ownership rule and the op list.
// Nothing here imports the repository's own generators (internal/workload),
// so a change to those cannot change what the benchmark runs.

const (
	keyBits  = 20
	keySpace = 1 << keyBits // keys are 0 … keySpace-1
	threads  = 2            // closed-loop clients; thread t owns keys k ≡ t (mod threads)

	batchLen    = 64  // keys per ApplyBatch
	scanSpan    = 128 // key span of a RangeQuery
	cursorSteps = 64  // Next calls per Cursor walk
	seqWindow   = 256 // keys a sequential-window stream walks before it jumps
)

// rng is SplitMix64.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0,n); the modulo bias is below 2^-40 for the
// bounds used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// valueOf is the value every present key maps to. A fixed function of the
// key lets any thread check any read without knowing who wrote it.
func valueOf(k int64) uint64 { return mix64(uint64(k)) | 1 }

// own maps any key to the nearest key of thread t's stripe at or below it
// (keySpace is even, so the result stays in range).
func own(k int64, t int) int64 { return k - k%threads + int64(t) }

// prefilled reports whether key k is in the map before the timed phase:
// an independent fair coin per key, so about half the key space.
func prefilled(seed uint64, k int64) bool { return mix64(seed^uint64(k)*0xd6e8feb86659fd93)&1 == 1 }

// zipf draws ranks in [0,n) with P(rank i) ∝ 1/(i+1)^theta, rank 0 hottest,
// by the method of Gray et al. (SIGMOD 1994). Ranks are used as keys
// unscrambled, so the mass sits at the low end of the key space.
type zipf struct {
	n                 float64
	theta, alpha, eta float64
	zetan             float64
	half              float64 // 0.5^theta
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(n int) float64 {
		s := 0.0
		for i := 1; i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n), half: math.Pow(0.5, theta)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(r *rng) int64 {
	u := r.float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	return int64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// keyStream is one thread's source of keys for one workload.
type keyStream interface{ next(r *rng) int64 }

type uniformKeys struct{}

func (uniformKeys) next(r *rng) int64 { return int64(r.intn(keySpace)) }

// windowKeys walks seqWindow consecutive keys, then jumps to a fresh uniform
// base. The base leaves room for the widest op (a batch of batchLen own-stripe
// keys) to stay inside the key space.
type windowKeys struct{ base, pos int64 }

func (w *windowKeys) next(r *rng) int64 {
	if w.pos == 0 {
		w.base = int64(r.intn(keySpace - seqWindow - threads*batchLen))
	}
	k := w.base + w.pos
	w.pos = (w.pos + 1) % seqWindow
	return k
}

type zipfKeys struct{ z *zipf }

func (s zipfKeys) next(r *rng) int64 { return s.z.rank(r) }

type opKind uint8

const (
	opLookup opKind = iota
	opFloor
	opCeiling
	opInsert
	opUpsert
	opRemove
	opRange     // RangeQuery over [key, key+scanSpan)
	opCursor    // Cursor(key) then cursorSteps Next calls
	opBatchSeq  // ApplyBatch: batchLen consecutive own-stripe upserts from key
	opBatchRand // ApplyBatch: batchLen uniform own-stripe upserts (see batchKeys)
	opCompact   // DurableMap.Compact
	opSplit     // SplitShard(hot shard, median of the model)
	opMerge     // MergeShards(hot shard)
	numOpKinds
)

var opNames = [numOpKinds]string{"Lookup", "Floor", "Ceiling", "Insert", "Upsert", "Remove",
	"RangeQuery", "Cursor", "ApplyBatch", "ApplyBatch", "Compact", "SplitShard", "MergeShards"}

// opClass groups op kinds into the four latency classes the end-to-end
// metrics are reported by.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
	classScan
	classBatch
	classAdmin
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan", "batch", "admin"}

func (k opKind) class() opClass {
	switch k {
	case opLookup, opFloor, opCeiling:
		return classRead
	case opInsert, opUpsert, opRemove:
		return classWrite
	case opRange, opCursor:
		return classScan
	case opBatchSeq, opBatchRand:
		return classBatch
	}
	return classAdmin
}

// mutates reports whether the op writes, and therefore takes an own-stripe key.
func (k opKind) mutates() bool { c := k.class(); return c == classWrite || c == classBatch }

// op is one public-API call. Its index in the thread's list is its op_id.
type op struct {
	kind opKind
	key  int32
}

// share is one entry of a workload's op mix, in percent.
type share struct {
	kind opKind
	pct  int
}

// genOps builds thread t's op list for one repetition. The stream of draws
// depends only on (seed, rep, t), so the same seed gives the same list.
func genOps(w *workload, seed uint64, rep, t, n int) []op {
	r := &rng{state: mix64(seed) ^ uint64(rep)<<32 ^ uint64(t)<<16 ^ w.salt}
	keys := w.keys()
	ops := make([]op, n)
	for i := range ops {
		p := r.intn(100)
		kind := w.mix[len(w.mix)-1].kind
		for _, s := range w.mix {
			if p < s.pct {
				kind = s.kind
				break
			}
			p -= s.pct
		}
		k := keys.next(r)
		switch {
		case kind == opBatchRand:
			// The first key seeds the other batchLen-1; see batchKeys.
			k = own(int64(r.intn(keySpace)), t)
		case kind.mutates():
			k = own(k, t)
		case kind == opRange && w.straddle != nil:
			// Centre the span on one of the initial shard boundaries.
			k = w.straddle[r.intn(len(w.straddle))] - scanSpan/2
		}
		ops[i] = op{kind: kind, key: int32(k)}
	}
	if t == 0 {
		for _, a := range w.admin {
			ops[n*a.num/a.den] = op{kind: a.kind}
		}
	}
	return ops
}

// batchKeys expands a batch op into its batchLen own-stripe keys. opBatchSeq
// takes consecutive stripe keys; opBatchRand takes its first key as given and
// draws the rest uniformly from a stream seeded by that key and the op's
// index, so the keys are a pure function of the op list.
func batchKeys(o op, id, t int, dst []int64) []int64 {
	dst = dst[:0]
	if o.kind == opBatchSeq {
		for j := 0; j < batchLen; j++ {
			dst = append(dst, int64(o.key)+int64(j*threads))
		}
		return dst
	}
	r := rng{state: uint64(o.key)<<32 | uint64(uint32(id))}
	dst = append(dst, int64(o.key))
	for j := 1; j < batchLen; j++ {
		dst = append(dst, own(int64(r.intn(keySpace)), t))
	}
	return dst
}

// fnvOps folds op lists into a running FNV-1a hash; two runs that print the
// same oplist_fnv ran the same calls with the same arguments.
func fnvOps(h uint64, ops []op) uint64 {
	const prime = 0x100000001b3
	for _, o := range ops {
		h = (h ^ uint64(o.kind)) * prime
		k := uint32(o.key)
		for s := 0; s < 32; s += 8 {
			h = (h ^ uint64(byte(k>>s))) * prime
		}
	}
	return h
}

const fnvOffset = 0xcbf29ce484222325
