package bench

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"skipvector/internal/workload"
)

// TrialConfig describes one timed throughput trial (one point on one curve
// of a figure).
type TrialConfig struct {
	// Threads is the number of worker goroutines.
	Threads int
	// Duration is the measured interval. The paper uses 5s; scaled-down
	// reproductions use shorter trials.
	Duration time.Duration
	// KeyRange is the key-space size; keys are drawn from [0,KeyRange).
	KeyRange int64
	// Mix is the operation mixture.
	Mix workload.Mix
	// RangeSpan is the width of range operations for OpRange.
	RangeSpan int64
	// Seed makes the trial deterministic.
	Seed uint64
	// SkipPrefill leaves the structure empty rather than half-full.
	SkipPrefill bool
}

// Validate checks the trial parameters.
func (c *TrialConfig) Validate() error {
	switch {
	case c.Threads < 1:
		return fmt.Errorf("bench: Threads %d < 1", c.Threads)
	case c.Duration <= 0:
		return fmt.Errorf("bench: non-positive duration")
	case c.KeyRange < 2:
		return fmt.Errorf("bench: KeyRange %d < 2", c.KeyRange)
	}
	if c.Mix.RangePct > 0 && c.RangeSpan <= 0 {
		return fmt.Errorf("bench: range ops requested with RangeSpan %d", c.RangeSpan)
	}
	return c.Mix.Validate()
}

// TrialResult reports one trial's outcome.
type TrialResult struct {
	Ops        int64
	Elapsed    time.Duration
	Throughput float64 // operations per second
}

// Prefill loads m with half the keys of [0,keyRange) in pseudo-random
// order, sharded across goroutines the way the paper prefills "in a
// NUMA-fair way".
func Prefill(m IntMap, keyRange int64, seed uint64, threads int) {
	pf := workload.NewPrefiller(keyRange, seed)
	total := pf.Count()
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	chunk := (total + int64(threads) - 1) / int64(threads)
	for t := 0; t < threads; t++ {
		from := int64(t) * chunk
		to := from + chunk
		if to > total {
			to = total
		}
		if from >= to {
			break
		}
		wg.Add(1)
		go func(from, to int64) {
			defer wg.Done()
			pf.Keys(from, to, func(k int64) { m.Insert(k, uint64(k)) })
		}(from, to)
	}
	wg.Wait()
}

// RunTrial executes one timed trial against m and returns its throughput.
func RunTrial(m IntMap, cfg TrialConfig) (TrialResult, error) {
	if err := cfg.Validate(); err != nil {
		return TrialResult{}, err
	}
	if !cfg.SkipPrefill {
		Prefill(m, cfg.KeyRange, cfg.Seed, cfg.Threads)
	}

	var (
		stop   atomic.Bool
		start  sync.WaitGroup
		done   sync.WaitGroup
		counts = make([]int64, cfg.Threads)
	)
	root := workload.NewRNG(cfg.Seed ^ 0xabcdef)

	start.Add(1)
	for t := 0; t < cfg.Threads; t++ {
		rng := root.Split()
		keys := workload.NewUniform(rng, cfg.KeyRange)
		done.Add(1)
		go func(id int, rng *workload.RNG, keys *workload.Uniform) {
			defer done.Done()
			// Label the worker for CPU profiles: `go tool pprof -tagfocus`
			// can then separate worker time by goroutine.
			labels := pprof.Labels("sv_worker", strconv.Itoa(id))
			pprof.Do(context.Background(), labels, func(context.Context) {
				// Workers operate through a pinned session when the structure
				// offers one, so per-handle state (the search finger) sticks to
				// this goroutine instead of shuffling through the shared pool.
				view := m
				if sp, ok := m.(Sessioner); ok {
					sess := sp.NewSession()
					defer sess.Close()
					view = sess
				}
				start.Wait()
				var local int64
				rm, _ := m.(RangeMap)
				for !stop.Load() {
					// Batch 64 operations between stop checks to keep the
					// control overhead off the measured path.
					for i := 0; i < 64; i++ {
						k := keys.Next()
						switch cfg.Mix.Next(rng) {
						case workload.OpLookup:
							view.Lookup(k)
						case workload.OpInsert:
							view.Insert(k, uint64(k))
						case workload.OpRemove:
							view.Remove(k)
						case workload.OpRange:
							lo := k
							hi := lo + cfg.RangeSpan - 1
							if rm != nil {
								rm.RangeUpdate(lo, hi, func(_ int64, v uint64) uint64 {
									return v + 1
								})
							} else {
								view.Lookup(k)
							}
						}
						local++
					}
				}
				counts[id] = local
			})
		}(t, rng, keys)
	}

	begin := time.Now()
	start.Done()
	timer := time.NewTimer(cfg.Duration)
	<-timer.C
	stop.Store(true)
	done.Wait()
	elapsed := time.Since(begin)

	var total int64
	for _, c := range counts {
		total += c
	}
	return TrialResult{
		Ops:        total,
		Elapsed:    elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
	}, nil
}

// RunAveraged runs the trial reps times on fresh structures and returns the
// mean throughput, matching the paper's "average of five runs" protocol.
func RunAveraged(v Variant, cfg TrialConfig, reps int) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	var sum float64
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x9e37
		res, err := RunTrial(v.New(cfg.KeyRange), c)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", v.Name, err)
		}
		sum += res.Throughput
	}
	return sum / float64(reps), nil
}
