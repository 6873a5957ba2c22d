package bench

import (
	"fmt"
	"math"

	"skipvector/internal/core"
)

// Variant is a named data-structure configuration under test. The factory
// takes the key range so chunked variants can size their layer count.
type Variant struct {
	Name string
	New  func(keyRange int64) IntMap
}

// MinLayers returns the minimum layer count that preserves the skip vector's
// asymptotic guarantees for n expected elements (Section IV-B): enough index
// layers that the expected top layer shrinks to a single chunk. This is the
// "adjusting layerCount to the minimum value needed" rule of Figure 7a.
func MinLayers(n int64, targetData, targetIndex int) int {
	if n < 2 {
		return 1
	}
	dataNodes := float64(n) / float64(targetData)
	layers := 1
	for nodes := dataNodes; nodes > 1 && layers < core.MaxLayers; layers++ {
		if targetIndex <= 1 {
			// Un-chunked index layers halve like a classic skip list
			// (heights are geometric with p=1/2 when T_I=1... p=1/T_I
			// degenerates; use 2 to mimic the paper's USL/SL baselines).
			nodes /= 2
		} else {
			nodes /= float64(targetIndex)
		}
	}
	return layers
}

// uslHeightBase is the geometric base used for un-chunked index layers: with
// TargetIndexVectorSize=1 the paper's p = 1/T_I distribution degenerates, so
// the USL/SL variants follow the classic skip list's p = 1/2.
const uslHeightBase = 2

// svConfig builds a skip vector configuration for the given key range, with
// the expected stable size n = keyRange/2 (the prefill level).
func svConfig(keyRange int64, targetData, targetIndex int, reclaim core.ReclaimMode) core.Config {
	cfg := core.DefaultConfig()
	cfg.TargetDataVectorSize = targetData
	cfg.TargetIndexVectorSize = targetIndex
	cfg.Reclaim = reclaim
	heightIndex := targetIndex
	if heightIndex < uslHeightBase {
		heightIndex = uslHeightBase
	}
	cfg.LayerCount = MinLayers(keyRange/2, targetData, heightIndex)
	if cfg.LayerCount < 2 {
		cfg.LayerCount = 2
	}
	return cfg
}

// Standard variants from the paper's evaluation (Section V-A legends).
// Default tuning: targetData = targetIndex = 32 ("SV"); USL removes index
// chunking; SL removes all chunking; FSL is the lock-free skip list.
var (
	// SVHP is the skip vector with hazard-pointer reclamation ("SV-HP").
	SVHP = Variant{Name: "SV-HP", New: func(r int64) IntMap {
		return NewSkipVector(svConfig(r, 32, 32, core.ReclaimHazard))
	}}
	// SVLeak is the skip vector without reclamation ("SV-Leak").
	SVLeak = Variant{Name: "SV-Leak", New: func(r int64) IntMap {
		return NewSkipVector(svConfig(r, 32, 32, core.ReclaimLeak))
	}}
	// USLHP is the unrolled-skip-list approximation: chunked data layer,
	// un-chunked index layers ("USL-HP").
	USLHP = Variant{Name: "USL-HP", New: func(r int64) IntMap {
		return NewSkipVector(svConfig(r, 32, 1, core.ReclaimHazard))
	}}
	// USLLeak is the leaky unrolled skip list ("USL-Leak").
	USLLeak = Variant{Name: "USL-Leak", New: func(r int64) IntMap {
		return NewSkipVector(svConfig(r, 32, 1, core.ReclaimLeak))
	}}
	// SLHP is the fully un-chunked skip-list configuration ("SL-HP").
	SLHP = Variant{Name: "SL-HP", New: func(r int64) IntMap {
		return NewSkipVector(svConfig(r, 1, 1, core.ReclaimHazard))
	}}
	// FSL is the lock-free skip list baseline ("FSL").
	FSL = Variant{Name: "FSL", New: func(r int64) IntMap {
		return NewFSL()
	}}
)

// ScalabilityVariants is the Figure 4/5 legend.
func ScalabilityVariants() []Variant {
	return []Variant{SVHP, SVLeak, USLHP, USLLeak, FSL}
}

// TunedSV returns a skip vector variant with explicit chunk parameters (for
// the Figure 7 sensitivity sweeps).
func TunedSV(name string, targetData, targetIndex int, sortedIndex, sortedData bool) Variant {
	return Variant{Name: name, New: func(r int64) IntMap {
		cfg := svConfig(r, targetData, targetIndex, core.ReclaimHazard)
		cfg.SortedIndex = sortedIndex
		cfg.SortedData = sortedData
		return NewSkipVector(cfg)
	}}
}

// checkVariantName guards against duplicate legend entries in experiment
// definitions.
func checkVariantNames(vs []Variant) error {
	seen := map[string]bool{}
	for _, v := range vs {
		if seen[v.Name] {
			return fmt.Errorf("bench: duplicate variant %q", v.Name)
		}
		seen[v.Name] = true
	}
	return nil
}

// Pow2 returns 2^e as an int64 (a readability helper for key ranges).
func Pow2(e int) int64 {
	if e < 0 || e > 62 {
		panic(fmt.Sprintf("bench: Pow2(%d) out of range", e))
	}
	return int64(math.Pow(2, float64(e)))
}
