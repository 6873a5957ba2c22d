package core

import (
	"fmt"
	"sort"
	"strings"
)

// CheckInvariants validates the entire structure. It must only be called in
// a quiescent state (no concurrent operations); tests call it after stress
// runs to prove the structure survived intact. The checks cover every
// structural invariant Section IV relies on:
//
//  1. per-chunk consistency (size bounds, uniqueness, sort order), with
//     word cells exactly in the data chunks of an inline map (value.go);
//  2. strict key ordering across each layer (max of a node < min of its
//     successor), which also implies layer-wide uniqueness;
//  3. every index entry ⟨K, child⟩ points to a node in the layer below
//     whose minimum key is exactly K and which is not an orphan;
//  4. the orphan flag is set exactly on the nodes with no parent entry
//     (heads and tails excepted);
//  5. every key present in layer L > 0 is present in layer L-1 (and hence
//     in the data layer);
//  6. no node is locked or frozen;
//  7. the length counter equals the number of user keys in the data layer.
func (m *Map[V]) CheckInvariants() error {
	// Collect the nodes of each layer by walking next pointers.
	layers := make([][]*node[V], m.cfg.LayerCount)
	for l := 0; l < m.cfg.LayerCount; l++ {
		for n := m.heads[l]; n != nil; n = n.next.Load() {
			if int(n.level) != l {
				return fmt.Errorf("layer %d: node has level %d", l, n.level)
			}
			layers[l] = append(layers[l], n)
		}
	}

	for l, nodes := range layers {
		prevMax := int64(0)
		havePrev := false
		for i, n := range nodes {
			w := n.lock.Current()
			if w.Locked() || w.Frozen() {
				return fmt.Errorf("layer %d node %d: lock word dirty (%v)", l, i, w)
			}
			if err := n.chunk.CheckInvariants(); err != nil {
				return fmt.Errorf("layer %d node %d: %w", l, i, err)
			}
			if words := l == 0 && m.inline; n.chunk.Words() != words {
				return fmt.Errorf("layer %d node %d: word cells %t, want %t", l, i, !words, words)
			}
			minK, hasMin := n.minKey()
			maxK, _ := n.maxKey()
			if hasMin {
				if havePrev && minK <= prevMax {
					return fmt.Errorf("layer %d node %d: min %d <= previous max %d",
						l, i, minK, prevMax)
				}
				prevMax, havePrev = maxK, true
			} else if i == 0 || i == len(nodes)-1 {
				return fmt.Errorf("layer %d: empty sentinel node", l)
			} else if !w.Orphan() {
				return fmt.Errorf("layer %d node %d: empty non-orphan node", l, i)
			}
		}
	}

	// Parent/child relationships and orphan-flag accuracy.
	for l := m.cfg.LayerCount - 1; l >= 1; l-- {
		childHasParent := make(map[*node[V]]bool)
		childKeys := keySet(layers[l-1])
		for i, n := range layers[l] {
			var badEntry error
			n.index().ForEach(func(k int64, child *node[V]) bool {
				if child == nil {
					if k == MaxKey && n == layers[l][len(layers[l])-1] {
						return true // tail sentinel entry carries no child
					}
					badEntry = fmt.Errorf("layer %d node %d: nil child for key %d", l, i, k)
					return false
				}
				childMin, ok := child.minKey()
				if !ok || childMin != k {
					badEntry = fmt.Errorf("layer %d node %d: entry %d points to child with min %d",
						l, i, k, childMin)
					return false
				}
				if child.lock.IsOrphan() {
					badEntry = fmt.Errorf("layer %d node %d: entry %d points to orphan child", l, i, k)
					return false
				}
				if int(child.level) != l-1 {
					badEntry = fmt.Errorf("layer %d node %d: entry %d child at level %d",
						l, i, k, child.level)
					return false
				}
				childHasParent[child] = true
				if k != MinKey {
					if _, present := childKeys[k]; !present {
						badEntry = fmt.Errorf("layer %d key %d missing from layer %d", l, k, l-1)
						return false
					}
				}
				return true
			})
			if badEntry != nil {
				return badEntry
			}
		}
		// Orphan flags in layer l-1 must mirror the parent map exactly.
		below := layers[l-1]
		for i, c := range below {
			isSentinel := i == 0 || i == len(below)-1
			if isSentinel {
				if c.lock.IsOrphan() {
					return fmt.Errorf("layer %d: sentinel marked orphan", l-1)
				}
				continue
			}
			if childHasParent[c] == c.lock.IsOrphan() {
				return fmt.Errorf("layer %d node %d: orphan flag %t but parent present %t",
					l-1, i, c.lock.IsOrphan(), childHasParent[c])
			}
		}
	}

	// Top-layer rule: every non-sentinel node in the topmost layer must be
	// an orphan. Remove's "k is the minimum of a non-orphan node ⇒ k exists
	// one layer up" restart rule (Listing 4 line 13) depends on it: a
	// non-orphan minimum in the top layer would make a Remove of that key
	// retry forever. Normal operation maintains the rule because top-layer
	// nodes are only ever created by capacity splits, which mark orphans.
	top := layers[m.cfg.LayerCount-1]
	for i, n := range top {
		if i == 0 || i == len(top)-1 {
			continue
		}
		if !n.lock.IsOrphan() {
			return fmt.Errorf("top layer node %d is not an orphan", i)
		}
	}

	// Length accounting.
	dataKeys := 0
	for _, n := range layers[0] {
		for _, k := range n.chunk.Keys() {
			if k != MinKey && k != MaxKey {
				dataKeys++
			}
		}
	}
	if got := m.Len(); got != dataKeys {
		return fmt.Errorf("Len() = %d but data layer holds %d keys", got, dataKeys)
	}
	return nil
}

// keySet flattens a layer's user keys into a set.
func keySet[V any](nodes []*node[V]) map[int64]struct{} {
	set := make(map[int64]struct{})
	for _, n := range nodes {
		for _, k := range n.chunk.Keys() {
			if k != MinKey && k != MaxKey {
				set[k] = struct{}{}
			}
		}
	}
	return set
}

// Keys returns all user keys in ascending order. Quiescent use only (tests
// and debugging); concurrent callers should use RangeQuery.
func (m *Map[V]) Keys() []int64 {
	var out []int64
	for n := m.heads[0]; n != nil; n = n.next.Load() {
		for _, k := range n.chunk.Keys() {
			if k != MinKey && k != MaxKey {
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dump renders the layer structure for debugging.
func (m *Map[V]) Dump() string {
	var b strings.Builder
	for l := m.cfg.LayerCount - 1; l >= 0; l-- {
		fmt.Fprintf(&b, "L%d:", l)
		for n := m.heads[l]; n != nil; n = n.next.Load() {
			keys := n.chunk.Keys()
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			flag := ""
			if n.lock.IsOrphan() {
				flag = "*"
			}
			fmt.Fprintf(&b, " [%s%v]", flag, keys)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// NodeCount returns the number of nodes per layer (for stats and tests).
func (m *Map[V]) NodeCount() []int {
	counts := make([]int, m.cfg.LayerCount)
	for l := range m.heads {
		for n := m.heads[l]; n != nil; n = n.next.Load() {
			counts[l]++
		}
	}
	return counts
}
