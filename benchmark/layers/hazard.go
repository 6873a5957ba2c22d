package layers

import (
	"time"

	"skipvector/internal/hazard"
)

// HazardKernel times the hazard-pointer protocol alone: publishing and
// clearing one hazard pointer per key of the stream (what a traversal does at
// every node it steps to), and retiring `retire` nodes through a handle while
// a second handle keeps slots published, so that every ScanThreshold-th Retire
// pays for a real scan. It returns ns per protect+clear and ns per retired
// node, scans included.
func HazardKernel(keys []int64, retire int) (protectClearNs, retireScanNsPerNode float64) {
	type node struct{ _ [64]byte }
	recycled := 0
	d := hazard.NewDomain[node](func(*node) { recycled++ })
	h, other := d.NewHandle(), d.NewHandle()
	nodes := make([]node, 1024)
	other.Protect(0, &nodes[0])
	other.Protect(1, &nodes[1])

	t0 := time.Now()
	for _, k := range keys {
		h.Protect(0, &nodes[k%int64(len(nodes))])
		h.Clear(0)
	}
	protectClearNs = perCall(t0, len(keys))

	garbage := make([]node, retire)
	t0 = time.Now()
	for i := range garbage {
		h.Retire(&garbage[i])
	}
	h.Flush()
	retireScanNsPerNode = perCall(t0, retire)
	kernelSink += recycled
	return protectClearNs, retireScanNsPerNode
}
