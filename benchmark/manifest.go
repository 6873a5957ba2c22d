package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// BENCHMARK.json at the repository root is the one place that names the
// workloads and says why each exists, fixes the bounds of the end-to-end
// metrics the driver enforces, and lists the per-layer metrics. The program
// reads it from the directory it is started in (the root of a checkout)
// instead of keeping a second copy; the metrics the driver's format has no
// room for are in extraMetrics below.
const manifestPath = "BENCHMARK.json"

// tier says who judges an end-to-end metric.
type tier uint8

const (
	// enforced metrics are the end_to_end list of BENCHMARK.json: defined on
	// every workload, judged by the driver and by -compare.
	enforced tier = iota
	// compared metrics exist only where their op class occurs, so the driver
	// cannot take them; -compare judges them.
	compared
	// demoted metrics could not hold their bound between runs of one commit
	// (README.md, "Noise"). They are printed with their spread and never judged.
	demoted
)

var tierNames = [...]string{"enforced", "compared", "reported-only"}

// metricDef names one metric. Bound is the share of its value by which an
// end-to-end metric may worsen before a change counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // lower or higher
	Bound  float64 `json:"bound"`
	tier   tier
}

const (
	lower  = "lower"
	higher = "higher"
)

// extraMetrics are the end-to-end metrics that are not in BENCHMARK.json,
// with the bounds the issue that specified the benchmark fixed for them.
var extraMetrics = []metricDef{
	{"throughput_ops_s", "1/s", higher, 0.08, demoted},
	{"read_p50_us", "us", lower, 0.08, demoted},
	{"read_p99_us", "us", lower, 0.10, demoted},
	{"write_p50_us", "us", lower, 0.08, demoted},
	{"write_p99_us", "us", lower, 0.10, demoted},
	{"scan_p50_us", "us", lower, 0.08, demoted},
	{"scan_p99_us", "us", lower, 0.10, demoted},
	{"batch_p50_us", "us", lower, 0.08, demoted},
	{"batch_p99_us", "us", lower, 0.10, demoted},
	{"allocs_per_op", "1/op", lower, 0.02, demoted},
	{"recover_s", "s", lower, 0.10, demoted},
	{"wal_bytes_per_user_byte", "B/B", lower, 0.02, compared},
}

var (
	endToEnd []metricDef // BENCHMARK.json's end_to_end, then extraMetrics
	perLayer []metricDef // BENCHMARK.json's per_layer
)

// loadManifest fills endToEnd, perLayer and every workload's why from
// BENCHMARK.json, and refuses a file that does not describe this program.
func loadManifest(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (start the benchmark from the repository root)", err)
	}
	var m struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) != len(workloads) {
		return fmt.Errorf("%s lists %d workloads, the program has %d", path, len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name {
			return fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, m.Workloads[i].Name, w.name)
		}
		w.why = m.Workloads[i].Why
	}
	endToEnd = append(m.EndToEnd, extraMetrics...)
	perLayer = m.PerLayer
	seen := map[string]bool{}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if seen[d.Name] {
			return fmt.Errorf("%s and the program both define %s", path, d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// checkNames reports a metric the program computed that no list defines: a
// renamed entry of BENCHMARK.json must fail the run, not vanish from it.
func checkNames[V any](computed map[string]V, defs []metricDef) error {
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
	}
	for name := range computed {
		if !listed[name] {
			return fmt.Errorf("metric %s is computed but not defined in %s", name, manifestPath)
		}
	}
	return nil
}
