package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testMetrics stands in for the lists loadManifest builds, so that the
// verdict tests do not depend on which metrics BENCHMARK.json enforces today.
var testMetrics = []metricDef{
	{"tput", "1/s", higher, 0.08, enforced},
	{"p50", "us", lower, 0.08, compared},
	{"p99", "us", lower, 0.10, compared},
	{"setup", "s", lower, 0.10, enforced},
	{"allocs", "1/op", lower, 0.02, enforced},
	{"noisy", "us", lower, 0.10, demoted},
}

func saveResults(t *testing.T, dir, file string, r results) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func resultsOf(metrics map[string]stat) results {
	wr := &workloadResult{Name: "point-uniform", OplistFNV: "00", EndToEnd: map[string]*metricResult{}}
	for name, s := range metrics {
		wr.EndToEnd[name] = &metricResult{stat: s}
	}
	return results{Provenance: provenance{Status: "ok", Seconds: 15}, Workloads: []*workloadResult{wr}}
}

// -compare calls a metric by its bound: within it same, beyond it worse or
// better by the metric's direction, unresolved when a side's own spread is
// wider than the bound, and reported-only when the metric is demoted. A zero
// that became a count is worse. Any worse makes the exit code 1.
func TestCompareVerdicts(t *testing.T) {
	endToEnd = testMetrics
	dir := t.TempDir()
	a := saveResults(t, dir, "a.json", resultsOf(map[string]stat{
		"tput":   {Median: 1000},
		"p50":    {Median: 1},
		"p99":    {Median: 4},
		"setup":  {Median: 1, Spread: 0.2},
		"allocs": {Median: 0},
		"noisy":  {Median: 1},
	}))
	b := saveResults(t, dir, "b.json", resultsOf(map[string]stat{
		"tput":   {Median: 1000 * (1 - 0.12)}, // higher is better: worse
		"p50":    {Median: 1 * (1 - 0.12)},    // lower is better: better
		"p99":    {Median: 4 * (1 + 0.05)},    // inside the bound: same
		"setup":  {Median: 5},                 // A's spread exceeds the bound
		"allocs": {Median: 3},                 // from none to some
		"noisy":  {Median: 9},                 // demoted: not judged
	}))
	var out strings.Builder
	if code := compareFiles(&out, a, b); code != 1 {
		t.Errorf("exit code %d with a worse metric, want 1\n%s", code, out.String())
	}
	for metric, verdict := range map[string]string{
		"tput": "worse", "p50": "better", "p99": "same", "setup": "unresolved", "allocs": "worse", "noisy": "reported-only",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = true
				if f[2] != verdict {
					t.Errorf("%s: verdict %s, want %s", metric, f[2], verdict)
				}
			}
		}
		if !found {
			t.Errorf("%s: no line in\n%s", metric, out.String())
		}
	}
	out.Reset()
	if code := compareFiles(&out, a, a); code != 0 {
		t.Errorf("a file against itself: exit code %d, want 0\n%s", code, out.String())
	}
}

// Two files that are not complete runs of the same lists with the same
// metrics do not compare: exit code 2, whatever their numbers.
func TestCompareRefusesUnlikeFiles(t *testing.T) {
	endToEnd = testMetrics
	dir := t.TempDir()
	base := map[string]stat{"tput": {Median: 1000}, "p50": {Median: 1}}
	a := saveResults(t, dir, "a.json", resultsOf(base))
	for name, mutate := range map[string]func(r *results){
		"lost workload":      func(r *results) { r.Workloads = nil },
		"other workload":     func(r *results) { r.Workloads[0].Name = "scan-local" },
		"lost metric":        func(r *results) { delete(r.Workloads[0].EndToEnd, "p50") },
		"truncated":          func(r *results) { r.Workloads[0].Truncated = true },
		"traced pass":        func(r *results) { r.Workloads[0].EndToEnd = nil },
		"other -seconds":     func(r *results) { r.Provenance.Seconds = 5 },
		"unschedulable host": func(r *results) { r.Provenance.Status = "unschedulable" },
	} {
		r := resultsOf(base)
		mutate(&r)
		b := saveResults(t, dir, "b.json", r)
		var out strings.Builder
		if code := compareFiles(&out, a, b); code != 2 {
			t.Errorf("%s: exit code %d, want 2\n%s", name, code, out.String())
		}
		if code := compareFiles(&out, b, a); code != 2 {
			t.Errorf("%s, files swapped: exit code %d, want 2\n%s", name, code, out.String())
		}
	}
}

// BENCHMARK.json at the repository root must describe this program and stay
// inside the driver's limits, and with the program's own table it must define
// the fourteen end-to-end metrics.
func TestManifest(t *testing.T) {
	if err := loadManifest(filepath.Join("..", manifestPath)); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of 1 to 200 characters, is %q", w.name, w.why)
		}
	}
	if len(endToEnd) != 14 {
		t.Errorf("%d end-to-end metrics defined, want 14", len(endToEnd))
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != lower || d.tier != enforced {
		t.Errorf("the driver requires setup_s in s, lower is better; first metric is %+v", d)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: bound %v, better %q", d.Name, d.Bound, d.Better)
		}
	}
	if len(perLayer) == 0 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", len(perLayer))
	}
}
