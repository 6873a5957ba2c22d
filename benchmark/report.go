package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// userBytesPerKey is what one mutation carries for the user: an 8-byte key
// and an 8-byte value.
const userBytesPerKey = 16

// metricResult is one end-to-end metric of one workload.
type metricResult struct {
	Unit string `json:"unit"`
	// Tier says who judges the metric: enforced (the driver and -compare),
	// compared (-compare only) or reported-only (nobody; see manifest.go).
	Tier string `json:"tier"`
	stat
	// Samples is the median number of timed calls per repetition behind a
	// latency percentile; 0 for metrics that are not percentiles.
	Samples int `json:"samples,omitempty"`
	// Unsupported marks a percentile with fewer than minBeyond samples beyond
	// it in some repetition; its numbers are not to be compared.
	Unsupported bool `json:"unsupported,omitempty"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	OplistFNV string `json:"oplist_fnv"`
	Reps      int    `json:"reps"`
	// OpsPerThread is the length of one thread's op list in one repetition.
	OpsPerThread int    `json:"ops_per_thread_per_rep"`
	Attempted    int    `json:"attempted"`
	Failed       int    `json:"failed"`
	Prefill      int    `json:"prefill_keys"`
	Truncated    bool   `json:"truncated,omitempty"`
	FirstError   string `json:"first_error,omitempty"`

	EndToEnd map[string]*metricResult `json:"end_to_end,omitempty"`
	// ReportedOnly holds numbers that are printed but never compared (p999).
	ReportedOnly map[string]float64 `json:"reported_only,omitempty"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`

	fnv uint64
}

type results struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newWorkloadResult(w *workload, n, reps int) *workloadResult {
	return &workloadResult{Name: w.name, Why: w.why, Reps: reps, OpsPerThread: n, fnv: fnvOffset}
}

// absorb adds one repetition's counts. Each key the end-of-rep sweep finds
// wrong counts as one failed op.
func (wr *workloadResult) absorb(r *rep) {
	wr.Attempted += r.calls
	wr.Failed += r.failed + r.sweepFailed
	wr.Prefill = r.prefill
	wr.Truncated = wr.Truncated || r.truncated
	if wr.FirstError == "" && r.firstErr != nil {
		wr.FirstError = r.firstErr.Error()
	}
	wr.fnv = (wr.fnv ^ r.fnv) * 0x100000001b3
	wr.OplistFNV = fmt.Sprintf("%016x", wr.fnv)
}

// endToEndMetrics reduces the repetitions to the median, spread and
// per-repetition values of every end-to-end metric the workload defines.
func endToEndMetrics(reps []*rep) map[string]*metricResult {
	out := map[string]*metricResult{}
	add := func(name string, f func(r *rep) float64) *metricResult {
		m := &metricResult{stat: summarize(mapReps(reps, f))}
		out[name] = m
		return m
	}
	add("setup_s", func(r *rep) float64 { return r.setupS })
	add("throughput_ops_s", func(r *rep) float64 { return float64(r.calls) / r.wallS })
	add("allocs_per_op", func(r *rep) float64 { return float64(r.mallocs) / float64(r.calls) })
	add("heap_bytes_per_key", func(r *rep) float64 { return float64(r.heapBytes) / float64(r.keys) })
	if reps[0].recovered != nil { // the map was reopened from its log
		add("recover_s", func(r *rep) float64 { return r.recoverS })
		add("wal_bytes_per_user_byte", func(r *rep) float64 {
			const series = "sv_wal_bytes_appended_total"
			return (r.after[series] - r.before[series]) / float64(userBytesPerKey*r.mutated)
		})
	}
	for c := classRead; c <= classBatch; c++ {
		if len(reps[0].lat[c]) == 0 {
			continue // the workload has no op of this class
		}
		for _, p := range []struct {
			tag string
			q   float64
		}{{"p50", 0.50}, {"p99", 0.99}} {
			supported := true
			m := add(classNames[c]+"_"+p.tag+"_us", func(r *rep) float64 {
				v, ok := percentile(r.lat[c], p.q)
				supported = supported && ok
				return float64(v) / 1e3
			})
			m.Unsupported = !supported
			m.Samples = int(summarize(mapReps(reps, func(r *rep) float64 { return float64(len(r.lat[c])) })).Median)
		}
	}
	for _, d := range endToEnd {
		if m := out[d.Name]; m != nil {
			m.Unit, m.Tier = d.Unit, tierNames[d.tier]
		}
	}
	return out
}

func mapReps(reps []*rep, f func(r *rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// reportedOnly computes the numbers that are shown but not compared: p999 per
// class, which on this host moved by a quarter between identical runs while
// p50 and p99 held (see README.md).
func reportedOnly(reps []*rep) map[string]float64 {
	out := map[string]float64{}
	for c := classRead; c <= classBatch; c++ {
		vals := mapReps(reps, func(r *rep) float64 {
			v, _ := percentile(r.lat[c], 0.999)
			return float64(v) / 1e3
		})
		if len(reps[0].lat[c]) > 0 {
			out[classNames[c]+"_p999_us"] = summarize(vals).Median
		}
	}
	return out
}

// provenance says what produced a results file: without it two files cannot
// be known to be comparable.
type provenance struct {
	Status     string `json:"status"` // "ok" or "unschedulable"
	Commit     string `json:"git_commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Threads    int    `json:"client_threads"`
}

func collectProvenance(seed uint64, seconds int) provenance {
	p := provenance{Status: "ok", Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), CPUModel: "unknown", Kernel: "unknown",
		Seed: seed, Seconds: seconds, Threads: threads}
	p.Commit = gitHead()
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

// gitHead reads the checked-out commit from .git without starting a process.
// A checkout that is not a git repository (the driver's) has no commit.
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached: HEAD holds the hash
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if hash, ok := strings.CutSuffix(line, " "+ref); ok {
				return hash
			}
		}
	}
	return "unknown"
}

func printProvenance(w io.Writer, p *provenance) {
	fmt.Fprintf(w, "commit %s  %s  NumCPU %d  GOMAXPROCS %d  cpu %q  kernel %s\n",
		p.Commit, p.GoVersion, p.NumCPU, p.GoMaxProcs, p.CPUModel, p.Kernel)
	fmt.Fprintf(w, "seed %d  seconds %d  reps %d  closed loop, %d client threads\n", p.Seed, p.Seconds, repetitions, p.Threads)
}

func printWorkload(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "\n== %s ==  oplist_fnv %s  %d ops/thread/rep × %d threads × %d reps  prefill %d keys\n",
		wr.Name, wr.OplistFNV, wr.OpsPerThread, threads, wr.Reps, wr.Prefill)
	fmt.Fprintf(w, "ops attempted %d  failed %d", wr.Attempted, wr.Failed)
	if wr.Truncated {
		fmt.Fprint(w, "  TRUNCATED: a repetition hit its deadline")
	}
	if wr.FirstError != "" {
		fmt.Fprintf(w, "  first error: %s", wr.FirstError)
	}
	fmt.Fprintln(w)
	for _, d := range endToEnd {
		m := wr.EndToEnd[d.Name]
		switch {
		case wr.EndToEnd == nil:
		case m == nil:
			fmt.Fprintf(w, "  %-24s n/a in this workload\n", d.Name)
		case m.Unsupported:
			fmt.Fprintf(w, "  %-24s unsupported: fewer than %d of %d samples beyond it\n", d.Name, minBeyond, m.Samples)
		default:
			fmt.Fprintf(w, "  %-24s %14.6g %-6s spread %.3f", d.Name, m.Median, d.Unit, m.Spread)
			if m.Samples > 0 {
				fmt.Fprintf(w, "  samples/rep %d", m.Samples)
			}
			if d.tier == demoted {
				fmt.Fprint(w, "  (reported only)")
			}
			fmt.Fprintln(w)
		}
	}
	for _, name := range sortedKeys(wr.ReportedOnly) {
		fmt.Fprintf(w, "  %-24s %14.6g us     (reported only)\n", name, wr.ReportedOnly[name])
	}
	for _, d := range perLayer {
		if v, ok := wr.PerLayer[d.Name]; ok {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contractLine renders the one-line JSON object the driver reads: the
// enforced end-to-end metrics of an end-to-end pass, or every per-layer
// metric of a traced pass. With several workloads in one run each metric name
// is prefixed by its workload.
func contractLine(res *results, traced, prefix bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, wr := range res.Workloads {
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		line.Correct = line.Correct && wr.Failed == 0 && !wr.Truncated
		name := func(m string) string {
			if prefix {
				return wr.Name + "/" + m
			}
			return m
		}
		if traced {
			for _, d := range perLayer {
				line.Metrics[name(d.Name)] = value{wr.PerLayer[d.Name], d.Unit}
			}
			continue
		}
		for _, d := range endToEnd {
			if d.tier != enforced {
				continue
			}
			m := wr.EndToEnd[d.Name]
			line.Correct = line.Correct && m != nil && !m.Unsupported
			if m != nil {
				line.Metrics[name(d.Name)] = value{m.Median, d.Unit}
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	return string(b)
}
