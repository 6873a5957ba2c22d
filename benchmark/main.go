// Command benchmark is the repository's one performance benchmark: four named
// workloads driven through the public skipvector API from two closed-loop
// client threads, every result checked against an oracle, fourteen end-to-end
// metrics, and a separate traced pass that attributes time to each layer.
//
//	go run ./benchmark -seed 1                 # all workloads, end-to-end pass
//	go run ./benchmark -seed 1 -trace 1        # all workloads, traced pass
//	go run ./benchmark -workload scan-local -seed 7 -seconds 12
//	go run ./benchmark -compare A.json B.json  # same / worse / better / unresolved
//
// Start it from the repository root: it reads BENCHMARK.json there. See
// README.md in this directory for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that its deferred clean-up happens.
func run() int {
	var (
		name    = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 15, "timed seconds per workload; sizes the fixed op lists")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
		out     = flag.String("out", filepath.Join(outDir, "results.json"), "results file")
		spans   = flag.String("spans", filepath.Join(outDir, "spans.csv"), "span file of the traced pass")
		compare = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()
	if err := loadManifest(manifestPath); err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files"))
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || flag.NArg() != 0 {
		fatal(fmt.Errorf("need -seconds ≥ 1 and no positional arguments"))
	}
	chosen := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		chosen = []*workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(outDir, "tmp")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	res := results{Provenance: collectProvenance(*seed, *seconds)}
	if runtime.GOMAXPROCS(0) < threads {
		// Two client threads on one processor measure the scheduler. Say so
		// and stop, so the numbers are not mistaken for comparable ones.
		res.Provenance.Status = "unschedulable"
		fmt.Printf("unschedulable: GOMAXPROCS=%d < %d client threads; no metrics reported\n",
			runtime.GOMAXPROCS(0), threads)
		writeResults(*out, &res)
		return 3
	}
	printProvenance(os.Stdout, &res.Provenance)

	var tr *tracer
	if *trace != 0 {
		tr = &tracer{}
	}
	for _, w := range chosen {
		var wr *workloadResult
		if tr != nil {
			wr, err = tracedPass(w, *seed, *seconds, tmp, tr)
		} else {
			wr, err = endToEndPass(w, *seed, *seconds, tmp)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 2
		}
		printWorkload(os.Stdout, wr)
		res.Workloads = append(res.Workloads, wr)
	}
	if tr != nil {
		if err := tr.writeCSV(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		fmt.Printf("spans: %d written to %s\n", tr.count(), *spans)
	}
	writeResults(*out, &res)
	fmt.Println(contractLine(&res, tr != nil, len(chosen) > 1))
	return 0
}

// outDir holds everything the benchmark writes: results, spans, and the
// durable workload's log directories. It is listed in .gitignore.
const outDir = ".bench_out"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func writeResults(path string, res *results) {
	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fatal(err)
	}
}

// repetitions is how many times the end-to-end pass runs a workload, each on
// fresh op lists and a fresh map; a metric is the median over them. It is a
// constant because it shapes the inputs: a list holds a repetition's share of
// -seconds, and the repetition index seeds it.
const repetitions = 5

// opsPerRep is the length of one thread's op list for one repetition, and
// repBudget the time that list was sized to take.
func opsPerRep(w *workload, seconds int) int { return w.opsPerSecond * seconds / repetitions }

func repBudget(seconds int) time.Duration {
	return time.Duration(seconds) * time.Second / repetitions
}

// endToEndPass runs the repetitions of one workload with telemetry and
// tracing off and reduces them to the end-to-end metrics.
func endToEndPass(w *workload, seed uint64, seconds int, tmp string) (*workloadResult, error) {
	n := opsPerRep(w, seconds)
	wr := newWorkloadResult(w, n, repetitions)
	var all []*rep
	for i := 0; i < repetitions; i++ {
		r, err := runRep(w, w.open, seed, i, n, repBudget(seconds), false, tmp)
		if err != nil {
			return nil, err
		}
		wr.absorb(r)
		all = append(all, r)
	}
	wr.EndToEnd, wr.ReportedOnly = endToEndMetrics(all), reportedOnly(all)
	for _, d := range endToEnd {
		if d.tier == enforced && wr.EndToEnd[d.Name] == nil {
			return nil, fmt.Errorf("%s lists %s, which this workload does not produce", manifestPath, d.Name)
		}
	}
	return wr, checkNames(wr.EndToEnd, endToEnd)
}
