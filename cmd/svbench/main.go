// Command svbench regenerates the paper's microbenchmark figures (1, 4, 5,
// 7a, 7b, 8) plus the paper-shaped ablations (hazard-pointer cost, merge
// threshold, memory footprint), printing each figure as an aligned table (or
// CSV) of throughput numbers. It is report-only: nothing here passes or fails
// on a ratio. Numbers that are judged come from `go run ./benchmark`.
//
// Usage:
//
//	svbench -fig 4 -scale paper
//	svbench -fig all -scale quick -csv
//	svbench -fig 7a -scale paper -reps 6 -json fig7a.json
//
// The "paper" scale is the scaled-down reproduction documented in
// EXPERIMENTS.md; "quick" is a smoke-test setting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"skipvector/internal/bench"
	"skipvector/internal/telemetry"
)

// figures is every -fig value with its runner, in the order "all" runs them.
// The usage string, the "all" list and dispatch all read this one table.
var figures = []struct {
	name string
	run  func(bench.Scale) ([]*bench.Table, error)
}{
	{"1", func(s bench.Scale) ([]*bench.Table, error) { return []*bench.Table{bench.Fig1(s)}, nil }},
	{"4", bench.Fig4},
	{"5", bench.Fig5},
	{"7a", one(bench.Fig7a)},
	{"7b", one(bench.Fig7b)},
	{"8", bench.Fig8},
	{"hp", one(bench.AblationHazardCost)},
	{"merge", one(bench.AblationMergeThreshold)},
	{"mem", func(s bench.Scale) ([]*bench.Table, error) {
		return []*bench.Table{bench.MemoryFootprint(s.MixedRangeExps, s.Seed)}, nil
	}},
}

// one adapts a single-table figure to the runner signature.
func one(f func(bench.Scale) (*bench.Table, error)) func(bench.Scale) ([]*bench.Table, error) {
	return func(s bench.Scale) ([]*bench.Table, error) {
		t, err := f(s)
		if err != nil {
			return nil, err
		}
		return []*bench.Table{t}, nil
	}
}

// figureNames returns the -fig values in table order.
func figureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "svbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("svbench", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "all", "figure to run: "+strings.Join(figureNames(), ", ")+", all")
		scale    = fs.String("scale", "paper", "experiment scale: quick or paper")
		duration = fs.Duration("duration", 0, "override per-trial duration")
		reps     = fs.Int("reps", 0, "override repetitions per cell")
		threads  = fs.String("threads", "", "override the thread-count axis (comma-separated, e.g. 1,2,4,8)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut  = fs.String("json", "", "also write the emitted tables to this file as JSON")
		metrics  = fs.String("metrics", "", "serve Prometheus metrics on this address (e.g. :8090) while figures run; implies telemetry recording")
		metOut   = fs.String("metrics-out", "", "write a Prometheus snapshot to this file after the run; implies telemetry recording")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fig != "all" && !slices.Contains(figureNames(), *fig) {
		return fmt.Errorf("unknown figure %q", *fig)
	}

	// The structures under test are created per trial inside the figure
	// runners, so the stable scrape target is the process-global registry:
	// the seqlock spin/CAS and vectormap shift-distance instruments, which
	// accumulate across every trial in the run.
	if *metrics != "" || *metOut != "" {
		telemetry.SetEnabled(true)
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = telemetry.Global.WritePrometheus(w)
		})
		fmt.Fprintf(os.Stderr, "[serving metrics on http://%s/metrics]\n", ln.Addr())
		go func() { _ = http.Serve(ln, mux) }()
	}
	if *metOut != "" {
		defer func() {
			f, err := os.Create(*metOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "svbench: metrics-out:", err)
				return
			}
			defer f.Close()
			if err := telemetry.Global.WritePrometheus(f); err != nil {
				fmt.Fprintln(os.Stderr, "svbench: metrics-out:", err)
			}
		}()
	}

	var s bench.Scale
	switch *scale {
	case "quick":
		s = bench.QuickScale()
	case "paper":
		s = bench.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *duration > 0 {
		s.Duration = *duration
	}
	if *reps > 0 {
		s.Reps = *reps
	}
	if *threads != "" {
		ts, err := parseThreads(*threads)
		if err != nil {
			return err
		}
		s.Threads = ts
		s.YCSBThreads = ts
		if n := ts[len(ts)-1]; n > 0 {
			s.SensitivityThreads = n
		}
	}

	var emitted []*bench.Table
	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		start := time.Now()
		ts, err := f.run(s)
		if err != nil {
			return err
		}
		for _, t := range ts {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.Render())
			}
		}
		emitted = append(emitted, ts...)
		fmt.Fprintf(os.Stderr, "[fig %s done in %v]\n", f.name, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(emitted, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
}

// parseThreads parses the -threads axis override ("1,2,4,8").
func parseThreads(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -threads element %q (want positive ints, comma-separated)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -threads list")
	}
	return out, nil
}
