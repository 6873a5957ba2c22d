package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles prints, for every workload and end-to-end metric of two
// results files, whether B is the same as, worse than or better than A by the
// metric's bound, or unresolved when either side's spread between repetitions
// is wider than the bound. Demoted metrics are printed as reported-only and
// not judged. It returns the process exit code: 1 when any metric is worse, 2
// when the files cannot be compared, else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err == nil {
		err = comparable(a, b)
	}
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	worse := 0
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		if wa.OplistFNV != wb.OplistFNV {
			fmt.Fprintf(w, "%s: different inputs (oplist_fnv %s vs %s); verdicts compare distributions, not runs\n",
				wa.Name, wa.OplistFNV, wb.OplistFNV)
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma == nil {
				continue // not defined on this workload; comparable saw that B agrees
			}
			v := verdict(d, ma, mb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-14s %-24s %-13s A %-12.6g B %-12.6g change %+.3f  bound %.2f  spread A %.3f B %.3f\n",
				wa.Name, d.Name, v, ma.Median, mb.Median, change(d, ma.Median, mb.Median), d.Bound, ma.Spread, mb.Spread)
		}
		if wb.Failed > 0 {
			fmt.Fprintf(w, "%-14s %-24s worse         B failed %d ops\n", wa.Name, "failed_ops", wb.Failed)
			worse++
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// comparable reports why two results files cannot be compared: a verdict
// needs both to be complete end-to-end passes over lists of the same length,
// with the same workloads and the same metrics in each.
func comparable(a, b *results) error {
	pa, pb := a.Provenance, b.Provenance
	switch {
	case pa.Status != "ok" || pb.Status != "ok":
		return fmt.Errorf("runs are %s and %s; only ok runs compare", pa.Status, pb.Status)
	case pa.Seconds != pb.Seconds:
		return fmt.Errorf("-seconds %d and %d: the op lists differ in length", pa.Seconds, pb.Seconds)
	case len(a.Workloads) != len(b.Workloads):
		return fmt.Errorf("%d workloads in A, %d in B", len(a.Workloads), len(b.Workloads))
	}
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		switch {
		case wa.Name != wb.Name:
			return fmt.Errorf("workload %d is %s in A and %s in B", i, wa.Name, wb.Name)
		case wa.EndToEnd == nil || wb.EndToEnd == nil:
			return fmt.Errorf("%s: a traced pass has no end-to-end metrics", wa.Name)
		case wa.Truncated || wb.Truncated:
			return fmt.Errorf("%s: a truncated run did not finish its lists", wa.Name)
		}
		for _, d := range endToEnd {
			if (wa.EndToEnd[d.Name] == nil) != (wb.EndToEnd[d.Name] == nil) {
				return fmt.Errorf("%s: %s is in one file only", wa.Name, d.Name)
			}
		}
	}
	return nil
}

// change is the relative worsening of b against a: positive is worse. Against
// a zero, any other value is an infinite change.
func change(d metricDef, a, b float64) float64 {
	c := (b - a) / a
	switch {
	case a == b:
		return 0
	case a == 0:
		c = math.Copysign(math.Inf(1), b)
	}
	if d.Better == higher {
		return -c
	}
	return c
}

func verdict(d metricDef, a, b *metricResult) string {
	switch c := change(d, a.Median, b.Median); {
	case d.tier == demoted:
		return "reported-only"
	case a.Unsupported || b.Unsupported || a.Spread > d.Bound || b.Spread > d.Bound:
		return "unresolved"
	case c > d.Bound:
		return "worse"
	case c < -d.Bound:
		return "better"
	}
	return "same"
}

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
