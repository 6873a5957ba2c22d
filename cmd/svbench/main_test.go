package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-scale", "warp"},
		{"-fig", "99"},
		{"-bogus"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunFig1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-fig", "1", "-scale", "quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigMemQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-fig", "mem", "-scale", "quick", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig7bQuickWithOverrides(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	err := run([]string{"-fig", "7b", "-scale", "quick", "-duration", "10ms", "-reps", "1"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFigureListMentionsAllFigures(t *testing.T) {
	// The usage string, the "all" list and dispatch read one table; it holds
	// exactly the nine kept figures. A kept name gets past the figure check
	// (an invalid scale stops the run before anything is timed); a retired
	// name does not, whatever the scale.
	want := []string{"1", "4", "5", "7a", "7b", "8", "hp", "merge", "mem"}
	if got := figureNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("figures = %v, want %v", got, want)
	}
	for _, name := range append(want, "all") {
		err := run([]string{"-fig", name, "-scale", "nope"})
		if err == nil || !strings.Contains(err.Error(), "unknown scale") {
			t.Errorf("fig %s: dispatcher did not reach scale validation: %v", name, err)
		}
	}
	for _, name := range []string{"finger", "batch", "snapshot", "hotpath", "fanout", "wal", "shard", "blt"} {
		err := run([]string{"-fig", name, "-scale", "nope"})
		if err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Errorf("retired fig %s: err = %v, want unknown figure", name, err)
		}
	}
}
