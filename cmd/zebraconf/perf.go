package main

import (
	"fmt"
	"os"

	"zebraconf/internal/core/flight"
	"zebraconf/internal/core/ledger"
)

// runProfile implements -mode profile: load a finished run's
// observability artifacts (the same -trace/-perf paths the run
// was invoked with, now read instead of written) and render the offline
// profile — critical path, worker utilization, duration tails, savings
// attribution. Exit 0 on success, 2 on usage or load errors.
func runProfile(tracePath, perfPath string) int {
	if tracePath == "" && perfPath == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode profile needs at least one artifact: -trace or -perf (the files a run wrote)")
		return 2
	}
	run, err := flight.Load(tracePath, perfPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf:", err)
		return 2
	}
	flight.RenderProfile(os.Stdout, flight.Analyze(run))
	return 0
}

// runTrends implements -mode trends: compare the newest ledger record
// against its recent predecessors with matching execution-affecting
// flags and flag metrics drifting past the noise threshold. Exit 0 when
// clean (including "nothing to compare"), 1 on any regression-direction
// drift, 2 on usage errors.
func runTrends(dir, app string, runs int, threshold float64) int {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "zebraconf: -mode trends needs -ledger <dir>")
		return 2
	}
	filter := app
	if filter == "all" {
		filter = ""
	}
	recs, err := ledger.Read(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zebraconf:", err)
		return 2
	}
	t := flight.Trends(recs, filter, runs, threshold)
	flight.RenderTrends(os.Stdout, t)
	if t.Regressed() {
		return 1
	}
	return 0
}
