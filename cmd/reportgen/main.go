// Command reportgen renders campaign JSON (written by `zebraconf -json`)
// as the Markdown tables EXPERIMENTS.md embeds, diffs run-ledger
// entries (`reportgen -diff -ledger <dir> -app <app>`), and renders the
// offline performance profile from a run's observability artifacts
// (`reportgen -profile -trace t.jsonl -perf p.jsonl`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/flight"
	"zebraconf/internal/core/ledger"
	"zebraconf/internal/core/report"
)

func main() {
	var (
		in      = flag.String("in", "campaign.json", "campaign JSON produced by zebraconf -json")
		explain = flag.Bool("explain", false, "render the verdict-forensics triage report instead of the results tables")
		param   = flag.String("param", "", "with -explain: report only this parameter")
		diff    = flag.Bool("diff", false, "diff two run-ledger records instead of rendering tables (same semantics as zebraconf -mode diff)")
		ledgerD = flag.String("ledger", "", "with -diff: the -ledger directory campaigns appended to")
		appName = flag.String("app", "", "with -diff: compare this app's two most recent runs")
		runs    = flag.String("diff-runs", "", "with -diff: two comma-separated run IDs (or unique prefixes) instead of the app's last two")
		profile = flag.Bool("profile", false, "render the offline performance profile (same renderer as zebraconf -mode profile)")
		traceIn = flag.String("trace", "", "with -profile: the run's JSONL trace file")
		perfIn  = flag.String("perf", "", "with -profile: the run's JSONL perf sample series")
	)
	flag.Parse()

	if *diff {
		os.Exit(runDiff(*ledgerD, *appName, *runs))
	}
	if *profile {
		os.Exit(runProfile(*traceIn, *perfIn))
	}

	f, err := os.Open(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	var results []*campaign.Result
	if err := json.NewDecoder(f).Decode(&results); err != nil {
		fmt.Fprintf(os.Stderr, "reportgen: decode %s: %v\n", *in, err)
		os.Exit(1)
	}
	report.SortResults(results)

	if *explain {
		// Same renderer as `zebraconf -mode explain`: the archived JSON
		// carries the evidence records, so triage works offline too.
		for _, res := range results {
			if err := report.Explain(os.Stdout, res, *param); err != nil {
				fmt.Fprintln(os.Stderr, "reportgen:", err)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Println("## Campaign results")
	fmt.Println()
	for _, res := range results {
		report.Markdown(os.Stdout, res)
	}
	s := report.Summarize(results)
	uniq, trueOnes := report.UniqueParams(results)
	fmt.Printf("**Overall:** %d reports, %d distinct parameters (%d true problems, %d false positives as scored by the registries' ground truth), %d unit-test executions.\n",
		s.Reported, uniq, trueOnes, uniq-trueOnes, s.Executed)
}

// runProfile mirrors `zebraconf -mode profile` through the shared
// flight renderer, for archived artifacts with no zebraconf build
// around. Exit 0 on success, 2 on usage or load errors.
func runProfile(tracePath, perfPath string) int {
	if tracePath == "" && perfPath == "" {
		fmt.Fprintln(os.Stderr, "reportgen: -profile needs at least one artifact: -trace or -perf")
		return 2
	}
	run, err := flight.Load(tracePath, perfPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reportgen:", err)
		return 2
	}
	flight.RenderProfile(os.Stdout, flight.Analyze(run))
	return 0
}

// runDiff mirrors `zebraconf -mode diff`: exit 0 when the reported sets
// are identical, 1 on any delta, 2 on usage errors.
func runDiff(dir, app, runs string) int {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "reportgen: -diff needs -ledger <dir>")
		return 2
	}
	if app == "" && runs == "" {
		fmt.Fprintln(os.Stderr, "reportgen: -diff compares one app's runs; pass -app (or explicit -diff-runs)")
		return 2
	}
	recs, err := ledger.Read(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reportgen:", err)
		return 2
	}
	a, b, err := ledger.PickPair(recs, app, runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reportgen:", err)
		return 2
	}
	d := ledger.Diff(a, b)
	d.Render(os.Stdout)
	if d.Clean() {
		return 0
	}
	return 1
}
