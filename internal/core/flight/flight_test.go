package flight

import (
	"fmt"
	"strings"
	"testing"

	"zebraconf/internal/core/ledger"
	"zebraconf/internal/obs"
)

// span builds one SpanRecord for hand-built trees.
func span(id, parent obs.SpanID, name string, start, dur int64, attrs map[string]any) obs.SpanRecord {
	return obs.SpanRecord{Span: id, Parent: parent, Name: name, StartUS: start, DurUS: dur, Attrs: attrs}
}

func TestCriticalPathInProcessTree(t *testing.T) {
	// campaign(0..100) -> phase instances(5..95) -> {testA(10..40),
	// testB(20..90)} -> testB -> pool(30..85). The chain must blame
	// testB then its pool, never the earlier-finishing testA.
	spans := []obs.SpanRecord{
		// JSONL order: children end (and are written) before parents.
		span(4, 3, "pool", 30, 55, map[string]any{"test": "TestB"}),
		span(3, 2, "test", 20, 70, map[string]any{"test": "TestB", "item": float64(7)}),
		span(5, 2, "test", 10, 30, map[string]any{"test": "TestA", "item": float64(3)}),
		span(2, 1, "phase", 5, 90, map[string]any{"phase": "instances"}),
		span(1, 0, "campaign", 0, 100, map[string]any{"app": "minihdfs"}),
	}
	a := Analyze(&Run{Spans: spans})
	if a.CriticalPathUS != 100 {
		t.Errorf("CriticalPathUS = %d, want 100", a.CriticalPathUS)
	}
	var names []string
	for _, s := range a.CriticalPath {
		names = append(names, s.Name)
	}
	want := []string{"campaign", "phase", "test", "pool"}
	if strings.Join(names, ">") != strings.Join(want, ">") {
		t.Fatalf("critical path = %v, want %v", names, want)
	}
	if a.CriticalPath[2].Test != "TestB" {
		t.Errorf("critical path blamed %q, want TestB", a.CriticalPath[2].Test)
	}
	if a.CriticalPath[2].Item != 7 {
		t.Errorf("critical path item = %d, want 7", a.CriticalPath[2].Item)
	}
	// Self time: campaign 100 - phase 90 = 10.
	if a.CriticalPath[0].SelfUS != 10 {
		t.Errorf("campaign self = %d, want 10", a.CriticalPath[0].SelfUS)
	}
	// The leaf owns its whole duration.
	if a.CriticalPath[3].SelfUS != 55 {
		t.Errorf("pool self = %d, want 55", a.CriticalPath[3].SelfUS)
	}
	if a.Phases["instances"] != 9e-5 { // 90 us
		t.Errorf("phase seconds = %v, want 9e-5", a.Phases["instances"])
	}
}

func TestCriticalPathStitchedWorkerTree(t *testing.T) {
	// The workers=2 stitched shape: campaign -> phase -> distribute ->
	// {worker 0, worker 1} -> item... The slow item on worker 1 must be
	// on the path.
	spans := []obs.SpanRecord{
		span(10, 5, "item", 30, 55, map[string]any{"test": "TestSlow", "item": float64(9)}),
		span(11, 4, "item", 15, 20, map[string]any{"test": "TestFast", "item": float64(2)}),
		span(4, 3, "worker", 10, 40, map[string]any{"slot": float64(0)}),
		span(5, 3, "worker", 10, 80, map[string]any{"slot": float64(1)}),
		span(3, 2, "distribute", 8, 86, map[string]any{"workers": float64(2)}),
		span(2, 1, "phase", 5, 92, map[string]any{"phase": "instances"}),
		span(1, 0, "campaign", 0, 100, nil),
	}
	a := Analyze(&Run{Spans: spans})
	var names []string
	for _, s := range a.CriticalPath {
		names = append(names, s.Name)
	}
	want := "campaign>phase>distribute>worker>item"
	if got := strings.Join(names, ">"); got != want {
		t.Fatalf("critical path = %s, want %s", got, want)
	}
	leaf := a.CriticalPath[len(a.CriticalPath)-1]
	if leaf.Test != "TestSlow" || leaf.Item != 9 {
		t.Errorf("critical path leaf = %+v, want TestSlow item 9", leaf)
	}
}

func TestCriticalPathOrphanSpans(t *testing.T) {
	// A worker trace fragment whose parent never made it into the file:
	// the orphan anchors its own subtree, and the latest-ending root
	// wins.
	spans := []obs.SpanRecord{
		span(2, 999, "item", 50, 100, map[string]any{"test": "TestOrphan"}), // parent 999 unknown
		span(1, 0, "campaign", 0, 60, nil),
	}
	a := Analyze(&Run{Spans: spans})
	if len(a.CriticalPath) != 1 || a.CriticalPath[0].Name != "item" {
		t.Fatalf("critical path = %+v, want the later-ending orphan item", a.CriticalPath)
	}
	if a.MakespanUS != 150 {
		t.Errorf("makespan = %d, want 150", a.MakespanUS)
	}
}

// finalSample is a one-sample perf series: executions saved per the
// live status, and a registry snapshot holding the given counters.
func finalSample(saved int64, counters ...func(*obs.Registry)) []obs.PerfSample {
	reg := obs.NewRegistry()
	for _, c := range counters {
		c(reg)
	}
	return []obs.PerfSample{{TimeUS: 1, Saved: saved, Metrics: reg.Snapshot()}}
}

func counter(name string, v int64, labels ...string) func(*obs.Registry) {
	return func(r *obs.Registry) { r.Counter(name, labels...).Add(v) }
}

// distTree is the coordinator's span spine for a two-worker run:
// campaign(1) -> phase(2) -> distribute(3) -> worker slot 0 (4) and
// worker slot 1 (5). Item spans hang under the worker spans.
func distTree(items ...obs.SpanRecord) []obs.SpanRecord {
	return append(items,
		span(4, 3, "worker", 0, 190, map[string]any{"slot": float64(0)}),
		span(5, 3, "worker", 0, 190, map[string]any{"slot": float64(1)}),
		span(3, 2, "distribute", 0, 195, map[string]any{"workers": float64(2)}),
		span(2, 1, "phase", 0, 198, map[string]any{"phase": "instances"}),
		span(1, 0, "campaign", 0, 200, map[string]any{"app": "minihdfs"}),
	)
}

func TestWorkerTimelinesFromSpans(t *testing.T) {
	spans := distTree(
		span(11, 5, "item", 0, 40, map[string]any{"item": float64(2), "test": "B"}),
		span(10, 4, "item", 0, 100, map[string]any{"item": float64(1), "test": "A"}),
		span(12, 5, "item", 50, 50, map[string]any{"item": float64(3), "test": "C", "stolen": true}),
	)
	perf := finalSample(0, counter(obs.MSteals, 1, "app", "minihdfs"))
	a := Analyze(&Run{Spans: spans, Perf: perf})
	if len(a.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(a.Workers))
	}
	w0, w1 := a.Workers[0], a.Workers[1]
	if w0.Slot != 0 || w1.Slot != 1 {
		t.Fatalf("worker slots = %d,%d want 0,1", w0.Slot, w1.Slot)
	}
	if w0.BusyUS != 100 {
		t.Errorf("worker 0 busy = %d, want 100", w0.BusyUS)
	}
	// Worker 1: [0,40] + [50,100] = 90 with an idle gap.
	if w1.BusyUS != 90 {
		t.Errorf("worker 1 busy = %d, want 90", w1.BusyUS)
	}
	if w1.Steals != 1 {
		t.Errorf("worker 1 steals = %d, want 1", w1.Steals)
	}
	if w0.Items != 1 || w1.Items != 2 {
		t.Errorf("items = %d,%d want 1,2", w0.Items, w1.Items)
	}
	if len(a.Items) != 3 || a.Items[0].Seconds < a.Items[1].Seconds {
		t.Fatalf("items not sorted slowest-first: %+v", a.Items)
	}
	if a.Savings.Steals != 1 {
		t.Errorf("savings steals = %d, want 1", a.Savings.Steals)
	}
}

func TestInProcessTestSpansCollapseToPoolLane(t *testing.T) {
	spans := []obs.SpanRecord{
		span(3, 2, "test", 0, 60, map[string]any{"item": float64(1), "test": "A"}),
		span(4, 2, "test", 10, 70, map[string]any{"item": float64(2), "test": "B"}),
		span(2, 1, "phase", 0, 90, map[string]any{"phase": "instances"}),
		span(1, 0, "campaign", 0, 100, nil),
	}
	a := Analyze(&Run{Spans: spans})
	if len(a.Workers) != 1 || a.Workers[0].Slot != -1 {
		t.Fatalf("expected single pool lane, got %+v", a.Workers)
	}
	// Overlapping intervals [0,60] and [10,80] union to 80.
	if a.Workers[0].BusyUS != 80 {
		t.Errorf("pool busy = %d, want 80", a.Workers[0].BusyUS)
	}
	if a.Workers[0].Items != 2 || len(a.Items) != 2 || a.Items[0].Worker != -1 {
		t.Errorf("pool items = %d, Items = %+v, want 2 unattributed", a.Workers[0].Items, a.Items)
	}
}

// TestStitchedLanesCountOnlyAccountedAttempts is the workers=2 shape
// with everything that must not inflate the lanes: worker test
// fragments stitched under item spans, a speculative copy that lost
// (duplicate) and an attempt killed at the item timeout.
func TestStitchedLanesCountOnlyAccountedAttempts(t *testing.T) {
	spans := distTree(
		// Worker 0: item 1 accounted, item 2 timed out.
		span(20, 10, "test", 21, 38, map[string]any{"item": float64(1), "test": "A"}),
		span(10, 4, "item", 20, 40, map[string]any{"item": float64(1), "test": "A"}),
		span(11, 4, "item", 60, 100, map[string]any{"item": float64(2), "test": "B", "end": "timeout"}),
		// Worker 1: item 3 accounted, a losing speculative copy of item
		// 1, then item 2's retry, stolen from worker 0's shard.
		span(21, 12, "test", 21, 28, map[string]any{"item": float64(3), "test": "C"}),
		span(12, 5, "item", 20, 30, map[string]any{"item": float64(3), "test": "C"}),
		span(13, 5, "item", 40, 30, map[string]any{"item": float64(1), "test": "A", "spec": true, "duplicate": true}),
		span(22, 14, "test", 161, 23, map[string]any{"item": float64(2), "test": "B"}),
		span(14, 5, "item", 160, 25, map[string]any{"item": float64(2), "test": "B", "stolen": true}),
	)
	a := Analyze(&Run{Spans: spans})
	if len(a.Workers) != 2 || a.Workers[0].Slot != 0 || a.Workers[1].Slot != 1 {
		t.Fatalf("lanes = %+v, want worker 0 and 1 only (no pool lane from stitched test spans)", a.Workers)
	}
	w0, w1 := a.Workers[0], a.Workers[1]
	// Every attempt occupies its slot: [20,60] + [60,160] = 140.
	if w0.BusyUS != 140 {
		t.Errorf("worker 0 busy = %d, want 140", w0.BusyUS)
	}
	// [20,50] ∪ [40,70] = 50, plus [160,185] = 25.
	if w1.BusyUS != 75 {
		t.Errorf("worker 1 busy = %d, want 75", w1.BusyUS)
	}
	if w0.Items != 1 || w1.Items != 2 {
		t.Errorf("accounted items = %d,%d want 1,2", w0.Items, w1.Items)
	}
	if w1.Spec != 1 || w1.Steals != 1 || w0.Spec != 0 || w0.Steals != 0 {
		t.Errorf("spec/steals = w0 %d/%d, w1 %d/%d, want 0/0, 1/1", w0.Spec, w0.Steals, w1.Spec, w1.Steals)
	}
	var got []string
	for _, it := range a.Items {
		got = append(got, fmt.Sprintf("%s@%d", it.Test, it.Worker))
	}
	if want := "A@0,C@1,B@1"; strings.Join(got, ",") != want {
		t.Errorf("Items = %s, want %s (slowest first, one per accounted attempt)", strings.Join(got, ","), want)
	}
}

// TestExecutionsSavedSumsAllCampaigns: an -app all trace holds one
// campaign span per app, and the savings line must total them all, not
// keep the last app's count (which is also all the final perf sample's
// live status still holds).
func TestExecutionsSavedSumsAllCampaigns(t *testing.T) {
	spans := []obs.SpanRecord{
		span(1, 0, "campaign", 0, 100, map[string]any{"app": "minihdfs", "executions_saved": float64(5)}),
		span(2, 0, "campaign", 100, 50, map[string]any{"app": "miniyarn", "executions_saved": float64(7)}),
	}
	a := Analyze(&Run{Spans: spans, Perf: finalSample(7)})
	if a.Savings.ExecutionsSaved != 12 {
		t.Errorf("executions saved = %d, want 12 (5 + 7)", a.Savings.ExecutionsSaved)
	}
	// Without a trace the perf sample is the only source.
	if a := Analyze(&Run{Perf: finalSample(7)}); a.Savings.ExecutionsSaved != 7 {
		t.Errorf("perf-only executions saved = %d, want 7", a.Savings.ExecutionsSaved)
	}
}

func TestCacheHitsSplitByPerfScope(t *testing.T) {
	spans := []obs.SpanRecord{
		span(2, 1, "cache-hit", 10, 0, nil),
		span(3, 1, "cache-hit", 20, 0, nil),
		span(4, 1, "cache-hit", 30, 0, nil),
		span(1, 0, "campaign", 0, 100, nil),
	}
	a := Analyze(&Run{Spans: spans})
	if got := a.Savings.CacheHits; len(got) != 1 || got["unscoped"] != 3 {
		t.Errorf("trace-only cache hits = %v, want unscoped:3", got)
	}
	perf := finalSample(0,
		counter(obs.MCacheHits, 1, "app", "x", "scope", "local"),
		counter(obs.MCacheCoalesced, 1, "app", "x"))
	a = Analyze(&Run{Spans: spans, Perf: perf})
	want := map[string]int64{"local": 1, "coalesced": 1, "unscoped": 1}
	if fmt.Sprint(a.Savings.CacheHits) != fmt.Sprint(want) {
		t.Errorf("cache hits = %v, want %v", a.Savings.CacheHits, want)
	}
}

func TestBusyUnion(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},
		{[]interval{{0, 10}, {20, 30}}, 20},
		{[]interval{{20, 30}, {0, 10}, {5, 12}}, 22},
		{[]interval{{0, 10}, {2, 8}}, 10},
	}
	for i, c := range cases {
		if got := busyUnion(append([]interval(nil), c.ivs...)); got != c.want {
			t.Errorf("case %d: busyUnion = %d, want %d", i, got, c.want)
		}
	}
}

func TestSparkline(t *testing.T) {
	if s := Sparkline(nil, 1, 10); s != "" {
		t.Errorf("empty sparkline = %q", s)
	}
	s := Sparkline([]float64{0, 0.5, 1}, 1, 3)
	runes := []rune(s)
	if len(runes) != 3 {
		t.Fatalf("sparkline width = %d, want 3", len(runes))
	}
	if runes[0] != '▁' || runes[2] != '█' {
		t.Errorf("sparkline = %q, want low first / full last", s)
	}
	// Wider than data clamps to data length.
	if got := len([]rune(Sparkline([]float64{1, 1}, 1, 10))); got != 2 {
		t.Errorf("overwide sparkline has %d cols, want 2", got)
	}
}

func rec(app, digest string, makespan float64, perf *obs.PerfSummary) ledger.Record {
	return ledger.Record{
		RunID: fmt.Sprintf("r-%s-%s-%g", app, digest, makespan), App: app,
		FlagsDigest: digest, MakespanSeconds: makespan, Executions: 100, Perf: perf,
	}
}

func TestTrendsDetectsRegression(t *testing.T) {
	recs := []ledger.Record{
		rec("minihdfs", "aaaa", 10.0, nil),
		rec("minihdfs", "aaaa", 10.2, nil),
		rec("minihdfs", "aaaa", 9.8, nil),
		rec("minihdfs", "aaaa", 15.0, nil), // +50% over ~10s baseline
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	if !tr.Regressed() {
		t.Fatalf("50%% makespan regression not flagged: %+v", tr)
	}
	var found bool
	for _, f := range tr.Flags {
		if f.Metric == "makespan_seconds" && f.Regression && f.Drift > 0.4 {
			found = true
		}
	}
	if !found {
		t.Errorf("makespan flag missing: %+v", tr.Flags)
	}
}

func TestTrendsCleanOnStableRuns(t *testing.T) {
	recs := []ledger.Record{
		rec("minihdfs", "aaaa", 10.0, nil),
		rec("minihdfs", "aaaa", 10.5, nil),
		rec("minihdfs", "aaaa", 10.2, nil),
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	if tr.Regressed() || len(tr.Flags) != 0 {
		t.Fatalf("stable runs flagged: %+v", tr.Flags)
	}
	if tr.Compared != 2 {
		t.Errorf("compared = %d, want 2", tr.Compared)
	}
}

func TestTrendsExactlyAtThresholdIsClean(t *testing.T) {
	// Baseline 10.0, latest 11.5: drift is exactly 0.15 — strictly
	// greater than is required, so this is noise, not drift.
	recs := []ledger.Record{
		rec("minihdfs", "aaaa", 10.0, nil),
		rec("minihdfs", "aaaa", 11.5, nil),
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	if len(tr.Flags) != 0 {
		t.Fatalf("exactly-at-threshold drift flagged: %+v", tr.Flags)
	}
	// One hair past must flag.
	recs[1].MakespanSeconds = 11.51
	tr = Trends(recs, "minihdfs", 5, 0.15)
	if !tr.Regressed() {
		t.Fatal("drift just past threshold not flagged")
	}
}

func TestTrendsTooFewRuns(t *testing.T) {
	tr := Trends([]ledger.Record{rec("minihdfs", "aaaa", 10, nil)}, "minihdfs", 5, 0.15)
	if tr.Regressed() || tr.Note == "" {
		t.Fatalf("single run should be trivially clean with a note: %+v", tr)
	}
	tr = Trends(nil, "minihdfs", 5, 0.15)
	if tr.Regressed() || tr.Note == "" {
		t.Fatalf("empty ledger should be trivially clean with a note: %+v", tr)
	}
}

func TestTrendsMismatchedFlagsExcluded(t *testing.T) {
	// The slow prior run used different flags: it is signal about a
	// different configuration, not this one's baseline.
	recs := []ledger.Record{
		rec("minihdfs", "bbbb", 30.0, nil), // different digest — excluded
		rec("minihdfs", "aaaa", 10.0, nil),
		rec("minihdfs", "aaaa", 10.4, nil),
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	if len(tr.Flags) != 0 {
		t.Fatalf("mismatched-flags run polluted the baseline: %+v", tr.Flags)
	}
	if tr.Skipped != 1 || tr.Compared != 1 {
		t.Errorf("skipped=%d compared=%d, want 1 and 1", tr.Skipped, tr.Compared)
	}
	// All priors mismatched → nothing to trend, clean with note.
	recs = []ledger.Record{
		rec("minihdfs", "bbbb", 30.0, nil),
		rec("minihdfs", "aaaa", 10.0, nil),
	}
	tr = Trends(recs, "minihdfs", 5, 0.15)
	if tr.Note == "" || tr.Regressed() {
		t.Fatalf("all-mismatched priors should be clean with note: %+v", tr)
	}
}

func TestTrendsPerfMetrics(t *testing.T) {
	perf := func(p95, util float64) *obs.PerfSummary {
		return &obs.PerfSummary{P95ItemSeconds: p95, UtilizationPct: util}
	}
	recs := []ledger.Record{
		rec("minihdfs", "aaaa", 10.0, perf(2.0, 80)),
		rec("minihdfs", "aaaa", 10.0, perf(2.0, 80)),
		rec("minihdfs", "aaaa", 10.0, perf(3.0, 50)), // p95 +50%, util -37.5%
	}
	tr := Trends(recs, "minihdfs", 5, 0.15)
	got := map[string]TrendFlag{}
	for _, f := range tr.Flags {
		got[f.Metric] = f
	}
	if f, ok := got["p95_item_seconds"]; !ok || !f.Regression {
		t.Errorf("p95 regression missing: %+v", tr.Flags)
	}
	// Utilization DOWN is the regression direction.
	if f, ok := got["utilization_pct"]; !ok || !f.Regression || f.Drift >= 0 {
		t.Errorf("utilization regression missing or misdirected: %+v", tr.Flags)
	}
	// Records without perf data simply do not contribute perf metrics.
	recs[0].Perf = nil
	recs[1].Perf = nil
	tr = Trends(recs, "minihdfs", 5, 0.15)
	for _, f := range tr.Flags {
		if f.Metric == "p95_item_seconds" || f.Metric == "utilization_pct" {
			t.Errorf("perf metric trended without baseline perf data: %+v", f)
		}
	}
}

func TestRenderProfileSmoke(t *testing.T) {
	spans := distTree(
		span(20, 10, "cache-hit", 50, 0, nil),
		span(10, 4, "item", 0, 90, map[string]any{"item": float64(1), "test": "A"}),
	)
	perf := finalSample(0, counter(obs.MCacheHits, 1, "app", "minihdfs", "scope", "shared"))
	a := Analyze(&Run{Spans: spans, Perf: perf})
	var b strings.Builder
	RenderProfile(&b, a)
	out := b.String()
	for _, want := range []string{"Campaign profile", "Critical path", "campaign", "Worker utilization", "worker 0", "cache hits (shared)"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile report missing %q:\n%s", want, out)
		}
	}
}
