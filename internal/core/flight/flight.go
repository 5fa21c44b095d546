// Package flight is the offline campaign profiler: it ingests one run's
// trace spans and perf sample series, and answers "where did the time
// go?" — the campaign's critical path, how busy each worker slot was,
// the item-duration and queue-wait tails, and what each savings feature
// (cache, speculation, stealing, early stopping) actually bought.
// `zebraconf -mode profile` renders the analysis; `-mode trends`
// compares the compact per-run summaries the ledger keeps across runs.
//
// Spans are the one record of what happened when: the critical path,
// phases, worker lanes and item durations all come from the trace. The
// perf series adds the time series and the counters spans do not carry.
// Either input is optional, and the analysis degrades gracefully when
// one is absent. Nothing here touches the equivalence invariant — the
// profiler only explains time.
package flight

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"zebraconf/internal/obs"
)

// Run is one campaign's loaded observability artifacts.
type Run struct {
	Spans []obs.SpanRecord
	Perf  []obs.PerfSample
}

// Load reads a run's artifacts from disk. Any path may be empty
// (artifact absent); a named file must parse.
func Load(tracePath, perfPath string) (*Run, error) {
	r := &Run{}
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, fmt.Errorf("flight: trace: %w", err)
		}
		r.Spans, err = obs.ReadTrace(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("flight: trace %s: %w", tracePath, err)
		}
	}
	if perfPath != "" {
		f, err := os.Open(perfPath)
		if err != nil {
			return nil, fmt.Errorf("flight: perf: %w", err)
		}
		r.Perf, err = obs.ReadPerf(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("flight: perf %s: %w", perfPath, err)
		}
	}
	if len(r.Spans) == 0 && len(r.Perf) == 0 {
		return nil, fmt.Errorf("flight: no artifacts to analyze (need -trace or -perf output)")
	}
	return r, nil
}

// PathStep is one span along the critical path, time order, root first.
type PathStep struct {
	Name  string
	DurUS int64
	// SelfUS is the step's un-blamed time: its duration minus what its
	// own chained children account for (the whole duration at a leaf).
	SelfUS int64
	// Depth is the span's nesting level under the root (for indenting).
	Depth int
	// Test / Param / Item echo the span attrs a repro needs (empty or
	// zero when the span carries none).
	Test  string
	Param string
	Item  int64
	Attrs map[string]any
}

// ItemStat is one accounted work item: an in-process `test` span under
// a phase, or a dist `item` span that neither ended early nor lost a
// speculation race.
type ItemStat struct {
	Item    int64
	Test    string
	Worker  int64 // -1 in-process (no worker attribution)
	Seconds float64
	Spec    bool
}

// WorkerStat is one execution lane's utilization over the run. In dist
// mode each worker slot gets a row; in-process runs collapse to a
// single aggregate "pool" row (Slot == -1).
type WorkerStat struct {
	Slot int64
	// BusyUS is the union of this lane's item-span intervals — wall
	// time with at least one item attempt in flight, so per-worker
	// parallelism does not overcount.
	BusyUS int64
	Items  int
	Steals int
	Spec   int
	// Timeline is the lane's busy/idle occupancy bucketed over the run
	// window (values in [0,1]), ready for sparkline rendering.
	Timeline []float64
}

// Savings aggregates what each optimization contributed, from spans
// (executions saved, cache-hit totals) and the final perf sample
// (per-scope cache split, steals, speculation, trial savings).
type Savings struct {
	// CacheHits is by scope: local | shared | coalesced from the perf
	// counters, and unscoped for cache-hit spans those counters do not
	// cover (no -perf, or hits inside worker processes).
	CacheHits         map[string]int64
	SpeculationRuns   int64
	SpeculationWins   int64
	Steals            int64
	TrialsSavedEarly  int64
	TrialsReallocated int64
	ExecutionsSaved   int64
}

// Analysis is the full offline profile of one run.
type Analysis struct {
	// MakespanUS spans the earliest to latest observed timestamp across
	// all artifacts.
	MakespanUS int64
	// Phases maps phase name to its wall duration, from phase spans.
	Phases map[string]float64
	// CriticalPath walks root → leaf along the latest-finisher chain;
	// CriticalPathUS is the root step's duration.
	CriticalPath   []PathStep
	CriticalPathUS int64
	// Items is every accounted work item, slowest first.
	Items            []ItemStat
	ItemP50, ItemP95 float64
	// Workers has one row per execution lane (dist slots, or one
	// aggregate row in-process), slot order.
	Workers []WorkerStat
	// QueueWaitP95 is estimated from the final perf sample's wait
	// histograms (0 without -perf).
	QueueWaitP95 float64
	Savings      Savings
	// UtilSeries / CacheSeries / HeapSeries are the perf sampler's
	// time series, for sparklines (nil without -perf).
	UtilSeries  []float64
	CacheSeries []float64
	HeapSeries  []float64
}

// timelineBuckets is the sparkline resolution for worker occupancy.
const timelineBuckets = 60

// Analyze profiles a loaded run.
func Analyze(r *Run) *Analysis {
	a := &Analysis{Phases: map[string]float64{}}
	hits := a.analyzeSpans(r.Spans)
	a.analyzePerf(r.Perf)
	var scoped int64
	for _, n := range a.Savings.CacheHits {
		scoped += n
	}
	if hits > scoped {
		a.addCacheHits("unscoped", hits-scoped)
	}
	return a
}

func (a *Analysis) addCacheHits(scope string, n int64) {
	if n <= 0 {
		return
	}
	if a.Savings.CacheHits == nil {
		a.Savings.CacheHits = map[string]int64{}
	}
	a.Savings.CacheHits[scope] += n
}

func attrString(attrs map[string]any, key string) string {
	if v, ok := attrs[key].(string); ok {
		return v
	}
	return ""
}

func attrInt(attrs map[string]any, key string) (int64, bool) {
	switch v := attrs[key].(type) {
	case int64:
		return v, true
	case float64: // JSON round-trip decodes numbers as float64
		return int64(v), true
	}
	return 0, false
}

func attrFloat(attrs map[string]any, key string) (float64, bool) {
	switch v := attrs[key].(type) {
	case float64:
		return v, true
	case int64:
		return float64(v), true
	}
	return 0, false
}

// analyzeSpans derives everything the trace records and returns the
// number of cache-hit spans.
func (a *Analysis) analyzeSpans(spans []obs.SpanRecord) (cacheHits int64) {
	if len(spans) == 0 {
		return 0
	}
	byID := make(map[obs.SpanID]*obs.SpanRecord, len(spans))
	children := make(map[obs.SpanID][]*obs.SpanRecord)
	var minStart, maxEnd int64
	minStart = spans[0].StartUS
	for i := range spans {
		s := &spans[i]
		byID[s.Span] = s
		if s.StartUS < minStart {
			minStart = s.StartUS
		}
		if end := s.StartUS + s.DurUS; end > maxEnd {
			maxEnd = end
		}
	}
	var roots []*obs.SpanRecord
	for i := range spans {
		s := &spans[i]
		if s.Parent == obs.NoSpan || byID[s.Parent] == nil {
			// True roots and orphans (a worker fragment whose parent was
			// lost) both anchor their own subtree.
			roots = append(roots, s)
		} else {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	if span := maxEnd - minStart; span > a.MakespanUS {
		a.MakespanUS = span
	}

	// Phase durations, saved executions summed over every campaign (an
	// -app all run has one campaign span per app), and cache hits.
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "phase":
			if p := attrString(s.Attrs, "phase"); p != "" {
				a.Phases[p] += float64(s.DurUS) / 1e6
			}
		case "campaign":
			saved, _ := attrInt(s.Attrs, "executions_saved")
			a.Savings.ExecutionsSaved += saved
		case "cache-hit":
			cacheHits++
		}
	}
	a.analyzeLanes(spans, byID, minStart, maxEnd)

	// Critical path: from the latest-ending root, descend into the
	// child that finished last (what the parent was waiting on when it
	// ended), then walk backward through the siblings that gated that
	// child's start — a sibling ending at or before the start is the
	// dependency (a finished pre-run, a drained slot) the chain was
	// serialized behind. The result is the run's longest wait chain
	// through pre-runs, items, and confirmation rounds, in time order.
	var root *obs.SpanRecord
	for _, s := range roots {
		if root == nil || s.StartUS+s.DurUS > root.StartUS+root.DurUS {
			root = s
		}
	}
	if root == nil {
		return cacheHits
	}
	a.CriticalPathUS = root.DurUS
	a.walkPath(root, 0, children)
	return cacheHits
}

// walkPath appends s and its critical descendants to the path. Spans
// holding under 1% of the critical path are listed but not expanded —
// their internal chains are noise at campaign scale.
func (a *Analysis) walkPath(s *obs.SpanRecord, depth int, children map[obs.SpanID][]*obs.SpanRecord) {
	end := func(r *obs.SpanRecord) int64 { return r.StartUS + r.DurUS }
	kids := children[s.Span]
	if depth > 0 && s.DurUS*100 < a.CriticalPathUS {
		kids = nil
	}
	// Backward wait chain through the children: the latest finisher,
	// then repeatedly the latest-ending sibling that finished before the
	// current segment started.
	var segs []*obs.SpanRecord
	var cur *obs.SpanRecord
	for _, c := range kids {
		if cur == nil || end(c) > end(cur) {
			cur = c
		}
	}
	for cur != nil {
		segs = append(segs, cur)
		var pred *obs.SpanRecord
		for _, c := range kids {
			if c != cur && end(c) <= cur.StartUS && (pred == nil || end(c) > end(pred)) {
				pred = c
			}
		}
		cur = pred
	}
	// segs was collected newest-first; the path reads in time order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}

	step := PathStep{
		Name:  s.Name,
		DurUS: s.DurUS,
		Depth: depth,
		Test:  attrString(s.Attrs, "test"),
		Param: attrString(s.Attrs, "param"),
		Attrs: s.Attrs,
	}
	if id, ok := attrInt(s.Attrs, "item"); ok {
		step.Item = id
	}
	step.SelfUS = s.DurUS
	for _, seg := range segs {
		step.SelfUS -= seg.DurUS
	}
	if step.SelfUS < 0 {
		step.SelfUS = 0
	}
	a.CriticalPath = append(a.CriticalPath, step)
	for _, seg := range segs {
		a.walkPath(seg, depth+1, children)
	}
}

// interval is one busy stretch on an execution lane.
type interval struct{ start, end int64 }

// busyUnion sums the union of possibly-overlapping intervals.
func busyUnion(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curStart, curEnd := ivs[0].start, ivs[0].end
	for _, iv := range ivs[1:] {
		if iv.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = iv.start, iv.end
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	return total + curEnd - curStart
}

// occupancy buckets the fraction of each of n equal slices of
// [lo, hi) covered by at least one interval.
func occupancy(ivs []interval, lo, hi int64, n int) []float64 {
	if hi <= lo || n <= 0 {
		return nil
	}
	out := make([]float64, n)
	width := float64(hi-lo) / float64(n)
	for _, iv := range ivs {
		s, e := float64(iv.start-lo), float64(iv.end-lo)
		if e <= s {
			continue
		}
		first := int(s / width)
		last := int((e - 1e-9) / width)
		for b := first; b <= last && b < n; b++ {
			if b < 0 {
				continue
			}
			bLo, bHi := float64(b)*width, float64(b+1)*width
			olo, ohi := s, e
			if olo < bLo {
				olo = bLo
			}
			if ohi > bHi {
				ohi = bHi
			}
			if ohi > olo {
				out[b] += (ohi - olo) / width
			}
		}
	}
	for i, v := range out {
		if v > 1 {
			out[i] = 1
		}
	}
	return out
}

// analyzeLanes rebuilds each execution lane's busy intervals and the
// accounted items from the span tree. A dist lane is the interval of
// each `item` span, keyed by its parent `worker` span's slot; the
// in-process pool (lane -1) is each `test` span whose parent is a
// `phase`. Worker `test` fragments stitched under an item span match
// neither rule, so no execution is counted twice. [lo, hi] is the
// trace window the occupancy timelines cover.
func (a *Analysis) analyzeLanes(spans []obs.SpanRecord, byID map[obs.SpanID]*obs.SpanRecord, lo, hi int64) {
	lanes := map[int64]*WorkerStat{}
	ivs := map[int64][]interval{}
	for i := range spans {
		s := &spans[i]
		parent := byID[s.Parent]
		if parent == nil {
			continue
		}
		slot := int64(-1)
		switch {
		case s.Name == "item" && parent.Name == "worker":
			var ok bool
			if slot, ok = attrInt(parent.Attrs, "slot"); !ok {
				continue
			}
		case s.Name == "test" && parent.Name == "phase":
			// The in-process pool lane keeps slot -1.
		default:
			continue
		}
		w := lanes[slot]
		if w == nil {
			w = &WorkerStat{Slot: slot}
			lanes[slot] = w
		}
		ivs[slot] = append(ivs[slot], interval{s.StartUS, s.StartUS + s.DurUS})
		spec, _ := s.Attrs["spec"].(bool)
		if spec {
			w.Spec++
		}
		if stolen, _ := s.Attrs["stolen"].(bool); stolen {
			w.Steals++
		}
		// Only accounted attempts are items: a timed-out, crashed,
		// requeued or abandoned attempt carries `end`, and the losing
		// copy of a speculated item carries `duplicate`.
		if _, ended := s.Attrs["end"]; ended {
			continue
		}
		if dup, _ := s.Attrs["duplicate"].(bool); dup {
			continue
		}
		item, _ := attrInt(s.Attrs, "item")
		a.Items = append(a.Items, ItemStat{Item: item, Test: attrString(s.Attrs, "test"),
			Worker: slot, Seconds: float64(s.DurUS) / 1e6, Spec: spec})
		w.Items++
	}

	for slot, w := range lanes {
		w.BusyUS = busyUnion(append([]interval(nil), ivs[slot]...))
		w.Timeline = occupancy(ivs[slot], lo, hi, timelineBuckets)
		a.Workers = append(a.Workers, *w)
	}
	sort.Slice(a.Workers, func(i, j int) bool { return a.Workers[i].Slot < a.Workers[j].Slot })

	// Exact item-duration quantiles from the accounted item spans.
	sort.Slice(a.Items, func(i, j int) bool { return a.Items[i].Seconds > a.Items[j].Seconds })
	if n := len(a.Items); n > 0 {
		sorted := make([]float64, n)
		for i, it := range a.Items {
			sorted[i] = it.Seconds
		}
		sort.Float64s(sorted)
		a.ItemP50 = sorted[n/2]
		a.ItemP95 = sorted[min(n-1, n*95/100)]
	}
}

func (a *Analysis) analyzePerf(samples []obs.PerfSample) {
	if len(samples) == 0 {
		return
	}
	last := samples[len(samples)-1]
	if span := last.TimeUS - samples[0].TimeUS; span > a.MakespanUS {
		a.MakespanUS = span
	}
	for _, s := range samples {
		a.UtilSeries = append(a.UtilSeries, s.Utilization())
		a.CacheSeries = append(a.CacheSeries, s.CacheHitRate())
		a.HeapSeries = append(a.HeapSeries, float64(s.HeapAllocBytes))
	}
	// Queue-wait tail and the savings counters spans do not carry, from
	// the final registry snapshot.
	wait := last.Metrics.Hists[obs.MSemWaitSeconds]
	wait.Merge(last.Metrics.Hists[obs.MSchedQueueWait])
	if wait.Count > 0 {
		a.QueueWaitP95 = wait.Quantile(0.95)
	}
	c := last.Metrics.Counters
	a.addCacheHits("local", sumCounters(c, obs.MCacheHits, `scope="local"`))
	a.addCacheHits("shared", sumCounters(c, obs.MCacheHits, `scope="shared"`))
	a.addCacheHits("coalesced", sumCounters(c, obs.MCacheCoalesced))
	a.Savings.Steals = sumCounters(c, obs.MSteals)
	a.Savings.SpeculationRuns = sumCounters(c, obs.MSpeculativeRuns)
	a.Savings.SpeculationWins = sumCounters(c, obs.MSpeculationWins)
	a.Savings.TrialsSavedEarly = sumCounters(c, obs.MTrialsSaved, `kind="early-stop"`)
	a.Savings.TrialsReallocated = sumCounters(c, obs.MTrialsSaved, `kind="reallocated"`)
	if a.Savings.ExecutionsSaved == 0 {
		a.Savings.ExecutionsSaved = last.Saved
	}
}

// sumCounters totals every snapshot counter series of family name whose
// label block contains each given `k="v"` fragment.
func sumCounters(counters map[string]int64, name string, fragments ...string) int64 {
	var total int64
outer:
	for k, v := range counters {
		if k != name && !strings.HasPrefix(k, name+"{") {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(k, f) {
				continue outer
			}
		}
		total += v
	}
	return total
}
