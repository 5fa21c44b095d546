// Command probe is the in-process half of the campaign benchmark.
//
// With -campaign it runs one traced pass of the five-app matrix through
// campaign.Run at the CLI's default options. Phase 2 runs on a timing
// Distributor that wraps campaign.ExecuteItem, so every work item gets a
// "bench.item" span (queue wait, execution time) around the spans the
// program emits itself. Spans and metrics stay in memory and are written
// to -out when the pass ends: trace.jsonl, metrics.prom, results.json.
//
// It then times single layers in isolation on inputs recorded from real
// executions: configuration reads replayed through confkit with and
// without the agent hook, gid.ID, memo.Cache.Do, diskcache.Store Get and
// Put, dist.Journal Append+Sync, stats.SeqTest.Look and coverage.Build.
// The figures go to probe.json in -out.
//
// With -registry it only writes registry.json: each application's
// seeded-unsafe and false-positive-trap parameter names, the ground truth
// the benchmark scores reports against.
//
// Usage:
//
//	probe -out dir [-seed 7] [-campaign] [-tests minihdfs=TestA,TestB]
//	probe -out dir -registry
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"zebraconf/internal/apps"
	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
	"zebraconf/internal/core/campaign"
	"zebraconf/internal/core/coverage"
	"zebraconf/internal/core/diskcache"
	"zebraconf/internal/core/dist"
	"zebraconf/internal/core/forensics"
	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/memo"
	"zebraconf/internal/core/report"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/stats"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/gid"
	"zebraconf/internal/obs"
)

// readCap bounds each captured pre-run read stream. It is far above any
// test's read count; the probe fails if a stream is still cut short.
const readCap = 1 << 22

// minProbe is how long each micro-probe repeats its operation.
const minProbe = 200 * time.Millisecond

// recordApp is the application whose campaign supplies the memo keys,
// results, item results and verdicts the micro-probes replay. It is the
// same on every workload, so those figures compare across runs.
const recordApp = "minimr"

// testSubsets maps an application to the tests a -tests flag selected.
type testSubsets map[string][]string

func (t testSubsets) String() string { return fmt.Sprint(map[string][]string(t)) }

func (t testSubsets) Set(v string) error {
	app, list, ok := strings.Cut(v, "=")
	if !ok || app == "" || list == "" {
		return fmt.Errorf("want app=Test1,Test2, got %q", v)
	}
	t[app] = strings.Split(list, ",")
	return nil
}

// probeOut is the content of probe.json.
type probeOut struct {
	MakespanS  float64            `json:"makespan_s,omitempty"`
	CampaignS  map[string]float64 `json:"campaign_s,omitempty"`
	Streams    int                `json:"streams"`
	Reads      int                `json:"reads"`
	GetNS      float64            `json:"confkit_get_ns"`
	GetBareNS  float64            `json:"confkit_get_bare_ns"`
	GidNS      float64            `json:"gid_id_ns"`
	MemoKeys   int                `json:"memo_keys"`
	MemoNS     float64            `json:"memo_lookup_ns"`
	DiskGetUS  float64            `json:"diskcache_get_us"`
	DiskPutUS  float64            `json:"diskcache_put_us"`
	JournalUS  float64            `json:"journal_append_us"`
	Tables     int                `json:"seq_tables"`
	LookNS     float64            `json:"stats_look_ns"`
	CovBuildMS float64            `json:"coverage_build_ms"`
}

func main() {
	seed := flag.Int64("seed", 7, "base seed handed to every campaign and pre-run")
	outDir := flag.String("out", "", "directory for the probe's output files (required)")
	traced := flag.Bool("campaign", false, "run the traced five-app campaign pass before the micro-probes")
	registry := flag.Bool("registry", false, "only write registry.json, the ground-truth labels")
	tests := testSubsets{}
	flag.Var(tests, "tests", "app=Test1,Test2: run only these tests of app (repeatable)")
	flag.Parse()
	if *outDir == "" {
		fmt.Fprintln(os.Stderr, "probe: -out is required")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	if *registry {
		if err := writeJSON(filepath.Join(*outDir, "registry.json"), labels()); err != nil {
			fmt.Fprintln(os.Stderr, "probe:", err)
			os.Exit(1)
		}
		return
	}
	var out probeOut
	if *traced {
		if err := tracedPass(*outDir, *seed, tests, &out); err != nil {
			fmt.Fprintln(os.Stderr, "probe: traced pass:", err)
			os.Exit(1)
		}
	}
	if err := replayProbes(*seed, tests, &out); err != nil {
		fmt.Fprintln(os.Stderr, "probe: replay:", err)
		os.Exit(1)
	}
	if err := storeProbes(*outDir, *seed, tests, &out); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	if err := writeJSON(filepath.Join(*outDir, "probe.json"), out); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// truth lists one registry's labelled parameters.
type truth struct {
	Unsafe []string `json:"unsafe"`
	FPTrap []string `json:"fp_trap"`
}

// labels reads the ground-truth labels of every application's registry.
func labels() map[string]truth {
	out := make(map[string]truth)
	for _, app := range apps.All() {
		var t truth
		for _, p := range app.Schema().Params() {
			switch p.Truth {
			case confkit.SafetyUnsafe:
				t.Unsafe = append(t.Unsafe, p.Name)
			case confkit.SafetyFalsePositive:
				t.FPTrap = append(t.FPTrap, p.Name)
			}
		}
		out[app.Name] = t
	}
	return out
}

// cliDefaults mirrors the options `zebraconf -mode run` builds from its
// default flags.
func cliDefaults(seed int64, tests []string) campaign.Options {
	return campaign.Options{
		Seed:                seed,
		Tests:               tests,
		Seq:                 stats.SeqSPRT,
		SeqMargin:           runner.DefaultSeqMargin,
		SchedPolicy:         sched.LPT,
		Stream:              true,
		Profile:             sched.NewProfile(),
		QuarantineThreshold: 3,
		EvidenceMax:         forensics.DefaultBudget,
		SelectCoverage:      true,
	}
}

// tracedPass runs the five-app matrix in-process with the tracer and
// metrics registry on, and writes both plus the campaign results.
func tracedPass(dir string, seed int64, tests testSubsets, out *probeOut) error {
	var buf bytes.Buffer
	o := obs.New()
	o.Tracer = obs.NewTracer(&buf)
	out.CampaignS = make(map[string]float64)
	var results []*campaign.Result
	start := time.Now()
	for _, app := range apps.All() {
		opts := cliDefaults(seed, tests[app.Name])
		opts.Obs = o
		runOpts := opts
		runOpts.Distributor = newTimingDist(app, opts)
		t0 := time.Now()
		results = append(results, campaign.Run(app, runOpts))
		out.CampaignS[app.Name] = time.Since(t0).Seconds()
	}
	out.MakespanS = time.Since(start).Seconds()

	if err := os.WriteFile(filepath.Join(dir, "trace.jsonl"), buf.Bytes(), 0o644); err != nil {
		return err
	}
	var prom bytes.Buffer
	if err := o.Metrics.WritePrometheus(&prom); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.prom"), prom.Bytes(), 0o644); err != nil {
		return err
	}
	var js bytes.Buffer
	if err := report.JSON(&js, results); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "results.json"), js.Bytes(), 0o644)
}

// timingDist is a campaign.Distributor that executes work items in this
// process, on the same shared generator, runner, cache and quarantine
// rule the in-process pool uses, and records a span per item.
//
// Items share one Parallelism budget with the campaign's pre-run
// workers, as they do in the CLI's in-process pipeline: the pre-runs
// still to finish hold min(slots, preLeft) of it and running items the
// rest, so the traced pass never runs more tests at once than the CLI.
type timingDist struct {
	app      *harness.App
	opts     campaign.Options
	gen      *testgen.Generator
	run      *runner.Runner
	cov      *coverage.Collector
	onUnsafe func(testgen.Instance, runner.Result)
	slots    int
	parent   obs.SpanID

	wg      sync.WaitGroup
	mu      sync.Mutex
	free    *sync.Cond // signalled when preLeft or running falls
	preLeft int
	running int
	results []campaign.ItemResult
}

func newTimingDist(app *harness.App, opts campaign.Options) *timingDist {
	gen := testgen.New(app.Schema())
	if len(opts.Params) > 0 {
		gen.SetFilter(opts.Params)
	}
	var pool *stats.BudgetPool
	if opts.Seq != stats.SeqFixed {
		pool = stats.NewBudgetPool()
	}
	cov := coverage.NewCollector()
	run := runner.New(app, runner.Options{
		Seq:       opts.Seq,
		SeqMargin: opts.SeqMargin,
		Pool:      pool,
		BaseSeed:  opts.Seed,
		Obs:       opts.Obs,
		Cache:     memo.NewCache(app.Name, opts.CacheBackend, opts.Obs),
		Evidence:  forensics.NewRecorder(app.Name, opts.EvidenceMax, opts.Obs),
		Coverage:  cov,
	})
	d := &timingDist{
		app:      app,
		opts:     opts,
		gen:      gen,
		run:      run,
		cov:      cov,
		onUnsafe: quarantineHook(gen, opts.QuarantineThreshold),
		slots:    campaign.DefaultParallelism(),
	}
	d.free = sync.NewCond(&d.mu)
	return d
}

// quarantineHook applies the frequent-failer rule the in-process pool
// applies: a parameter confirmed by threshold distinct tests is skipped
// by every later instance.
func quarantineHook(gen *testgen.Generator, threshold int) func(testgen.Instance, runner.Result) {
	var mu sync.Mutex
	confirmedBy := make(map[string]map[string]bool)
	return func(inst testgen.Instance, _ runner.Result) {
		mu.Lock()
		defer mu.Unlock()
		set := confirmedBy[inst.Param]
		if set == nil {
			set = make(map[string]bool)
			confirmedBy[inst.Param] = set
		}
		set[inst.Test] = true
		if len(set) == threshold {
			gen.Quarantine(inst.Param)
		}
	}
}

// Begin is called before the first pre-run; every Submit follows the
// end of one pre-run.
func (d *timingDist) Begin(parent obs.SpanID, items int) {
	d.parent = parent
	d.mu.Lock()
	d.preLeft = items
	d.mu.Unlock()
}

// acquire waits until a test slot is free and takes it.
func (d *timingDist) acquire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.running+min(d.slots, d.preLeft) >= d.slots {
		d.free.Wait()
	}
	d.running++
}

func (d *timingDist) release() {
	d.mu.Lock()
	d.running--
	d.mu.Unlock()
	d.free.Broadcast()
}

func (d *timingDist) Submit(item campaign.WorkItem) {
	queued := time.Now()
	d.mu.Lock()
	d.preLeft--
	d.mu.Unlock()
	d.free.Broadcast()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.acquire()
		defer d.release()
		o := d.opts.Obs
		start := time.Now()
		wait := start.Sub(queued)
		o.Observe(obs.MSchedQueueWait, wait.Seconds(), "app", d.app.Name, "stage", "bench")
		id := o.Tracer.AllocID()
		res := campaign.ExecuteItem(d.app, d.gen, d.run, d.opts, id, item, d.onUnsafe, false)
		if params, ok := d.cov.Params(item.Test); ok {
			res.Coverage = params
		}
		elapsed := time.Since(start)
		if item.PredSeconds > 0 {
			o.Observe(obs.MSchedPredRatio, elapsed.Seconds()/item.PredSeconds, "app", d.app.Name)
		}
		o.Tracer.Emit(obs.SpanRecord{
			Span:    id,
			Parent:  d.parent,
			Name:    "bench.item",
			StartUS: o.Tracer.SinceEpochUS(start),
			DurUS:   elapsed.Microseconds(),
			Attrs: map[string]any{
				"app":           d.app.Name,
				"test":          item.Test,
				"queue_wait_us": wait.Microseconds(),
			},
		})
		d.mu.Lock()
		d.results = append(d.results, res)
		d.mu.Unlock()
	}()
}

func (d *timingDist) Drain() []campaign.ItemResult {
	d.wg.Wait()
	return d.results
}

// measure repeats op until minProbe has passed and returns nanoseconds
// per operation; op returns how many operations it performed.
func measure(op func() int) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < minProbe {
		n += op()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// sink keeps measured calls from being optimised away.
var sink uint64

// stream is one pre-run's ordered configuration reads.
type stream struct {
	schema *confkit.Registry
	params []string
}

// replayProbes captures every selected test's pre-run read stream and
// replays it through a confkit.Runtime with and without the agent hook.
func replayProbes(seed int64, tests testSubsets, out *probeOut) error {
	var streams []stream
	for _, app := range apps.All() {
		names := tests[app.Name]
		if len(names) == 0 {
			names = app.TestNames()
		}
		for _, name := range names {
			test, err := app.Test(name)
			if err != nil {
				return err
			}
			res := harness.RunOnceCaptured(app, test, agent.Options{}, seed, nil,
				harness.CaptureSpec{ReadEvents: readCap})
			if res.ReadsDropped != 0 {
				return fmt.Errorf("%s/%s: %d reads beyond the %d-read cap", app.Name, name, res.ReadsDropped, readCap)
			}
			s := stream{schema: app.Schema()}
			for _, ev := range res.Reads {
				s.params = append(s.params, ev.Param)
			}
			streams = append(streams, s)
			out.Reads += len(s.params)
		}
	}
	out.Streams = len(streams)
	replay := func(hooked bool) float64 {
		return measure(func() int {
			n := 0
			for _, s := range streams {
				rt := confkit.NewRuntime(s.schema)
				if hooked {
					rt.SetHooks(agent.New(agent.Options{}))
				}
				conf := rt.NewConf()
				for _, p := range s.params {
					sink += uint64(len(conf.Get(p)))
				}
				n += len(s.params)
			}
			return n
		})
	}
	out.GetNS = replay(true)
	out.GetBareNS = replay(false)
	out.GidNS = measure(func() int {
		for i := 0; i < 1000; i++ {
			sink += gid.ID()
		}
		return 1000
	})
	return nil
}

// recorder is a memo.Backend that never hits and keeps every result put
// to it, so one campaign yields a realistic set of cache keys.
type recorder struct {
	mu   sync.Mutex
	keys []memo.Key
	res  map[memo.Key]memo.Result
}

func (r *recorder) Get(memo.Key) (memo.Result, bool) { return memo.Result{}, false }

func (r *recorder) Put(k memo.Key, res memo.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.res[k]; !ok {
		r.keys = append(r.keys, k)
		r.res[k] = res
	}
}

// storeProbes runs one untraced campaign of recordApp with a recording
// cache backend and times the cache, journal, stopping-rule and coverage
// layers on what it produced.
func storeProbes(dir string, seed int64, tests testSubsets, out *probeOut) error {
	app, err := apps.ByName(recordApp)
	if err != nil {
		return err
	}
	rec := &recorder{res: make(map[memo.Key]memo.Result)}
	var trace bytes.Buffer
	opts := cliDefaults(seed, tests[app.Name])
	opts.CacheBackend = rec
	opts.Obs = obs.New()
	opts.Obs.Tracer = obs.NewTracer(&trace)
	res := campaign.Run(app, opts)
	if len(rec.keys) == 0 || len(res.Items) == 0 {
		return fmt.Errorf("%s campaign recorded %d keys and %d items", recordApp, len(rec.keys), len(res.Items))
	}
	out.MemoKeys = len(rec.keys)

	cache := memo.NewCache(app.Name, nil, nil)
	lookups := func() int {
		for _, k := range rec.keys {
			r, _ := cache.Do(k, func() memo.Result { return rec.res[k] })
			sink += uint64(len(r.Reads))
		}
		return len(rec.keys)
	}
	lookups() // fill: every later Do is a hit
	out.MemoNS = measure(lookups)

	cacheDir := filepath.Join(dir, "diskcache-probe")
	if err := os.RemoveAll(cacheDir); err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	store, err := diskcache.Open(cacheDir, 0, nil, nil)
	if err != nil {
		return fmt.Errorf("opening disk cache: %w", err)
	}
	start := time.Now()
	for _, k := range rec.keys {
		store.Put(k, rec.res[k])
	}
	out.DiskPutUS = float64(time.Since(start).Microseconds()) / float64(len(rec.keys))
	out.DiskGetUS = measure(func() int {
		for _, k := range rec.keys {
			if r, ok := store.Get(k); ok {
				sink += uint64(len(r.Reads))
			}
		}
		return len(rec.keys)
	}) / 1e3

	jpath := filepath.Join(dir, "journal-probe.jsonl")
	defer os.Remove(jpath)
	j, err := dist.OpenJournal(jpath, 1)
	if err != nil {
		return fmt.Errorf("opening journal: %w", err)
	}
	start = time.Now()
	for i := range res.Items {
		it := &res.Items[i]
		done := dist.Record{Kind: dist.KindDone, App: app.Name, Item: it.ID, Test: it.Test, Result: it}
		if err := j.Append(done); err != nil {
			return fmt.Errorf("journal append: %w", err)
		}
		if err := j.Sync(); err != nil {
			return fmt.Errorf("journal sync: %w", err)
		}
	}
	out.JournalUS = float64(time.Since(start).Microseconds()) / float64(len(res.Items))
	if err := j.Close(); err != nil {
		return fmt.Errorf("journal close: %w", err)
	}

	tables, err := lookTables(trace.Bytes())
	if err != nil {
		return fmt.Errorf("reading the %s trace: %w", recordApp, err)
	}
	if len(tables) == 0 {
		return fmt.Errorf("%s campaign produced no confirmation looks", recordApp)
	}
	out.Tables = len(tables)
	seq := stats.NewSeqTest(stats.SeqSPRT, 0, maxLooks, homoArms)
	out.LookNS = measure(func() int {
		for _, t := range tables {
			d, _ := seq.Look(t.look, t.heteroFail, t.heteroPass, t.homoFail, t.homoPass)
			sink += uint64(d)
		}
		return len(tables)
	})

	out.CovBuildMS = measure(func() int {
		ix := coverage.Build(app.Name, seed, "", res.Coverage, app.Schema())
		sink += uint64(len(ix.Tests))
		return 1
	}) / 1e6
	return nil
}

// homoArms is the number of homogeneous arms testgen builds for every
// assignment; each round runs one heterogeneous trial and these.
const homoArms = 2

// maxLooks is the runner's default number of planned confirmation looks.
const maxLooks = 8

// lookTable is the cumulative 2x2 table one SeqTest.Look call saw.
type lookTable struct {
	look                   int
	heteroFail, heteroPass int64
	homoFail, homoPass     int64
}

// lookTables rebuilds the tables of every planned confirmation look from
// the round spans of a traced campaign: each round span carries its
// round number, whether the heterogeneous trial failed and how many
// homogeneous trials failed, and the runner looks after rounds 1 to
// maxLooks at the counts summed over rounds 0 to that one.
func lookTables(trace []byte) ([]lookTable, error) {
	type round struct {
		n            int
		heteroFailed bool
		homoFail     int64
	}
	byInstance := make(map[obs.SpanID][]round)
	dec := json.NewDecoder(bytes.NewReader(trace))
	for dec.More() {
		var s obs.SpanRecord
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		if s.Name != "round" {
			continue
		}
		n, ok1 := s.Attrs["round"].(float64)
		failed, ok2 := s.Attrs["hetero_failed"].(bool)
		homo, ok3 := s.Attrs["homo_failures"].(float64)
		if !ok1 || !ok2 || !ok3 {
			return nil, fmt.Errorf("round span %d lacks round, hetero_failed or homo_failures", s.Span)
		}
		byInstance[s.Parent] = append(byInstance[s.Parent], round{int(n), failed, int64(homo)})
	}
	ids := make([]obs.SpanID, 0, len(byInstance))
	for id := range byInstance {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var tables []lookTable
	for _, id := range ids {
		rounds := byInstance[id]
		sort.Slice(rounds, func(i, j int) bool { return rounds[i].n < rounds[j].n })
		var t lookTable
		for _, r := range rounds {
			if r.heteroFailed {
				t.heteroFail++
			} else {
				t.heteroPass++
			}
			t.homoFail += r.homoFail
			t.homoPass += homoArms - r.homoFail
			if r.n >= 1 && r.n <= maxLooks {
				t.look = r.n
				tables = append(tables, t)
			}
		}
	}
	return tables, nil
}
