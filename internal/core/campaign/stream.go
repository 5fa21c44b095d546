package campaign

import (
	"sync"
	"time"

	"zebraconf/internal/core/harness"
	"zebraconf/internal/core/runner"
	"zebraconf/internal/core/sched"
	"zebraconf/internal/core/testgen"
	"zebraconf/internal/obs"
)

// runStreamed is the pipelined path: one policy-aware queue holds both
// pending pre-runs and ready work items, and a single pool of
// Parallelism workers drains it. A test's work item is built and pushed
// (or Submitted to the Distributor) the moment its pre-run finishes, so
// instance execution overlaps the pre-run tail; sharing one pool keeps
// total concurrency at the same bound as the barriered path, which is
// what keeps timing-sensitive verdicts stable across the two.
func (c *campaignExec) runStreamed(tests []*harness.UnitTest) (pres []testgen.PreRun, itemResults []ItemResult, localLeaks int64) {
	app, o, opts := c.app, c.o, c.opts

	// Both phase spans open up front — the phases interleave — and each
	// phase's timer stops when its last unit of work finishes.
	_, endPre := c.phase("prerun")
	span, endInstances := c.phase("instances")

	p := &pipeline{
		exec:     c,
		span:     span,
		tests:    tests,
		pres:     make([]testgen.PreRun, len(tests)),
		results:  make([]ItemResult, len(tests)),
		preLeft:  len(tests),
		itemLeft: len(tests),
		endPre:   endPre,
		q:        sched.NewQueue[streamTask](opts.SchedPolicy, o, app.Name, "stream"),
	}
	var leakBase int64
	if opts.Distributor != nil {
		opts.Distributor.Begin(span, len(tests))
	} else {
		p.onUnsafe = c.unsafeHook()
		// Abandoned-goroutine accounting: one campaign-wide delta, as in
		// the barriered path.
		leakBase = harness.AbandonedGoroutines()
	}
	for i, t := range tests {
		// A pre-run's priority is its item's profiled duration: under
		// LPT the pre-runs that unlock the longest items go first, so
		// those items enter the pipeline earliest.
		pred, _ := opts.Profile.Predict(app.Name, t.Name)
		p.q.Push(streamTask{prerun: true, idx: i}, pred)
	}
	if len(tests) == 0 {
		endPre()
		p.q.Close()
	}

	var wg sync.WaitGroup
	for w := 0; w < opts.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	wg.Wait()
	if opts.Distributor != nil {
		itemResults = opts.Distributor.Drain()
	} else {
		itemResults = p.results
		localLeaks = harness.AbandonedGoroutines() - leakBase
	}
	endInstances()
	return p.pres, itemResults, localLeaks
}

// streamTask is one unit of pipeline work: a pre-run (by test index) or
// a ready work item.
type streamTask struct {
	prerun bool
	idx    int
	item   WorkItem
}

// pipeline is the mutable state of one streamed phase-1→phase-2 run.
type pipeline struct {
	exec *campaignExec
	span obs.SpanID

	tests    []*harness.UnitTest
	pres     []testgen.PreRun
	results  []ItemResult
	onUnsafe func(inst testgen.Instance, r runner.Result)
	endPre   func()
	q        *sched.Queue[streamTask]

	mu       sync.Mutex
	preLeft  int
	itemLeft int
}

func (p *pipeline) work() {
	for {
		t, ok := p.q.Pop()
		if !ok {
			return
		}
		if t.prerun {
			p.doPreRun(t.idx)
		} else {
			p.doItem(t.item)
		}
	}
}

// doPreRun executes one pre-run and immediately builds and dispatches
// its work item: to the Distributor in dist mode, else back into the
// queue at its predicted-duration priority. The last pre-run closes the
// phase-1 timer (and, in dist mode, the queue — nothing else will be
// pushed).
func (p *pipeline) doPreRun(idx int) {
	c := p.exec
	pre, d := c.run.PreRunTimed(p.tests[idx])
	p.pres[idx] = pre
	item := WorkItem{ID: idx, Test: pre.Test, PreRun: pre, ForceParams: c.force[pre.Test]}
	item.PredSeconds, item.PredTrials = c.predict(item, d.Seconds())
	c.o.Stat().ItemQueued(item.ID, item.Test, item.PredSeconds)

	p.mu.Lock()
	p.preLeft--
	last := p.preLeft == 0
	p.mu.Unlock()
	if c.opts.Distributor != nil {
		c.opts.Distributor.Submit(item)
		if last {
			p.endPre()
			p.q.Close()
		}
		return
	}
	p.q.Push(streamTask{idx: idx, item: item}, item.PredSeconds)
	if last {
		p.endPre()
	}
}

// doItem executes one work item; the last one closes the queue and with
// it the worker pool.
func (p *pipeline) doItem(item WorkItem) {
	c := p.exec
	t0 := time.Now()
	c.o.Stat().ItemStart(item.ID)
	res := ExecuteItem(c.app, c.gen, c.run, c.opts, p.span, item, p.onUnsafe, false)
	// Same per-item run-time histogram the barriered parallelMap path
	// records (queue wait is already observed at the queue's pop), so
	// the ledger's perf summary sees item durations on either path.
	c.o.Observe(obs.MItemRunSeconds, time.Since(t0).Seconds(),
		"app", c.app.Name, "stage", "instances")
	c.observeItem(item, time.Since(t0), res.Executions)
	p.results[item.ID] = res

	p.mu.Lock()
	p.itemLeft--
	done := p.itemLeft == 0
	p.mu.Unlock()
	if done {
		p.q.Close()
	}
}
