// The read-path tests live outside package agent because the recorded
// callsite skips every frame of package agent; reads issued from here
// get a callsite of their own.
package agent_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"zebraconf/internal/confkit"
	"zebraconf/internal/core/agent"
)

func readRuntime() *confkit.Runtime {
	r := confkit.NewRegistry()
	r.Register(
		confkit.Param{Name: "p", Kind: confkit.Int, Default: "1"},
		confkit.Param{Name: "q", Kind: confkit.String, Default: "dflt"},
	)
	return confkit.NewRuntime(r)
}

// TestPaperReadTakesNoGoroutineID pins the default read path: the paper
// strategy maps a read by the configuration object's owner, so a repeated
// read of a seen (conf, param) must not allocate. gid.ID does (it formats a
// stack trace), so a read that walks the stack again fails here.
func TestPaperReadTakesNoGoroutineID(t *testing.T) {
	rt := readRuntime()
	ag := agent.New(agent.Options{Assign: map[agent.Key]string{
		{NodeType: agent.UnitTestEntity, NodeIndex: 0, Param: "p"}: "7",
	}})
	rt.SetHooks(ag)
	c := rt.NewConf()
	if v, _ := ag.InterceptGet(c, "p", "1", true); v != "7" {
		t.Fatalf("unit-test read of p = %q, want the assigned 7", v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ag.InterceptGet(c, "p", "1", true)
	})
	if allocs != 0 {
		t.Fatalf("paper-strategy read allocates %.1f times per call, want 0", allocs)
	}
}

var benchValue string

func BenchmarkInterceptGet(b *testing.B) {
	for _, s := range []struct {
		name     string
		strategy agent.Strategy
	}{{"paper", agent.StrategyPaper}, {"thread-only", agent.StrategyThreadOnly}} {
		b.Run(s.name, func(b *testing.B) {
			rt := readRuntime()
			ag := agent.New(agent.Options{Strategy: s.strategy})
			rt.SetHooks(ag)
			c := rt.NewConf()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchValue, _ = ag.InterceptGet(c, "p", "1", true)
			}
		})
	}
}

// readAt reads name through c and returns the callsite the agent should
// record for that read.
func readAt(c *confkit.Conf, name string) string {
	_, file, line, _ := runtime.Caller(0)
	c.Get(name)
	return fmt.Sprintf("agent/%s:%d", filepath.Base(file), line+1)
}

// TestReadTraceCapKeepsCallsitesAndCoverage drives more reads than the
// trace holds. The stored events keep their callsites, the rest are only
// counted, and the coverage sinks, which have no cap, still see every
// parameter and callsite read after the trace filled.
func TestReadTraceCapKeepsCallsitesAndCoverage(t *testing.T) {
	t.Parallel()
	const traceCap = 3
	for _, opts := range []agent.Options{
		{TraceReads: traceCap},
		{TraceReads: traceCap, Coverage: true},
		{TraceReads: traceCap, CoverageSites: true},
	} {
		rt := readRuntime()
		ag := agent.New(opts)
		rt.SetHooks(ag)
		c := rt.NewConf()
		var pSite, qSite string
		for i := 0; i < 5; i++ {
			pSite = readAt(c, "p")
		}
		for i := 0; i < 4; i++ {
			qSite = readAt(c, "q")
		}

		events, dropped := ag.ReadTrace()
		if len(events) != traceCap || dropped != 9-traceCap {
			t.Fatalf("%+v: trace holds %d events, dropped %d; want %d and %d", opts, len(events), dropped, traceCap, 9-traceCap)
		}
		for i, ev := range events {
			want := agent.ReadEvent{Entity: agent.UnitTestEntity, Param: "p", Value: "1", Found: true, Callsite: pSite}
			if ev != want {
				t.Errorf("%+v: event %d = %+v, want %+v", opts, i, ev, want)
			}
		}

		params, sites := ag.CoverageParams(), ag.CoverageSites()
		switch {
		case opts.CoverageSites:
			if fmt.Sprint(params) != "[p q]" {
				t.Errorf("%+v: coverage params = %v, want [p q]", opts, params)
			}
			want := map[string][]string{"p": {pSite}, "q": {qSite}}
			if fmt.Sprint(sites) != fmt.Sprint(want) {
				t.Errorf("%+v: coverage sites = %v, want %v", opts, sites, want)
			}
		case opts.Coverage:
			if fmt.Sprint(params) != "[p q]" || sites != nil {
				t.Errorf("%+v: coverage = %v, sites %v; want [p q] and none", opts, params, sites)
			}
		default:
			if params != nil || sites != nil {
				t.Errorf("%+v: coverage recorded without being asked: %v %v", opts, params, sites)
			}
		}
	}
}
