package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/scheduler"
)

// churn: one caller replays a committed HEFT plan under a seeded host-churn
// trace, once per registered frontier re-planner. Placement here repairs a
// running plan and every adopted re-plan is certified; decode, gather and
// RPC do almost nothing.
//
// The cost of one replay depends on how the seeded trace hits the plan, and
// varies several-fold from DAG to DAG. A run therefore makes whole passes
// over many distinct small DAGs, so its figures hang neither on a few of
// them nor on how many of them a run reaches. One pass takes about as long
// as a run: the work per pass varies less from seed to seed over 200 DAGs
// than over fewer DAGs timed several times each.
const (
	churnTasks        = 100
	churnDAGs         = 200 // distinct DAGs per run; every pass replays them all in order
	churnSites        = 4
	churnHostsPerSite = 8
	churnThreshold    = 1.5
)

// churnCCRs gives the DAGs' communication-to-computation ratios; DAG i
// takes churnCCRs[i%len(churnCCRs)].
var churnCCRs = []float64{0.5, 2}

// churnDAG is one input: the graph, its baseline plan, the fault-free
// makespan of that plan, and the churn trace generated from it.
type churnDAG struct {
	g     *afg.Graph
	table *scheduler.AllocationTable
	fair  float64
	trace scheduler.ChurnTrace
}

type churn struct {
	seed   int64
	dags   []churnDAG
	hosts  []string
	refs   []scheduler.HostRef
	model  scheduler.TimeModel
	net    *netsim.Network
	timing *timedReplanners

	// outcomes[dag][replanner] is the first outcome seen, for the
	// repeat-determinism check.
	outcomes [][]*scheduler.ChurnOutcome
}

func newChurn(seed int64) workload { return &churn{seed: seed} }

// churnGraphs generates the run's DAGs.
func churnGraphs(seed int64) []*afg.Graph {
	out := make([]*afg.Graph, churnDAGs)
	for i := range out {
		out[i] = dagen.Random(dagen.Params{
			Tasks: churnTasks, CCR: churnCCRs[i%len(churnCCRs)], Alpha: 1, OutDegree: 4, Beta: 1,
			CommBandwidth: 1e7, Seed: seed*7919 + int64(i),
		})
	}
	return out
}

func (c *churn) setup() error {
	repos, names, hosts, err := siteRepos(churnSites, churnHostsPerSite, 2000)
	if err != nil {
		return err
	}
	c.hosts = hosts
	env, net := starEnv(repos, names)
	c.net, c.model = net, truthModel(repos)
	for _, h := range hosts {
		c.refs = append(c.refs, scheduler.HostRef{Site: h[:strings.LastIndex(h, "-")], Host: h})
	}
	heft, err := scheduler.Lookup("heft")
	if err != nil {
		return err
	}
	for i, g := range churnGraphs(c.seed) {
		req := env
		req.Graph = g
		table, err := heft.Schedule(context.Background(), &req)
		if err != nil {
			return err
		}
		fair, err := scheduler.Simulate(g, table, c.model, c.net)
		if err != nil {
			return err
		}
		trace := scheduler.GenerateChurnTrace(hosts, fair, scheduler.DefaultChurnTrace, 1<<40+c.seed*7919+int64(i))
		c.dags = append(c.dags, churnDAG{g: g, table: table, fair: fair, trace: trace})
	}
	c.timing = replanWrappers()
	c.outcomes = make([][]*scheduler.ChurnOutcome, len(c.dags))
	for i := range c.outcomes {
		c.outcomes[i] = make([]*scheduler.ChurnOutcome, len(c.timing.names))
	}
	_, err = c.op(0, 0, 0, nil)
	return err
}

// op replays DAG i under its trace with re-planner r and checks that a
// repeat reproduces the first outcome exactly.
func (c *churn) op(trace int64, i, r int, tr *tracer) (*scheduler.ChurnOutcome, error) {
	d := c.dags[i]
	root := tr.begin(trace, -1, "scheduler.run_churn")
	c.timing.attach(tr, trace, root)
	out, err := scheduler.RunChurn(d.g, d.table, c.model, c.net, c.refs, d.trace, scheduler.ChurnConfig{
		OverrunThreshold: churnThreshold,
		Replanner:        c.timing.wrapped[r],
	})
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%w: DAG %d re-planner %s: %v", errCheck, i, c.timing.names[r], err)
	}
	if err := c.timing.err; err != nil {
		return nil, fmt.Errorf("%w: DAG %d re-planner %s: %v", errCheck, i, c.timing.names[r], err)
	}
	if prev := c.outcomes[i][r]; prev == nil {
		c.outcomes[i][r] = out
	} else if *prev != *out {
		return nil, fmt.Errorf("%w: DAG %d re-planner %s: outcome %+v on a repeat, %+v before", errCheck, i, c.timing.names[r], *out, *prev)
	}
	return out, nil
}

// measure makes whole passes over the DAGs, replaying each DAG with every
// re-planner in turn, so each pass is the same op list. A traced region
// traces every other pass; where it makes more than one, the passes
// between are timed untraced, for a drift-free baseline on the same
// inputs.
func (c *churn) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{latRoot: "scheduler.run_churn", added: "scheduler.certify"}
	nr := len(c.timing.names)
	var dupIssued, dupRuns int
	start := time.Now()
	var op int64
	for pass := 0; morePasses(pass, 1, time.Since(start), d); pass++ {
		opTr := tr
		if pass%2 == 1 {
			opTr = nil
		}
		times := make([]float64, 0, len(c.dags)*nr)
		for i := range c.dags {
			for r := 0; r < nr; r++ {
				t0 := time.Now()
				out, err := c.op(op, i, r, opTr)
				if err != nil {
					return nil, err
				}
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				times = append(times, ms)
				if tr != nil && opTr == nil {
					p.plainMS = append(p.plainMS, ms)
				} else {
					p.latMS = append(p.latMS, ms)
				}
				p.replanMS = append(p.replanMS, c.timing.samples...)
				p.tasks += c.dags[i].g.Len()
				if pass == 0 {
					p.passTasks += c.dags[i].g.Len()
				}
				p.attempt++
				op++
				opTr.add("scheduler.run_churn.replans", float64(out.Replans))
				opTr.add("scheduler.run_churn.moved", float64(out.Moved))
				opTr.add("scheduler.run_churn.killed", float64(out.Killed))
				opTr.add("scheduler.run_churn.dup_runs", float64(out.DupRuns))
				if c.timing.names[r] == "dup" {
					dupRuns += out.DupRuns
					dupIssued += c.timing.dupIssued
				}
			}
		}
		if tr == nil {
			p.passMS = append(p.passMS, times)
		}
	}
	p.elapsed = time.Since(start)
	if dupIssued > 0 {
		tr.set("scheduler.replan.dup.promoted_ratio", float64(dupRuns)/float64(dupIssued))
	}

	// Deterministic scores over every (DAG, re-planner) pair, computed
	// after the timed region.
	var deg, slr []float64
	for i, dg := range c.dags {
		for r := range c.timing.names {
			deg = append(deg, 100*(c.outcomes[i][r].Makespan/dg.fair-1))
		}
		lb, err := metrics.CPLowerBound(dg.g, c.hosts, metrics.CostModel(c.model))
		if err != nil {
			return nil, err
		}
		slr = append(slr, metrics.SLR(dg.fair, lb))
	}
	p.quality = map[string]float64{"degradation_pct": mean(deg), "slr_mean": mean(slr)}
	p.qualityN = map[string]int{"degradation_pct": len(deg), "slr_mean": len(slr)}
	return p, nil
}

func (c *churn) close() {}

// timedReplanners wraps every registered re-planner in one registered
// under "vdcebench.<name>" that times each Replan call and, when a tracer
// is attached, records it as a span and certifies its output a second
// time under its own span. The churn workload is serial, so the per-call
// state below is only touched by one goroutine at a time.
type timedReplanners struct {
	names   []string // inner re-planner names, sorted
	wrapped []string // registered wrapper names, same order

	tr        *tracer
	trace     int64
	parent    int32
	samples   []float64 // Replan durations of the current op, ms
	dupIssued int       // duplicates the dup re-planner issued this op
	err       error     // a certification failure seen by a wrapper
}

type timedReplanner struct {
	inner scheduler.Replanner
	owner *timedReplanners
}

func (w *timedReplanner) Name() string { return "vdcebench." + w.inner.Name() }

func (w *timedReplanner) Replan(req *scheduler.ReplanRequest) (*scheduler.Replan, error) {
	o := w.owner
	s := o.tr.begin(o.trace, o.parent, "scheduler.replan."+w.inner.Name())
	t0 := time.Now()
	rep, err := w.inner.Replan(req)
	o.samples = append(o.samples, float64(time.Since(t0).Nanoseconds())/1e6)
	o.tr.end(s)
	if err != nil {
		return rep, err
	}
	o.dupIssued += len(rep.Duplicates)
	if o.tr != nil {
		s := o.tr.begin(o.trace, o.parent, "scheduler.certify")
		_, cerr := scheduler.CertifyReplan(req.Graph, rep.Table, req.Costs, req.Net)
		o.tr.end(s)
		if cerr != nil && o.err == nil {
			o.err = cerr
		}
	}
	return rep, nil
}

// attach starts a new op: spans go to tr under the given parent, and the
// per-op tallies restart.
func (o *timedReplanners) attach(tr *tracer, trace int64, parent int32) {
	o.tr, o.trace, o.parent = tr, trace, parent
	o.samples, o.dupIssued, o.err = o.samples[:0], 0, nil
}

var (
	wrapOnce sync.Once
	wrappers *timedReplanners
)

// replanWrappers registers the wrappers once per process; the registry
// has no way to remove them.
func replanWrappers() *timedReplanners {
	wrapOnce.Do(func() {
		wrappers = &timedReplanners{}
		for _, name := range scheduler.Replanners() {
			if strings.HasPrefix(name, "vdcebench.") {
				continue
			}
			inner, err := scheduler.LookupReplanner(name)
			if err != nil {
				panic(err) // listed by the registry a line above
			}
			w := &timedReplanner{inner: inner, owner: wrappers}
			scheduler.RegisterReplanner(w)
			wrappers.names = append(wrappers.names, name)
			wrappers.wrapped = append(wrappers.wrapped, w.Name())
		}
	})
	return wrappers
}
