package scheduler

// churn.go is the seeded fault-injection harness behind the CHURN
// experiment: it replays a committed allocation table on Simulate's
// discrete-event executor (sim.go) under a scripted churn trace — hosts
// going down (killing their running tasks), coming back, and straggler
// hosts running slower than predicted — and drives the frontier
// rescheduler (resched.go) on every deviation. The scheduler side only
// ever sees predicted costs; the trace's straggle multipliers are ground
// truth it discovers through overrun detection, exactly the information
// asymmetry of the live monitoring plane.
//
// Determinism contract: for a fixed graph, table, trace, and config the
// run is bit-identical — every set iterated here goes through sorted
// slices, the only randomness is the caller's explicit trace seed, and
// every adopted re-plan is certified by CertifyReplan first.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/afg"
	"repro/internal/netsim"
)

// ChurnEvent is one scripted availability transition.
type ChurnEvent struct {
	//vdce:unit seconds
	At   float64 `json:"at"`
	Host string  `json:"host"`
	Down bool    `json:"down"`
}

// ChurnTrace scripts one fault-injection run: availability transitions in
// ascending time order plus per-host straggle multipliers (actual
// execution time = predicted × multiplier; absent hosts run true to
// prediction).
type ChurnTrace struct {
	Events   []ChurnEvent       `json:"events"`
	Straggle map[string]float64 `json:"straggle,omitempty"`
}

// ChurnTraceConfig tunes the seeded trace generator.
type ChurnTraceConfig struct {
	// FailFraction of the hosts fail once, at a uniform random time in
	// [0.1, 0.6] × horizon. At least one host never fails.
	FailFraction float64
	// RepairAfter > 0 brings each failed host back after that many
	// seconds; 0 means failures are permanent for the run.
	//vdce:unit seconds
	RepairAfter float64
	// StraggleFraction of the remaining hosts run slow by
	// StraggleFactor (> 1). Straggler and failed sets are disjoint.
	StraggleFraction float64
	StraggleFactor   float64
}

// DefaultChurnTrace is a quarter of the fleet failing permanently and
// another quarter running at half speed.
var DefaultChurnTrace = ChurnTraceConfig{
	FailFraction:     0.25,
	StraggleFraction: 0.25,
	StraggleFactor:   2.0,
}

// GenerateChurnTrace scripts a deterministic trace over the given hosts
// from an explicit seed. horizon scales the failure times and should be
// on the order of the fault-free makespan.
func GenerateChurnTrace(hosts []string, horizon float64, cfg ChurnTraceConfig, seed int64) ChurnTrace {
	names := append([]string(nil), hosts...)
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(names))

	// At least one survivor; stragglers come from the rest.
	nFail := max(0, min(len(names)-1, int(math.Round(cfg.FailFraction*float64(len(names))))))
	nSlow := min(len(names)-nFail, int(math.Round(cfg.StraggleFraction*float64(len(names)))))

	var tr ChurnTrace
	for i := 0; i < nFail; i++ {
		h := names[perm[i]]
		at := (0.1 + 0.5*rng.Float64()) * horizon
		tr.Events = append(tr.Events, ChurnEvent{At: at, Host: h, Down: true})
		if cfg.RepairAfter > 0 {
			tr.Events = append(tr.Events, ChurnEvent{At: at + cfg.RepairAfter, Host: h, Down: false})
		}
	}
	if nSlow > 0 && cfg.StraggleFactor > 1 {
		tr.Straggle = make(map[string]float64, nSlow)
		for i := nFail; i < nFail+nSlow; i++ {
			tr.Straggle[names[perm[i]]] = cfg.StraggleFactor
		}
	}
	sort.SliceStable(tr.Events, func(i, j int) bool {
		if tr.Events[i].At != tr.Events[j].At { // tie-break adjacent to the ordering
			return tr.Events[i].At < tr.Events[j].At
		}
		return tr.Events[i].Host < tr.Events[j].Host
	})
	return tr
}

// ChurnConfig tunes the deviation handling.
type ChurnConfig struct {
	// OverrunThreshold triggers an overrun deviation when a task's actual
	// running time exceeds threshold × predicted. ≤ 1 disables overrun
	// detection; the default is 1.5.
	OverrunThreshold float64
	// Replanner names the registered frontier re-planner; default "eft".
	Replanner string
	// MaxReplans caps re-planning rounds; 0 = unlimited.
	MaxReplans int
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.OverrunThreshold == 0 {
		c.OverrunThreshold = 1.5
	}
	if c.Replanner == "" {
		c.Replanner = "eft"
	}
	return c
}

// ChurnOutcome summarizes one fault-injection run.
type ChurnOutcome struct {
	//vdce:unit seconds
	Makespan        float64 `json:"makespan"`
	Replans         int     `json:"replans"`
	HostDownReplans int     `json:"host_down_replans"`
	OverrunReplans  int     `json:"overrun_replans"`
	Moved           int     `json:"moved"`    // frontier tasks re-placed across all re-plans
	DupRuns         int     `json:"dup_runs"` // duplicate copies promoted to primary
	Killed          int     `json:"killed"`   // task executions lost to host failures
}

// RunChurn replays table under the churn trace, re-planning the unstarted
// frontier through the named re-planner on every deviation. predicted is
// the scheduler-visible cost model; the trace's straggle multipliers turn
// it into ground truth. Every adopted re-plan is certified by
// CertifyReplan against the predicted model first.
//
// RunChurn is Simulate's executor (sim.go) with the trace, the overrun
// threshold and the deviation hook below attached.
func RunChurn(g *afg.Graph, table *AllocationTable, predicted TimeModel, net *netsim.Network, hosts []HostRef, trace ChurnTrace, cfg ChurnConfig) (*ChurnOutcome, error) {
	cfg = cfg.withDefaults()
	rp, err := LookupReplanner(cfg.Replanner)
	if err != nil {
		return nil, err
	}
	sc := getScratch()
	defer sc.release()
	r := &sc.exec
	if err := r.load(g, table, predicted, net, trace); err != nil {
		return nil, err
	}
	// The plan being executed starts as a copy of table: promotions write
	// to it, and each adopted re-plan replaces it.
	cur := NewAllocationTableSized(table.App, len(r.assigns))
	for _, a := range r.assigns {
		cur.Set(a)
	}
	h := &churnHook{r: r, rp: rp, cfg: cfg, cur: cur, dups: make([]Assignment, g.Len()),
		base: ReplanRequest{Graph: g, Costs: predicted, Hosts: hosts, Net: net}}
	r.threshold, r.deviate = cfg.OverrunThreshold, h.deviate
	mk, err := r.run()
	if err != nil {
		return nil, err
	}
	out := h.out // a copy: the result must not pin the hook and its scratch
	out.Makespan = mk
	return &out, nil
}

// churnHook is RunChurn's deviation handling: it counts kills, promotes
// registered duplicates, and re-plans the frontier, placing adopted
// assignments back into the executor.
type churnHook struct {
	r    *executor
	rp   Replanner
	cfg  ChurnConfig
	cur  *AllocationTable // the plan being executed, mirrored by r.assigns
	base ReplanRequest    // the environment every re-plan request shares
	dups []Assignment     // per task: registered hedge copy; Task "" = none
	out  ChurnOutcome
}

// deviate handles one deviation. After a host failure the killed tasks are
// back on the frontier, and a live registered duplicate becomes a killed
// task's new primary placement. Then the frontier is re-planned.
func (h *churnHook) deviate(kind DeviationKind, task int32) error {
	r := h.r
	ev := Deviation{Kind: kind, At: r.now}
	if kind == DeviationOverrun {
		ev.Host, ev.Task = r.assigns[task].Host, r.ix.ID(int(task))
		if r.pred[task] > 0 {
			ev.Ratio = (r.fin[task] - r.began[task]) / r.pred[task]
		}
		return h.replan(ev)
	}
	ev.Host = r.events[r.next-1].Host
	for i, ph := range r.phase {
		if ph != taskKilled {
			continue
		}
		h.out.Killed++
		if d := h.dups[i]; d.Task != "" && !r.down[r.column(d.Host)] {
			h.cur.Set(d)
			r.place(i, d)
			h.dups[i] = Assignment{}
			h.out.DupRuns++
		}
	}
	return h.replan(ev)
}

// replan re-plans the frontier and adopts the certified result. The
// request's maps are built here, only when a re-plan fires.
func (h *churnHook) replan(ev Deviation) error {
	if h.cfg.MaxReplans > 0 && h.out.Replans >= h.cfg.MaxReplans {
		return nil
	}
	r := h.r
	req := h.base
	req.Event, req.Table = ev, h.cur
	req.Done = make(map[afg.TaskID]float64, r.done)
	req.Running = make(map[afg.TaskID]float64)
	req.Down = make(map[string]bool)
	for i, ph := range r.phase {
		switch ph {
		case taskDone:
			req.Done[r.ix.ID(i)] = r.fin[i]
		case taskRunning:
			// The scheduler's view of a running task is its expected
			// finish, floored at the present — it knows an overrunning
			// task has not finished yet, not when it will.
			req.Running[r.ix.ID(i)] = math.Max(r.now, r.began[i]+r.pred[i])
		}
	}
	for _, e := range r.events[:r.next] {
		req.Down[e.Host] = e.Down // the host's latest transition
	}
	pl, err := h.rp.Replan(&req)
	if err != nil {
		// An unrepairable moment (e.g. every eligible host down) is not
		// fatal: execution continues on the stale plan and a later
		// recovery or deviation may retry.
		return nil
	}
	if _, err := CertifyReplan(req.Graph, pl.Table, req.Costs, req.Net); err != nil {
		return fmt.Errorf("churn replan (%s, %s): %w", h.cfg.Replanner, ev.Kind, err)
	}
	// Settled assignments must survive verbatim: the frontier rescheduler
	// may only move unstarted tasks.
	for i, was := range r.assigns {
		is, ok := pl.Table.Get(r.ix.ID(i))
		if r.phase[i] < taskRunning {
			r.place(i, is)
		} else if !ok || was.Host != is.Host || was.Site != is.Site {
			return fmt.Errorf("churn replan (%s): settled task %s moved from %s to %s",
				h.cfg.Replanner, r.ix.ID(i), was.Host, is.Host)
		}
	}
	h.cur = pl.Table
	h.out.Replans++
	h.out.Moved += pl.Moved
	if ev.Kind == DeviationHostDown {
		h.out.HostDownReplans++
	} else {
		h.out.OverrunReplans++
	}
	for _, d := range pl.Duplicates {
		if i := r.ix.Of(d.Task); i >= 0 && r.phase[i] < taskRunning {
			h.dups[i] = d
		}
	}
	return nil
}
