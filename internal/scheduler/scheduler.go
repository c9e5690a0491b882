// Package scheduler implements the VDCE Application Scheduler (paper §2.2):
// level-priority list scheduling driven by per-(task, resource) performance
// prediction, with the paper's two built-in algorithms — the Host Selection
// Algorithm (Fig 5) run at every site, and the Site Scheduler Algorithm
// (Fig 4) run at the local site — plus the baseline schedulers used by the
// evaluation benchmarks.
package scheduler

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/afg"
	"repro/internal/predict"
	"repro/internal/repository"
)

// Common errors.
var (
	ErrNoEligibleHost = errors.New("scheduler: no eligible host for task")
	ErrNoSites        = errors.New("scheduler: no sites available")
)

// Assignment maps one task to its execution resources.
type Assignment struct {
	Task      afg.TaskID `json:"task"`
	Site      string     `json:"site"`
	Host      string     `json:"host"`            // primary host
	Hosts     []string   `json:"hosts,omitempty"` // all hosts for parallel tasks
	Predicted float64    `json:"predicted"`       // predicted execution seconds
}

// AllocationTable is the scheduler's output: the resource allocation table
// the Site Manager multicasts to the Group Managers involved in execution.
type AllocationTable struct {
	App     string                    `json:"app"`
	Entries map[afg.TaskID]Assignment `json:"entries"`
	order   []afg.TaskID              // assignment order, for inspection
}

// NewAllocationTable returns an empty table for the named application.
func NewAllocationTable(app string) *AllocationTable {
	return &AllocationTable{App: app, Entries: make(map[afg.TaskID]Assignment)}
}

// NewAllocationTableSized is NewAllocationTable with a capacity hint:
// callers that know the task count up front (dense placement, table
// merges) size the map and order slice once instead of growing them
// assignment by assignment.
func NewAllocationTableSized(app string, n int) *AllocationTable {
	return &AllocationTable{
		App:     app,
		Entries: make(map[afg.TaskID]Assignment, n),
		order:   make([]afg.TaskID, 0, n),
	}
}

// Set records an assignment.
//
//vdce:ignore allocflow the allocation table is the published id-keyed artifact (the JSON wire form the Site Manager multicasts); one probe plus an amortized append per placement committed
func (t *AllocationTable) Set(a Assignment) {
	if _, ok := t.Entries[a.Task]; !ok {
		t.order = append(t.order, a.Task)
	}
	t.Entries[a.Task] = a
}

// Get returns the assignment for a task.
//
//vdce:ignore allocflow id-keyed boundary read; hot consumers (Simulate) resolve the table into dense arrays once up front
func (t *AllocationTable) Get(id afg.TaskID) (Assignment, bool) {
	a, ok := t.Entries[id]
	return a, ok
}

// Order returns task ids in assignment order.
//
//vdce:ignore allocflow defensive copy, one allocation per call; callers take it once per table, not per task
func (t *AllocationTable) Order() []afg.TaskID {
	return append([]afg.TaskID(nil), t.order...)
}

// Sites returns the distinct sites used, sorted.
func (t *AllocationTable) Sites() []string {
	seen := map[string]bool{}
	for _, a := range t.Entries {
		seen[a.Site] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// PerSite extracts the "related portion of the resource allocation table"
// for one site (§2.3.1: the Site Manager multicasts it to Group Managers).
func (t *AllocationTable) PerSite(site string) []Assignment {
	var out []Assignment
	for _, id := range t.order {
		if a := t.Entries[id]; a.Site == site {
			out = append(out, a)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Host Selection Algorithm (paper Fig 5)
// ---------------------------------------------------------------------------

// Choice is a host-selection result for one task at one site.
type Choice struct {
	Site      string   `json:"site"`
	Host      string   `json:"host"`
	Hosts     []string `json:"hosts,omitempty"` // parallel-mode machine set
	Predicted float64  `json:"predicted"`
}

// HostSelector is a site-local scheduling service: given an AFG it returns,
// for every task, the best machine within the site and its predicted
// execution time. The Site Scheduler multicasts the AFG and collects these
// (local call in-process; RPC across real sites via internal/site).
type HostSelector interface {
	SiteName() string
	SelectHosts(g *afg.Graph) (map[afg.TaskID]Choice, error)
}

// LocalSelector implements the Host Selection Algorithm against a site
// repository: it retrieves task-specific parameters from the
// task-performance database, resource-specific parameters from the
// resource-performance database, and assigns each task the resource
// minimising Predict(task, R).
type LocalSelector struct {
	Site string
	Repo *repository.Repository

	// Cache optionally memoizes assembled prediction inputs per
	// (task kind, size, host) so repeated walks skip the task- and
	// resource-database lookups. The owner (site.Manager) invalidates a
	// host's entries whenever a monitor update changes its dynamic state.
	// Cached entries hold the raw recorded load; Forecast composes freely
	// with the cache because it is applied at lookup time, never stored.
	Cache *predict.Cache

	// Forecast optionally maps a host's last recorded load to the load
	// value used in predictions (workload forecasting, §2.2.1). nil uses
	// the recorded value directly. Applied per prediction, after any
	// cache lookup, so stateful forecasters always see fresh calls.
	Forecast func(host string, recorded float64) float64
}

// SiteName implements HostSelector.
func (s *LocalSelector) SiteName() string { return s.Site }

// SelectHosts implements HostSelector (the paper's Fig 5 loop) in the
// paper-faithful mode with the level rule — what a site serves to remote
// schedulers over RPC. It is selectHosts keyed by task id.
//
//vdce:ignore allocflow RPC reply form, invoked once per (site, schedule): the walk's state is host-keyed (sites hold few hosts) and the id-keyed output map is the HostSelector contract
func (s *LocalSelector) SelectHosts(g *afg.Graph) (map[afg.TaskID]Choice, error) {
	ix, err := g.Index()
	if err != nil {
		return nil, err
	}
	cs, err := s.selectHosts(ix, g, hostWalk{})
	if err != nil {
		return nil, err
	}
	out := make(map[afg.TaskID]Choice, len(cs))
	for t, c := range cs {
		out[ix.ID(t)] = c
	}
	return out, nil
}

// hostWalk is the mode the Site Scheduler runs an in-process Fig 5 walk
// in; the zero value is the paper-faithful walk with the level rule.
type hostWalk struct {
	// eft switches from queued-load bumps to an estimated host-free
	// timeline: each task takes the host(s) minimising earliest finish
	// time (free time + predicted execution), and its finish pushes those
	// hosts' free times out.
	eft bool
	// ledger, in eft mode, seeds the timeline with the cross-application
	// busy seconds other schedules have reserved. The walk only reads it.
	ledger *LoadLedger
	// prio orders the task queue; nil is the paper's level rule (ByLevel).
	prio PriorityFunc
}

// selectHosts is the Fig 5 walk over dense task indices. The task queue is
// walked in priority order and each assignment updates the walk's own view
// of its chosen host(s) — one queued-load unit in the paper-faithful mode,
// an estimated host-free time in eft mode — so a wide application does not
// dog-pile the single best machine. Because each assignment bumps its
// host, the walk order decides which tasks get the fastest machines.
func (s *LocalSelector) selectHosts(ix *afg.Index, g *afg.Graph, w hostWalk) ([]Choice, error) {
	// Generation snapshot BEFORE the repository read: a monitor update
	// landing between List() and a Store() bumps the generation past the
	// snapshot, so stale inputs are never cached as current.
	var gens map[string]uint64
	if s.Cache != nil {
		gens = s.Cache.Generations()
	}
	resources := s.Repo.Resources.List()
	queued := make(map[string]float64) // paper mode: placed tasks per host
	freeAt := make(map[string]float64) // eft mode: est host-free times
	if w.eft && w.ledger != nil {
		freeAt = w.ledger.Snapshot()
	}
	sc := getScratch()
	defer sc.release()
	if w.prio == nil {
		sc.order = rankOrderDesc(ix.Levels(), sc.order)
	} else {
		levels, err := g.Levels()
		if err != nil {
			return nil, err
		}
		ids := w.prio(g.TaskIDs(), levels)
		sc.order = grow(sc.order, len(ids))
		for k, id := range ids {
			sc.order[k] = int32(ix.Of(id))
		}
	}
	out := make([]Choice, ix.Len()) // schedule output
	// One host-name slab backs every sequential task's committed host set
	// (schedule output): one allocation per walk instead of one per task.
	slab := make([]string, ix.Len())
	buf := sc.scored
	for _, t := range sc.order {
		var choice Choice
		var finish float64
		var err error
		choice, finish, buf, slab, err = s.selectFor(ix.Task(int(t)), resources, queued, freeAt, w.eft, gens, buf, slab)
		if err != nil {
			sc.scored = buf
			return nil, fmt.Errorf("task %q at site %s: %w", ix.ID(int(t)), s.Site, err)
		}
		for _, h := range choice.Hosts {
			if w.eft {
				freeAt[h] = finish
			} else {
				queued[h]++
			}
		}
		out[t] = choice
	}
	sc.scored = buf
	return out, nil
}

// scored is one candidate of a selectFor evaluation.
type scored struct {
	host string
	pred float64 // predicted execution seconds
	key  float64 // ranking key (finish time in availability mode)
}

// selectFor evaluates Predict(task, R) for every eligible resource and
// returns the minimiser — of the prediction alone in the paper-faithful
// mode, of the earliest finish time (host free time + prediction) in eft
// mode — plus the estimated finish of the choice.
// Parallel tasks select task.Processors machines (the paper's "the host
// selection algorithm is updated to select the number of machines required
// within the site"). buf is a caller-owned scratch slice and slab a
// caller-owned host-name arena for the committed sets, both returned
// (maybe consumed or grown) for reuse across the walk: the steady-state
// sequential walk step allocates nothing at all. The task databases are
// read once for the task (profile), not once per resource.
func (s *LocalSelector) selectFor(task *afg.Task, resources []repository.ResourceRecord, queued, freeAt map[string]float64, eft bool, gens map[string]uint64, buf []scored, slab []string) (Choice, float64, []scored, []string, error) {
	cands := buf[:0]
	p := s.profile(task)
	for k := range resources {
		r := &resources[k]
		if !s.eligible(&p, r) {
			continue
		}
		host := r.Static.HostName
		//vdce:ignore allocflow queued and freeAt are host-keyed walk state (a site's hosts are few); the probes allocate nothing
		pred := s.predictOn(&p, r, queued[host], gens)
		key := pred
		if eft {
			//vdce:ignore allocflow host-keyed walk state, one probe per candidate
			key = freeAt[host] + pred
		}
		//vdce:ignore allocflow cands reuses the caller-owned scratch buf: growth amortizes across the walk and the steady state appends in place
		cands = append(cands, scored{host, pred, key})
	}
	if len(cands) == 0 {
		return Choice{}, 0, cands, slab, ErrNoEligibleHost
	}
	n := task.Processors
	if task.Mode != afg.Parallel {
		n = 1
	}
	if n > len(cands) {
		n = len(cands)
	}
	// Partial selection by (key, host): only the n winners matter, so each
	// of the n rounds swaps the minimum of the remainder into place —
	// O(n·C) against the former full insertion sort's O(C²), and n is 1
	// for every sequential task. The (key, host) pair is a strict total
	// order (host names are unique), so the selected prefix and its order
	// are identical to any comparison sort of the whole candidate list.
	for i := 0; i < n; i++ {
		m := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].key < cands[m].key || (cands[j].key == cands[m].key && cands[j].host < cands[m].host) {
				m = j
			}
		}
		cands[i], cands[m] = cands[m], cands[i]
	}
	var hosts []string
	if n == 1 && len(slab) > 0 {
		// Carve the single-host set from the caller's slab: full-capacity
		// reslice, so the committed set can never grow into its neighbour.
		hosts = slab[:1:1]
		slab = slab[1:]
	} else {
		//vdce:ignore allocflow parallel machine sets (and a drained slab) are the rare path; the set is schedule output escaping inside the Choice
		hosts = make([]string, n)
	}
	var maxPred, start float64
	for i := 0; i < n; i++ {
		hosts[i] = cands[i].host
		if cands[i].pred > maxPred {
			maxPred = cands[i].pred
		}
		//vdce:ignore allocflow host-keyed walk state, one probe per selected host
		if f := freeAt[cands[i].host]; f > start {
			start = f
		}
	}
	// Parallel-mode prediction: the slowest selected machine bounds each
	// share; an ideal row split divides the work n ways.
	pred := maxPred / float64(n)
	return Choice{Site: s.Site, Host: hosts[0], Hosts: hosts, Predicted: pred}, start + pred, cands, slab, nil
}

// taskProfile is one task's row of the (task × host) cost gather as the
// task databases see it, resolved once per row so that a cell reads the
// repository only for what is host-specific.
type taskProfile struct {
	task *afg.Task
	// base and memReq are the task's own cost and memory requirement, else
	// its record's; base is 1e-6 for a task nobody has measured (negligible
	// but positive cost).
	base   float64
	memReq int64
	// weighted: the record holds trial-run weights, so a cell asks Weight;
	// otherwise every host's weight comes from its speed factor.
	weighted bool
	// constrained: the constraints database restricts the function's
	// hosts, so a cell asks CanRun; otherwise every host may run it.
	constrained bool
}

// profile resolves task's row: one read of the task-performance database
// and one of the constraints database, neither copying a record nor
// building an error for an unknown function.
//
//vdce:ignore allocflow one name-keyed probe of each task database per task row, not per (task, host) cell; neither allocates
func (s *LocalSelector) profile(task *afg.Task) taskProfile {
	p := taskProfile{task: task, base: task.ComputeCost, memReq: task.MemReq}
	base, mem, weighted, ok := s.Repo.Tasks.Profile(task.Function)
	if ok {
		if p.base <= 0 {
			p.base = base
		}
		if p.memReq <= 0 {
			p.memReq = mem
		}
	}
	if p.base <= 0 {
		p.base = 1e-6
	}
	p.weighted = weighted
	p.constrained = s.Repo.Constraints.Constrained(task.Function)
	return p
}

// eligible applies the Fig 5 resource filters: the host is up, matches the
// task's machine-type preference, and passes the constraint database.
func (s *LocalSelector) eligible(p *taskProfile, r *repository.ResourceRecord) bool {
	if r.Dynamic.Down {
		return false
	}
	if p.task.MachineType != "" && r.Static.Arch != p.task.MachineType {
		return false
	}
	//vdce:ignore allocflow the constraint database is name-keyed by contract (the paper's cut-through checks); one probe per candidate of a constrained function, no allocation
	return !p.constrained || s.Repo.Constraints.CanRun(p.task.Function, r.Static.HostName)
}

// denseHostCosts implements denseCoster. One pass over (task × resource)
// fills a contiguous prediction slab — columns are the site's hosts
// ascending by name (the repository's List order), NaN marks ineligible
// pairs — with no per-task map or slice allocation: each task row reads
// the task databases once (profile), and a cell touches the repository
// only for a trial weight or a constraint the row says exists. Unlike
// selectHosts it models no queueing — no queued-load bumps, no free-time
// timeline — because the caller (HEFT/CPOP placement) prices contention
// itself; the Forecast hook and prediction cache apply as usual. A task no
// host can run fails the whole site.
//
//vdce:hot allocs=7
func (s *LocalSelector) denseHostCosts(ix *afg.Index) ([]string, []float64, error) {
	var gens map[string]uint64
	if s.Cache != nil {
		gens = s.Cache.Generations()
	}
	//vdce:ignore allocflow resource-list snapshot, one repository read per site walk
	resources := s.Repo.Resources.List() // sorted by host name
	hosts := make([]string, len(resources))
	for k := range resources {
		hosts[k] = resources[k].Static.HostName
	}
	v := ix.Len()
	pred := make([]float64, v*len(resources))
	for t := 0; t < v; t++ {
		p := s.profile(ix.Task(t))
		row := pred[t*len(resources) : (t+1)*len(resources)]
		eligible := 0
		for k := range resources {
			r := &resources[k]
			if !s.eligible(&p, r) {
				row[k] = math.NaN()
				continue
			}
			row[k] = s.predictOn(&p, r, 0, gens)
			eligible++
		}
		if eligible == 0 {
			//vdce:ignore allocflow cold failure path: the error aborts the whole site walk
			return nil, nil, fmt.Errorf("task %q at site %s: %w", ix.ID(t), s.Site, ErrNoEligibleHost)
		}
	}
	return hosts, pred, nil
}

// predictOn evaluates the prediction function for one task row on one
// resource; queuedLoad is the load contribution of tasks this selector
// already placed on the resource during the current selectHosts walk. gens
// is the cache generation snapshot taken at walk start (nil when caching
// is off). The cache stores raw recorded loads; Forecast is applied here,
// per call, so memoized entries never bake in a store-time forecast value.
func (s *LocalSelector) predictOn(p *taskProfile, r *repository.ResourceRecord, queuedLoad float64, gens map[string]uint64) float64 {
	var in predict.Inputs
	if s.Cache == nil {
		//vdce:ignore allocflow cache-off mode assembles per prediction by design: arithmetic over the row profile, plus one name-keyed Weight probe when the record holds trial weights; no allocation
		in = s.assembleInputs(p, r)
	} else {
		key := predict.CacheKey{
			Kind:     p.task.Function,
			Cost:     p.task.ComputeCost,
			MemReq:   p.task.MemReq,
			Resource: r.Static.HostName,
		}
		var ok bool
		//vdce:ignore allocflow the prediction cache is the amortizing boundary: a hit is one struct-keyed probe and no allocation; a miss assembles and stores once per (kind, cost, memReq, host, generation), which amortizes for tasks that share a kind and size (library apps) but not for graphs whose tasks each carry their own ComputeCost (dagen), where every cell misses and stores once
		if in, ok = s.Cache.Lookup(key); !ok {
			in = s.assembleInputs(p, r)
			s.Cache.Store(key, in, gens[key.Resource])
		}
	}
	if s.Forecast != nil {
		in.CPULoad = s.Forecast(r.Static.HostName, in.CPULoad)
	}
	in.CPULoad += queuedLoad
	return predict.Seconds(in)
}

// assembleInputs gathers the prediction parameters for one (task row,
// resource) pair — the per-pair work the prediction cache memoizes. The
// task's base time and memory come from the row profile; the weight is
// the host's trial-run weight when the record holds one, else derived from
// the host's speed factor. The queued-load and Forecast terms are
// deliberately excluded: both are per-evaluation state, applied by
// predictOn after any cache lookup.
func (s *LocalSelector) assembleInputs(p *taskProfile, r *repository.ResourceRecord) predict.Inputs {
	weight, haveWeight := 0.0, false
	if p.weighted {
		weight, haveWeight = s.Repo.Tasks.Weight(p.task.Function, r.Static.HostName)
	}
	if !haveWeight {
		weight = predict.WeightFromSpeed(r.Static.SpeedFactor)
	}
	return predict.Inputs{
		BaseTime: p.base,
		Weight:   weight,
		MemReq:   p.memReq,
		MemAvail: r.Dynamic.AvailableMemory,
		CPULoad:  r.Dynamic.Load, // raw recorded load; Forecast applies at lookup
	}
}

// ---------------------------------------------------------------------------
// Priorities
// ---------------------------------------------------------------------------

// ByLevel sorts ready task ids by descending level (the paper's priority:
// "the node with a higher level value will have a higher priority"), with
// id as the deterministic tie-break.
func ByLevel(ids []afg.TaskID, levels map[afg.TaskID]float64) []afg.TaskID {
	out := append([]afg.TaskID(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		li, lj := levels[out[i]], levels[out[j]]
		if li != lj {
			return li > lj
		}
		return out[i] < out[j]
	})
	return out
}
