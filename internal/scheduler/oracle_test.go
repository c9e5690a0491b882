package scheduler

// The pre-dense, map-keyed scheduling paths, retained verbatim (renamed)
// as test oracles: the dense-index rewrite of HEFT/CPOP/EFT/ledger must
// produce byte-identical allocation tables against these. Only mechanical
// renames and the removal of the worker fan-out (the oracle gathers
// serially; the merge order was deterministic either way) differ from the
// original implementations.

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/afg"
	"repro/internal/netsim"
	"repro/internal/predict"
	"repro/internal/repository"
)

// oracleHostCosts is the map-keyed per-host cost gather the production
// path replaced with LocalSelector.denseHostCosts: for every task, the pure
// predicted execution seconds on every eligible host at the site, sorted
// by host name. It prices each cell with the per-cell repository reads
// below, not with the production row profile.
func oracleHostCosts(s *LocalSelector, g *afg.Graph) (map[afg.TaskID][]Choice, error) {
	var gens map[string]uint64
	if s.Cache != nil {
		gens = s.Cache.Generations()
	}
	resources := s.Repo.Resources.List()
	out := make(map[afg.TaskID][]Choice, g.Len())
	for _, id := range g.TaskIDs() {
		task := g.Task(id)
		var choices []Choice
		for _, r := range resources {
			if !oracleEligible(s, task, r) {
				continue
			}
			choices = append(choices, Choice{
				Site:      s.Site,
				Host:      r.Static.HostName,
				Predicted: oraclePredictOn(s, task, r, 0, gens),
			})
		}
		if len(choices) == 0 {
			return nil, fmt.Errorf("task %q at site %s: %w", id, s.Site, ErrNoEligibleHost)
		}
		sort.Slice(choices, func(i, j int) bool { return choices[i].Host < choices[j].Host })
		out[id] = choices
	}
	return out, nil
}

// oracleEligible is the per-cell form of the Fig 5 resource filters: the
// host is up, matches the machine-type preference, and CanRun accepts it.
func oracleEligible(s *LocalSelector, task *afg.Task, r repository.ResourceRecord) bool {
	if r.Dynamic.Down {
		return false
	}
	if task.MachineType != "" && r.Static.Arch != task.MachineType {
		return false
	}
	return s.Repo.Constraints.CanRun(task.Function, r.Static.HostName)
}

// oraclePredictOn is the per-cell prediction: cache lookup, else per-cell
// assembly and store, then Forecast and the queued load.
func oraclePredictOn(s *LocalSelector, task *afg.Task, r repository.ResourceRecord, queuedLoad float64, gens map[string]uint64) float64 {
	var in predict.Inputs
	if s.Cache == nil {
		in = oracleAssembleInputs(s, task, r)
	} else {
		key := predict.CacheKey{
			Kind:     task.Function,
			Cost:     task.ComputeCost,
			MemReq:   task.MemReq,
			Resource: r.Static.HostName,
		}
		var ok bool
		in, ok = s.Cache.Lookup(key)
		if !ok {
			in = oracleAssembleInputs(s, task, r)
			s.Cache.Store(key, in, gens[key.Resource])
		}
	}
	if s.Forecast != nil {
		in.CPULoad = s.Forecast(r.Static.HostName, in.CPULoad)
	}
	in.CPULoad += queuedLoad
	return predict.Seconds(in)
}

// oracleAssembleInputs reads the task record (Get) and the host's trial
// weight (Weight) for every cell.
func oracleAssembleInputs(s *LocalSelector, task *afg.Task, r repository.ResourceRecord) predict.Inputs {
	base := task.ComputeCost
	memReq := task.MemReq
	weight, haveWeight := s.Repo.Tasks.Weight(task.Function, r.Static.HostName)
	if rec, err := s.Repo.Tasks.Get(task.Function); err == nil {
		if base <= 0 {
			base = rec.BaseTime
		}
		if memReq <= 0 {
			memReq = rec.MemReq
		}
	}
	if base <= 0 {
		base = 1e-6 // unknown task: negligible but positive cost
	}
	if !haveWeight {
		weight = predict.WeightFromSpeed(r.Static.SpeedFactor)
	}
	return predict.Inputs{
		BaseTime: base,
		Weight:   weight,
		MemReq:   memReq,
		MemAvail: r.Dynamic.AvailableMemory,
		CPULoad:  r.Dynamic.Load,
	}
}

// oracleCollectCandidates is the original map-keyed collectCandidates.
func oracleCollectCandidates(g *afg.Graph, req *Request) (map[afg.TaskID][]Choice, error) {
	if req.Local == nil {
		return nil, ErrNoSites
	}
	selectors := append([]HostSelector{req.Local},
		nearestSelectors(req.Local, req.Remotes, req.Net, req.Config.K)...)

	perSite := make([]map[afg.TaskID][]Choice, len(selectors))
	for i, sel := range selectors {
		if ls, ok := sel.(*LocalSelector); ok {
			if m, err := oracleHostCosts(ls, g); err == nil {
				perSite[i] = m
			}
			continue
		}
		if m, err := sel.SelectHosts(g); err == nil {
			cs := make(map[afg.TaskID][]Choice, len(m))
			for id, c := range m {
				cs[id] = []Choice{c}
			}
			perSite[i] = cs
		}
	}

	type named struct {
		name string
		cs   map[afg.TaskID][]Choice
	}
	var sites []named
	for i, sel := range selectors {
		if perSite[i] != nil {
			sites = append(sites, named{sel.SiteName(), perSite[i]})
		}
	}
	if len(sites) == 0 {
		return nil, ErrNoSites
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i].name < sites[j].name })
	out := make(map[afg.TaskID][]Choice, g.Len())
	for _, s := range sites {
		for id, cs := range s.cs {
			out[id] = append(out[id], cs...)
		}
	}
	return out, nil
}

// oracleAverageComm derives the commModel from the candidate map.
func oracleAverageComm(net *netsim.Network, cands map[afg.TaskID][]Choice) commModel {
	if net == nil {
		return commModel{}
	}
	seen := map[string]bool{}
	var names []string
	for _, cs := range cands {
		for _, c := range cs {
			if !seen[c.Site] {
				seen[c.Site] = true
				names = append(names, c.Site)
			}
		}
	}
	if len(names) < 2 {
		return commModel{}
	}
	sort.Strings(names)
	return commFromNames(net, names)
}

// oracleMeanExec is w̄(t) over a map candidate list.
func oracleMeanExec(cs []Choice) float64 {
	if len(cs) == 0 {
		return 0
	}
	var sum float64
	for _, c := range cs {
		sum += c.Predicted
	}
	return sum / float64(len(cs))
}

// oracleUpwardRanks is the original map-keyed rank_u.
func oracleUpwardRanks(g *afg.Graph, cands map[afg.TaskID][]Choice, cm commModel) (map[afg.TaskID]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make(map[afg.TaskID]float64, len(order))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		var best float64
		for _, l := range g.Children(id) {
			if v := cm.cost(transferBytes(g, l)) + rank[l.To]; v > best {
				best = v
			}
		}
		rank[id] = oracleMeanExec(cands[id]) + best
	}
	return rank, nil
}

// oracleDownwardRanks is the original map-keyed rank_d.
func oracleDownwardRanks(g *afg.Graph, cands map[afg.TaskID][]Choice, cm commModel) (map[afg.TaskID]float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	rank := make(map[afg.TaskID]float64, len(order))
	for _, id := range order {
		var best float64
		for _, l := range g.Parents(id) {
			v := rank[l.From] + oracleMeanExec(cands[l.From]) + cm.cost(transferBytes(g, l))
			if v > best {
				best = v
			}
		}
		rank[id] = best
	}
	return rank, nil
}

// oracleByRankDesc orders ids by descending rank, id ascending on ties.
func oracleByRankDesc(ids []afg.TaskID, rank map[afg.TaskID]float64) []afg.TaskID {
	out := append([]afg.TaskID(nil), ids...)
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank[out[i]], rank[out[j]]
		if ri != rj {
			return ri > rj
		}
		return out[i] < out[j]
	})
	return out
}

// oracleEarliest is the original linear-scan insertion lookup.
func oracleEarliest(t *timeline, ready, dur float64) float64 {
	start := ready
	for _, s := range t.busy {
		if start+dur <= s.start {
			break
		}
		if s.end > start {
			start = s.end
		}
	}
	return start
}

// oPlacement is the original map-keyed HEFT/CPOP placement state.
type oPlacement struct {
	g      *afg.Graph
	net    *netsim.Network
	ledger *LoadLedger
	lines  map[string]*timeline
	finish map[afg.TaskID]float64
	table  *AllocationTable
}

func newOPlacement(g *afg.Graph, net *netsim.Network, ledger *LoadLedger) *oPlacement {
	return &oPlacement{
		g:      g,
		net:    net,
		ledger: ledger,
		lines:  make(map[string]*timeline),
		finish: make(map[afg.TaskID]float64, g.Len()),
		table:  NewAllocationTable(g.Name),
	}
}

func (p *oPlacement) line(host string) *timeline {
	t, ok := p.lines[host]
	if !ok {
		t = &timeline{}
		if p.ledger != nil {
			if busy := p.ledger.Busy(host); busy > 0 {
				t.busy = append(t.busy, span{0, busy})
			}
		}
		p.lines[host] = t
	}
	return t
}

func (p *oPlacement) readyAt(id afg.TaskID, site string, hosts []string) float64 {
	var ready float64
	for _, l := range p.g.Parents(id) {
		parent, ok := p.table.Get(l.From)
		if !ok {
			continue
		}
		arrive := p.finish[l.From]
		if p.net != nil {
			if bytes := transferBytes(p.g, l); bytes > 0 && !sharesHost(effectiveHosts(parent), hosts) {
				arrive += p.net.TransferTime(parent.Site, site, bytes).Seconds()
			}
		}
		if arrive > ready {
			ready = arrive
		}
	}
	return ready
}

func (p *oPlacement) place(id afg.TaskID, cands []Choice, restrict map[string]bool) error {
	task := p.g.Task(id)
	if task.Mode == afg.Parallel && task.Processors > 1 {
		return p.placeParallel(id, task, cands, restrict)
	}
	var best Choice
	var bestStart float64
	bestFinish := math.Inf(1)
	found := false
	for _, c := range cands {
		if restrict != nil && !restrict[c.Host] {
			continue
		}
		ready := p.readyAt(id, c.Site, []string{c.Host})
		start := oracleEarliest(p.line(c.Host), ready, c.Predicted)
		fin := start + c.Predicted
		better := fin < bestFinish
		if fin == bestFinish {
			better = c.Site < best.Site || (c.Site == best.Site && c.Host < best.Host)
		}
		if better {
			best, bestStart, bestFinish, found = c, start, fin, true
		}
	}
	if !found {
		if restrict != nil {
			return p.place(id, cands, nil)
		}
		return fmt.Errorf("%w: %q", ErrNoEligibleHost, id)
	}
	p.commit(id, Assignment{
		Task:      id,
		Site:      best.Site,
		Host:      best.Host,
		Hosts:     []string{best.Host},
		Predicted: best.Predicted,
	}, bestStart, bestFinish)
	return nil
}

func (p *oPlacement) placeParallel(id afg.TaskID, task *afg.Task, cands []Choice, restrict map[string]bool) error {
	bySite := map[string][]Choice{}
	var siteNames []string
	for _, c := range cands {
		if restrict != nil && !restrict[c.Host] {
			continue
		}
		if _, ok := bySite[c.Site]; !ok {
			siteNames = append(siteNames, c.Site)
		}
		bySite[c.Site] = append(bySite[c.Site], c)
	}
	if len(bySite) == 0 {
		if restrict != nil {
			return p.placeParallel(id, task, cands, nil)
		}
		return fmt.Errorf("%w: %q", ErrNoEligibleHost, id)
	}
	sort.Strings(siteNames)

	var bestAssign Assignment
	var bestStart float64
	bestFinish := math.Inf(1)
	for _, site := range siteNames {
		group := bySite[site]
		n := task.Processors
		if n > len(group) {
			n = len(group)
		}
		sort.Slice(group, func(i, j int) bool {
			ei, ej := p.line(group[i].Host).end(), p.line(group[j].Host).end()
			if ei != ej {
				return ei < ej
			}
			return group[i].Host < group[j].Host
		})
		chosen := group[:n]
		hosts := make([]string, n)
		var maxPred, free float64
		for i, c := range chosen {
			hosts[i] = c.Host
			if c.Predicted > maxPred {
				maxPred = c.Predicted
			}
			if e := p.line(c.Host).end(); e > free {
				free = e
			}
		}
		pred := maxPred / float64(n)
		start := math.Max(p.readyAt(id, site, hosts), free)
		fin := start + pred
		if fin < bestFinish || (fin == bestFinish && site < bestAssign.Site) {
			bestAssign = Assignment{Task: id, Site: site, Host: hosts[0], Hosts: hosts, Predicted: pred}
			bestStart, bestFinish = start, fin
		}
	}
	p.commit(id, bestAssign, bestStart, bestFinish)
	return nil
}

func (p *oPlacement) commit(id afg.TaskID, a Assignment, start, fin float64) {
	p.table.Set(a)
	p.finish[id] = fin
	for _, h := range effectiveHosts(a) {
		p.line(h).add(start, fin)
	}
}

func (p *oPlacement) reserveLedger() {
	if p.ledger == nil {
		return
	}
	for _, id := range p.table.Order() {
		a, _ := p.table.Get(id)
		for _, h := range effectiveHosts(a) {
			p.ledger.Reserve(h, a.Predicted)
		}
	}
}

// oracleHEFT is the original map-keyed heftPolicy.Schedule.
func oracleHEFT(ctx context.Context, req *Request) (*AllocationTable, error) {
	g := req.Graph
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cands, err := oracleCollectCandidates(g, req)
	if err != nil {
		return nil, err
	}
	cm := oracleAverageComm(req.Net, cands)
	rank, err := oracleUpwardRanks(g, cands, cm)
	if err != nil {
		return nil, err
	}
	p := newOPlacement(g, req.Net, req.Config.Ledger)
	for _, id := range oracleByRankDesc(g.TaskIDs(), rank) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := p.place(id, cands[id], nil); err != nil {
			return nil, err
		}
	}
	p.reserveLedger()
	return p.table, nil
}

// oracleCPOP is the original map-keyed cpopPolicy.Schedule.
func oracleCPOP(ctx context.Context, req *Request) (*AllocationTable, error) {
	g := req.Graph
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cands, err := oracleCollectCandidates(g, req)
	if err != nil {
		return nil, err
	}
	cm := oracleAverageComm(req.Net, cands)
	up, err := oracleUpwardRanks(g, cands, cm)
	if err != nil {
		return nil, err
	}
	down, err := oracleDownwardRanks(g, cands, cm)
	if err != nil {
		return nil, err
	}
	prio := make(map[afg.TaskID]float64, g.Len())
	for _, id := range g.TaskIDs() {
		prio[id] = up[id] + down[id]
	}

	cp := oracleCriticalPath(g, prio)
	restrict := oracleCriticalHost(cands, cp)

	p := newOPlacement(g, req.Net, req.Config.Ledger)
	tracker := afg.NewTracker(g)
	for !tracker.AllDone() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ready := tracker.Ready()
		if len(ready) == 0 {
			return nil, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", tracker.Remaining())
		}
		sort.Slice(ready, func(i, j int) bool {
			pi, pj := prio[ready[i]], prio[ready[j]]
			if pi != pj {
				return pi > pj
			}
			return ready[i] < ready[j]
		})
		id := ready[0]
		var pin map[string]bool
		if cp[id] {
			pin = restrict
		}
		if err := p.place(id, cands[id], pin); err != nil {
			return nil, err
		}
		tracker.Complete(id)
	}
	p.reserveLedger()
	return p.table, nil
}

// oracleCriticalPath walks one maximum-priority chain (original).
func oracleCriticalPath(g *afg.Graph, prio map[afg.TaskID]float64) map[afg.TaskID]bool {
	var cur afg.TaskID
	best := math.Inf(-1)
	for _, id := range g.Entries() {
		if p := prio[id]; p > best || (p == best && id < cur) {
			cur, best = id, p
		}
	}
	cp := map[afg.TaskID]bool{}
	if best == math.Inf(-1) {
		return cp
	}
	cp[cur] = true
	for {
		children := g.Children(cur)
		if len(children) == 0 {
			return cp
		}
		next := children[0].To
		for _, l := range children[1:] {
			if prio[l.To] > prio[next] || (prio[l.To] == prio[next] && l.To < next) {
				next = l.To
			}
		}
		cur = next
		cp[cur] = true
	}
}

// oracleCriticalHost picks the critical-path processor (original), except
// that the critical tasks are visited in sorted order rather than map
// order — per-host sums are order-sensitive float additions, and the
// original's random map iteration made the oracle itself nondeterministic.
// The dense path visits tasks in ascending index (= id) order, so the
// oracle does the same.
func oracleCriticalHost(cands map[afg.TaskID][]Choice, cp map[afg.TaskID]bool) map[string]bool {
	type agg struct {
		sum float64
		cnt int
	}
	cpIDs := make([]afg.TaskID, 0, len(cp))
	for id := range cp {
		cpIDs = append(cpIDs, id)
	}
	sort.Slice(cpIDs, func(i, j int) bool { return cpIDs[i] < cpIDs[j] })
	per := map[string]*agg{}
	for _, id := range cpIDs {
		for _, c := range cands[id] {
			a := per[c.Host]
			if a == nil {
				a = &agg{}
				per[c.Host] = a
			}
			a.sum += c.Predicted
			a.cnt++
		}
	}
	var bestHost string
	bestCnt, bestSum := 0, math.Inf(1)
	hosts := make([]string, 0, len(per))
	for h := range per {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		a := per[h]
		if a.cnt > bestCnt || (a.cnt == bestCnt && a.sum < bestSum) {
			bestHost, bestCnt, bestSum = h, a.cnt, a.sum
		}
	}
	if bestHost == "" {
		return nil
	}
	return map[string]bool{bestHost: true}
}

// oracleSelector is the original map-keyed Fig 5 walk
// (LocalSelector.SelectHosts before the dense walk replaced it), with the
// mode fields the selector used to carry.
type oracleSelector struct {
	*LocalSelector
	EFT      bool // the former AvailabilityAware mode
	Ledger   *LoadLedger
	Priority PriorityFunc
}

// SelectHosts implements HostSelector.
func (s *oracleSelector) SelectHosts(g *afg.Graph) (map[afg.TaskID]Choice, error) {
	var gens map[string]uint64
	if s.Cache != nil {
		gens = s.Cache.Generations()
	}
	resources := s.Repo.Resources.List()
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	prio := s.Priority
	if prio == nil {
		prio = ByLevel
	}
	queued := make(map[string]float64) // paper mode: placed tasks per host
	freeAt := make(map[string]float64) // availability mode: est host-free times
	if s.EFT && s.Ledger != nil {
		freeAt = s.Ledger.Snapshot()
	}
	out := make(map[afg.TaskID]Choice, g.Len())
	for _, id := range prio(g.TaskIDs(), levels) {
		choice, finish, err := s.selectFor(g.Task(id), resources, queued, freeAt, gens)
		if err != nil {
			return nil, fmt.Errorf("task %q at site %s: %w", id, s.Site, err)
		}
		for _, h := range choice.Hosts {
			if s.EFT {
				freeAt[h] = finish
			} else {
				queued[h]++
			}
		}
		out[id] = choice
	}
	return out, nil
}

// selectFor is the per-cell Fig 5 step: every eligible host priced with
// oraclePredictOn, fully sorted by (key, host), and the first n taken —
// n = Processors for a parallel task, else 1.
func (s *oracleSelector) selectFor(task *afg.Task, resources []repository.ResourceRecord, queued, freeAt map[string]float64, gens map[string]uint64) (Choice, float64, error) {
	var cands []scored
	for _, r := range resources {
		if !oracleEligible(s.LocalSelector, task, r) {
			continue
		}
		host := r.Static.HostName
		pred := oraclePredictOn(s.LocalSelector, task, r, queued[host], gens)
		key := pred
		if s.EFT {
			key = freeAt[host] + pred
		}
		cands = append(cands, scored{host, pred, key})
	}
	if len(cands) == 0 {
		return Choice{}, 0, ErrNoEligibleHost
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].key != cands[j].key {
			return cands[i].key < cands[j].key
		}
		return cands[i].host < cands[j].host
	})
	n := task.Processors
	if task.Mode != afg.Parallel {
		n = 1
	}
	if n > len(cands) {
		n = len(cands)
	}
	hosts := make([]string, n)
	var maxPred, start float64
	for i, c := range cands[:n] {
		hosts[i] = c.host
		maxPred = math.Max(maxPred, c.pred)
		start = math.Max(start, freeAt[c.host])
	}
	pred := maxPred / float64(n)
	return Choice{Site: s.Site, Host: hosts[0], Hosts: hosts, Predicted: pred}, start + pred, nil
}

// oracleSite carries the mode fields of the original SiteScheduler engine.
type oracleSite struct {
	Local         HostSelector
	Remotes       []HostSelector
	Net           *netsim.Network
	K             int
	TransferAware bool
	EFT           bool // the former AvailabilityAware mode
	Ledger        *LoadLedger
	Priority      PriorityFunc
}

// oracleSiteRun is the original SiteScheduler engine: map-keyed site
// results, Tracker ready sets re-sorted per step, and (in availability
// mode) a live per-candidate ledger probe. In-process selectors run the
// map-keyed walk in the engine's mode.
func oracleSiteRun(s *oracleSite, g *afg.Graph) (*AllocationTable, error) {
	if s.Local == nil {
		return nil, ErrNoSites
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}

	selectors := []HostSelector{s.Local}
	selectors = append(selectors, nearestSelectors(s.Local, s.Remotes, s.Net, s.K)...)
	for i, sel := range selectors {
		if ls, ok := sel.(*LocalSelector); ok {
			c := &oracleSelector{LocalSelector: ls, EFT: s.EFT, Priority: s.Priority}
			if s.EFT {
				c.Ledger = s.Ledger
			}
			selectors[i] = c
		}
	}
	var results []oracleSiteResult
	for _, sel := range selectors {
		if choices, err := sel.SelectHosts(g); err == nil {
			results = append(results, oracleSiteResult{sel.SiteName(), choices})
		}
	}
	if len(results) == 0 {
		return nil, ErrNoSites
	}
	sort.Slice(results, func(i, j int) bool { return results[i].name < results[j].name })

	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}

	if s.EFT {
		return oracleAvailabilityAware(s, g, results, levels)
	}

	table := NewAllocationTable(g.Name)
	prio := s.Priority
	if prio == nil {
		prio = ByLevel
	}
	tracker := afg.NewTracker(g)
	for !tracker.AllDone() {
		ready := prio(tracker.Ready(), levels)
		if len(ready) == 0 {
			return nil, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", tracker.Remaining())
		}
		id := ready[0]

		best := Choice{Predicted: math.Inf(1)}
		bestTotal := math.Inf(1)
		found := false
		for _, sr := range results {
			choice, ok := sr.choices[id]
			if !ok {
				continue
			}
			total := choice.Predicted
			if s.TransferAware && !isEntryLike(g, id) {
				total += s.transferCost(g, id, sr.name, table)
			}
			if total < bestTotal || (total == bestTotal && sr.name < best.Site) {
				best, bestTotal, found = choice, total, true
			}
		}
		if !found {
			return nil, fmt.Errorf("%w: %q", ErrNoEligibleHost, id)
		}
		table.Set(Assignment{
			Task:      id,
			Site:      best.Site,
			Host:      best.Host,
			Hosts:     best.Hosts,
			Predicted: best.Predicted,
		})
		tracker.Complete(id)
	}
	return table, nil
}

type oracleSiteResult struct {
	name    string
	choices map[afg.TaskID]Choice
}

// oracleAvailabilityAware is the original EFT walk with live per-candidate
// ledger probes.
func oracleAvailabilityAware(s *oracleSite, g *afg.Graph, results []oracleSiteResult, levels map[afg.TaskID]float64) (*AllocationTable, error) {
	table := NewAllocationTable(g.Name)
	prio := s.Priority
	if prio == nil {
		prio = ByLevel
	}
	estFinish := make(map[afg.TaskID]float64, g.Len())
	hostFree := map[string]float64{}
	own := map[string]float64{}
	freeAt := func(h string) float64 {
		f := hostFree[h]
		if s.Ledger != nil {
			if other := s.Ledger.Busy(h) - own[h]; other > f {
				f = other
			}
		}
		return f
	}
	releaseOwn := func() {
		if s.Ledger == nil {
			return
		}
		for h, sec := range own {
			s.Ledger.Release(h, sec)
		}
	}

	tracker := afg.NewTracker(g)
	for !tracker.AllDone() {
		ready := prio(tracker.Ready(), levels)
		if len(ready) == 0 {
			releaseOwn()
			return nil, fmt.Errorf("scheduler: ready set empty with %d tasks remaining", tracker.Remaining())
		}
		id := ready[0]

		var best Choice
		var bestHosts []string
		bestFinish := math.Inf(1)
		found := false
		for _, sr := range results {
			choice, ok := sr.choices[id]
			if !ok {
				continue
			}
			hosts := effectiveHosts(Assignment{Host: choice.Host, Hosts: choice.Hosts})
			start := 0.0
			for _, l := range g.Parents(id) {
				arrive := estFinish[l.From]
				if s.Net != nil {
					if p, ok := table.Get(l.From); ok {
						if bytes := transferBytes(g, l); bytes > 0 && !sharesHost(effectiveHosts(p), hosts) {
							arrive += s.Net.TransferTime(p.Site, sr.name, bytes).Seconds()
						}
					}
				}
				start = math.Max(start, arrive)
			}
			for _, h := range hosts {
				start = math.Max(start, freeAt(h))
			}
			finish := start + choice.Predicted
			if finish < bestFinish || (finish == bestFinish && sr.name < best.Site) {
				best, bestHosts, bestFinish, found = choice, hosts, finish, true
			}
		}
		if !found {
			releaseOwn()
			return nil, fmt.Errorf("%w: %q", ErrNoEligibleHost, id)
		}
		table.Set(Assignment{
			Task:      id,
			Site:      best.Site,
			Host:      best.Host,
			Hosts:     best.Hosts,
			Predicted: best.Predicted,
		})
		estFinish[id] = bestFinish
		for _, h := range bestHosts {
			hostFree[h] = bestFinish
			if s.Ledger != nil {
				s.Ledger.Reserve(h, best.Predicted)
				own[h] += best.Predicted
			}
		}
		tracker.Complete(id)
	}
	return table, nil
}

// isEntryLike is the map-keyed isEntryLikeDense: whether the task "is an
// entry task or does not require any input file from its parent node
// tasks" (Fig 4, step 7).
func isEntryLike(g *afg.Graph, id afg.TaskID) bool {
	for _, l := range g.Parents(id) {
		if transferBytes(g, l) > 0 {
			return false
		}
	}
	return true
}

// transferCost is the map-keyed transferCostDense: transfer_time(Sparent,
// Sj) summed over the task's already scheduled parents.
func (s *oracleSite) transferCost(g *afg.Graph, id afg.TaskID, site string, table *AllocationTable) float64 {
	if s.Net == nil {
		return 0
	}
	var total float64
	for _, l := range g.Parents(id) {
		parent, ok := table.Get(l.From)
		if !ok {
			continue // parent unscheduled (possible only for cross runs)
		}
		bytes := transferBytes(g, l)
		total += s.Net.TransferTime(parent.Site, site, bytes).Seconds()
	}
	return total
}
