package scheduler

import (
	"fmt"
	"math"

	"repro/internal/afg"
	"repro/internal/minheap"
	"repro/internal/netsim"
)

// TimeModel returns the ground-truth execution seconds of a task on a host.
// The evaluation benchmarks use it to score allocation tables: schedulers
// see (possibly stale) repository data, the simulator charges actual times.
type TimeModel func(task *afg.Task, host string) float64

// Simulate replays an allocation table with the discrete-event executor
// and returns the makespan (schedule length) in modelled seconds.
//
// Semantics:
//   - a task starts when all parents have finished AND their output has
//     arrived (inter-site transfer time from the network model) AND its
//     assigned host is free;
//   - each host executes one task at a time (the paper's hosts are single
//     workstations; parallel tasks occupy all their hosts);
//   - transfer between tasks sharing a host is free — parallel tasks
//     compare their full host sets, not just the primary — same site pays
//     the LAN cost, cross-site pays the WAN cost;
//   - among the tasks whose parents have finished, the one with the
//     earliest possible start runs next (ties broken by task id).
//
// Simulate is the executor with no churn trace attached; RunChurn drives
// the same executor with one, so a fault-free churn run equals Simulate by
// construction.
//
//vdce:hot
func Simulate(g *afg.Graph, table *AllocationTable, model TimeModel, net *netsim.Network) (float64, error) {
	sc := getScratch()
	defer sc.release()
	r := &sc.exec
	if err := r.load(g, table, model, net, ChurnTrace{}); err != nil {
		return 0, err
	}
	return r.run()
}

// Task phases in a replay. A task lost to a host failure stays taskKilled
// until the deviation hook has seen it, then rejoins the frontier; phases
// from taskRunning up are settled.
const (
	taskWaiting uint8 = iota
	taskKilled
	taskRunning
	taskDone
)

// Event kinds, in their equal-time order.
const (
	evFinish uint8 = iota
	evTrace
	evOverrun
	evStart
)

// executor is the one discrete-event executor behind Simulate and
// RunChurn. All per-task state is slice-indexed through the graph's dense
// Index and all per-host state through dense host columns, so the event
// loop runs map-free. Its buffers live in pooled scratch (scratch.go).
//
// Pending events sit in a lazy start heap over the ready frontier, a heap
// of finishes and overrun detections of running tasks, and the churn
// trace. At equal times a finish lands first, then an availability
// transition, then an overrun detection, then a start; ties within a kind
// break on the dense index, which equals ascending TaskID. So a deviation
// always sees the freshest settled and down state, and no task starts on a
// host in the instant it goes down.
//
// Start keys only move later while time advances, so a candidate whose key
// is stale is re-pushed at its current start — the lazy-update event
// queue. Two churn events can move starts earlier: a host going down frees
// it at the present, and a re-plan moves frontier tasks. After either the
// start heap is rebuilt from the frontier.
type executor struct {
	ix    *afg.Index
	model TimeModel
	net   *netsim.Network

	// Per task: the current assignment and its dense host columns (slots
	// of colArena), unfinished parents, executions started (tagging queue
	// entries), the phase, the time all inputs arrived once ready, and the
	// current execution's start, predicted duration and actual finish
	// (final once done).
	assigns                     []Assignment
	hostCols                    [][]int32
	colArena, pending, epoch    []int32
	phase                       []uint8
	dataReady, began, pred, fin []float64

	// Per host column, interned by hostCol: when the host is next free,
	// whether it is down, and its straggle multiplier.
	hostCol  map[string]int32
	hostFree []float64
	down     []bool
	straggle []float64

	starts pq // ready frontier by candidate start
	queue  pq // running tasks' finishes and overrun detections

	now, makespan float64
	done          int

	// Churn: the availability trace and its host columns, straggle
	// multipliers by host, the overrun threshold (> 1 enables detection),
	// and the hook called after a host-down transition or an overrun
	// detection. The hook is a func value, so the re-plan path it runs
	// stays outside Simulate's hot cone.
	events     []ChurnEvent
	eventCols  []int32
	next       int
	stragglers map[string]float64
	threshold  float64
	deviate    func(kind DeviationKind, task int32) error
}

// load resolves table and the churn trace (empty under Simulate) into dense
// state for a fresh run, reusing the previous run's buffers: each is fully
// written here or reset (scratch contract 2).
func (r *executor) load(g *afg.Graph, table *AllocationTable, model TimeModel, net *netsim.Network, trace ChurnTrace) error {
	if g.Len() == 0 {
		return afg.ErrEmpty
	}
	ix, err := g.Index()
	if err != nil {
		return err
	}
	n := ix.Len()
	old := *r
	*r = executor{ix: ix, model: model, net: net, events: trace.Events, stragglers: trace.Straggle,
		hostCol: old.hostCol, colArena: old.colArena[:0],
		hostFree: old.hostFree[:0], down: old.down[:0], straggle: old.straggle[:0]}
	if r.hostCol == nil {
		r.hostCol = map[string]int32{}
	}
	clear(r.hostCol)
	r.assigns, r.hostCols = grow(old.assigns, n), grow(old.hostCols, n)
	for i := range r.assigns {
		a, ok := table.Get(ix.ID(i))
		if !ok {
			//vdce:ignore allocflow cold failure path: the error is built once and aborts the simulation
			return fmt.Errorf("scheduler: task %q missing from allocation table", ix.ID(i))
		}
		r.place(i, a)
	}
	r.eventCols = grow(old.eventCols, len(r.events))
	for k, ev := range r.events {
		r.eventCols[k] = r.column(ev.Host)
	}
	r.pending = grow(old.pending, n)
	for i := range r.pending {
		r.pending[i] = int32(ix.NumParents(i))
	}
	r.phase, r.epoch = growZero(old.phase, n), growZero(old.epoch, n) // taskWaiting, 0
	// Written before they are read: dataReady when a task turns ready,
	// the rest when it starts.
	r.dataReady = grow(old.dataReady, n)
	r.began = grow(old.began, n)
	r.pred = grow(old.pred, n)
	r.fin = grow(old.fin, n)
	// The start heap holds at most one entry per frontier task, so capacity
	// n keeps it growth-free; a fault-free run queues n finishes.
	r.starts = grow(old.starts, n)[:0]
	r.queue = grow(old.queue, n)[:0]
	return nil
}

// column interns a host into the dense per-host state.
//
//vdce:ignore allocflow host-name interning, one probe per (task, host) at load or re-plan; the per-column slices grow to the host count once and are pooled scratch
func (r *executor) column(h string) int32 {
	c, ok := r.hostCol[h]
	if !ok {
		c = int32(len(r.hostFree))
		r.hostCol[h] = c
		r.hostFree = append(r.hostFree, 0)
		r.down = append(r.down, false)
		r.straggle = append(r.straggle, r.stragglers[h])
	}
	return c
}

// place assigns task i: its assignment and its dense host columns, a
// capped slot appended to one column arena.
//
//vdce:ignore allocflow the column arena is pooled scratch: it grows to a run's high-water mark once, and a slot never changes after it is placed
func (r *executor) place(i int, a Assignment) {
	r.assigns[i] = a
	k := len(r.colArena)
	for _, h := range effectiveHosts(a) {
		r.colArena = append(r.colArena, r.column(h))
	}
	r.hostCols[i] = r.colArena[k:len(r.colArena):len(r.colArena)]
}

// run advances simulated time until every task has finished and returns
// the makespan. It is the only loop in the package that moves the replay
// clock.
func (r *executor) run() (float64, error) {
	n := r.ix.Len()
	r.rebuild()
	for r.done < n {
		ev, ok := r.nextEvent()
		if !ok {
			break
		}
		r.now = ev.at
		var err error
		switch ev.kind {
		case evFinish:
			r.queue.Pop()
			r.finish(ev.i)
		case evTrace:
			err = r.transition()
		case evOverrun:
			r.queue.Pop()
			err = r.deviate(DeviationOverrun, ev.i)
			r.rebuild()
		case evStart:
			r.starts.Pop()
			err = r.begin(ev.i)
		}
		if err != nil {
			return 0, err
		}
	}
	if r.done < n {
		return 0, fmt.Errorf("scheduler: replay stuck with %d tasks pending (every runnable host is down and no recovery is scripted)", n-r.done)
	}
	return r.makespan, nil
}

// nextEvent returns the earliest pending event in the equal-time order,
// dropping queue entries of executions killed since they were queued and
// re-keying stale start candidates first.
func (r *executor) nextEvent() (best pqItem, ok bool) {
	for len(r.queue) > 0 {
		if it := r.queue[0]; r.phase[it.i] == taskRunning && r.epoch[it.i] == it.epoch {
			best, ok = it, true
			break
		}
		r.queue.Pop()
	}
	if r.next < len(r.events) {
		if it := (pqItem{kind: evTrace, at: r.events[r.next].At}); !ok || it.LessThan(best) {
			best, ok = it, true
		}
	}
	for len(r.starts) > 0 {
		it := r.starts[0]
		if cur := r.startOf(it.i); cur > it.at {
			// An event since this entry was pushed moved one of the task's
			// hosts further out; re-queue at the current start.
			r.starts.Pop()
			it.at = cur
			r.starts.Push(it)
			continue
		}
		if !ok || it.LessThan(best) {
			best, ok = it, true
		}
		break
	}
	return best, ok
}

// startOf is the earliest time ready task i can begin: not before the
// present, its inputs' arrival, or any of its hosts coming free.
func (r *executor) startOf(i int32) float64 {
	st := math.Max(r.now, r.dataReady[i])
	for _, c := range r.hostCols[i] {
		st = math.Max(st, r.hostFree[c])
	}
	return st
}

// rebuild reloads the start heap from the frontier; killed tasks rejoin
// it. Every ready task's data-ready time is recomputed, since a re-plan
// may have moved it.
func (r *executor) rebuild() {
	r.starts = r.starts[:0]
	for i, ph := range r.phase {
		if ph == taskKilled {
			r.phase[i], ph = taskWaiting, taskWaiting
		}
		if ph == taskWaiting && r.pending[i] == 0 {
			r.ready(int32(i))
		}
	}
}

// ready takes task i, whose parents have all finished, to the frontier:
// its inputs arrive at the latest parent finish plus transfer (free
// between tasks sharing a host), and it joins the start heap if its hosts
// are up.
func (r *executor) ready(i int32) {
	at := 0.0
	for _, arc := range r.ix.Parents(int(i)) {
		p := arc.Peer
		arrive := r.fin[p]
		if r.net != nil && !sharesHost(r.hostCols[p], r.hostCols[i]) {
			arrive += r.net.TransferTime(r.assigns[p].Site, r.assigns[i].Site, arc.Bytes).Seconds()
		}
		at = math.Max(at, arrive)
	}
	r.dataReady[i] = at
	for _, c := range r.hostCols[i] {
		if r.down[c] {
			return // a re-plan or the host's recovery rebuilds the heap
		}
	}
	r.starts.Push(pqItem{i: i, kind: evStart, at: r.startOf(i)})
}

// begin starts task i now on its assigned hosts. Its actual duration is
// the model's, split across a parallel task's hosts and stretched by the
// slowest host's straggle multiplier.
func (r *executor) begin(i int32) error {
	at := r.now
	dur := r.model(r.ix.Task(int(i)), r.assigns[i].Host)
	if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		//vdce:ignore allocflow cold failure path: the error is built once and aborts the simulation
		return fmt.Errorf("scheduler: invalid duration %v for task %q", dur, r.ix.ID(int(i)))
	}
	cols := r.hostCols[i]
	if len(cols) > 1 {
		dur /= float64(len(cols))
	}
	slow := 1.0
	for _, c := range cols {
		if s := r.straggle[c]; s > slow {
			slow = s
		}
	}
	end := at + dur*slow
	for _, c := range cols {
		r.hostFree[c] = end
	}
	r.epoch[i]++
	r.phase[i], r.began[i], r.pred[i], r.fin[i] = taskRunning, at, dur, end
	r.queue.Push(pqItem{i: i, epoch: r.epoch[i], kind: evFinish, at: end})
	if detect := at + r.threshold*dur; r.threshold > 1 && end > detect {
		r.queue.Push(pqItem{i: i, epoch: r.epoch[i], kind: evOverrun, at: detect})
	}
	return nil
}

// finish completes task i now; a child losing its last pending parent
// turns ready.
func (r *executor) finish(i int32) {
	r.phase[i] = taskDone
	r.done++
	r.makespan = math.Max(r.makespan, r.now)
	for _, arc := range r.ix.Children(int(i)) {
		if r.pending[arc.Peer]--; r.pending[arc.Peer] == 0 {
			r.ready(arc.Peer)
		}
	}
}

// transition applies the next availability event. A host coming back is
// free no earlier than now; a host going down is free from now on, kills
// every execution occupying it, and raises a host-down deviation. Either
// way the start heap is rebuilt.
func (r *executor) transition() (err error) {
	ev, cs := r.events[r.next], r.eventCols[r.next:r.next+1]
	c := cs[0]
	r.next++
	switch {
	case !ev.Down && r.down[c]:
		r.down[c] = false
		r.hostFree[c] = math.Max(r.hostFree[c], r.now)
	case ev.Down && !r.down[c]:
		r.down[c] = true
		r.hostFree[c] = r.now
		for i, ph := range r.phase {
			if ph == taskRunning && sharesHost(r.hostCols[i], cs) {
				r.phase[i] = taskKilled
			}
		}
		err = r.deviate(DeviationHostDown, -1)
	}
	r.rebuild()
	return err
}

// CommVolume sums the modelled inter-host communication time of a table —
// the quantity the paper's co-location argument minimises ("to decrease the
// inter-task communication time"). A link between tasks sharing any host
// (parallel tasks occupy several) moves no data and costs nothing.
func CommVolume(g *afg.Graph, table *AllocationTable, net *netsim.Network) float64 {
	var total float64
	for _, l := range g.Links() {
		from, ok1 := table.Get(l.From)
		to, ok2 := table.Get(l.To)
		if !ok1 || !ok2 || net == nil || sharesHost(effectiveHosts(from), effectiveHosts(to)) {
			continue
		}
		total += net.TransferTime(from.Site, to.Site, transferBytes(g, l)).Seconds()
	}
	return total
}

// effectiveHosts returns the hosts an assignment occupies: the parallel
// host set when present, else the single primary host.
func effectiveHosts(a Assignment) []string {
	if len(a.Hosts) > 0 {
		return a.Hosts
	}
	//vdce:ignore allocflow the single-host literal usually stays on the stack (non-escaping callers); dense hot paths precompute hostCols instead
	return []string{a.Host}
}

// sharesHost reports whether two host sets — names, or dense host columns
// — intersect. Host sets are tiny (the paper's parallel tasks span a few
// workstations), so the quadratic scan beats building a map.
func sharesHost[T comparable](a, b []T) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// pq is one of the executor's event queues: a min-heap of timed task
// events ordered by time, then kind (the equal-time order), then dense task
// index, which equals ascending TaskID order by the Index invariant.
type pqItem struct {
	i     int32 // dense task index
	epoch int32 // execution a finish or overrun entry belongs to
	at    float64
	kind  uint8
}

// LessThan implements minheap.Ordered.
func (a pqItem) LessThan(b pqItem) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.i < b.i
}

type pq = minheap.Heap[pqItem]
