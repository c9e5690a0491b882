package scheduler

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/afg"
	"repro/internal/repository"
)

// Baseline policies for the evaluation benchmarks. Each maps an AFG to an
// allocation table like the Site Scheduler, but replaces the
// prediction-driven placement with a naive rule, which is what the paper's
// scheduling claims are measured against.

// hostList flattens repositories into (site, host) pairs with static data.
type hostEntry struct {
	site string
	host string
	rec  repository.ResourceRecord
}

func collectHosts(sites map[string]*repository.Repository) []hostEntry {
	var names []string
	for s := range sites {
		names = append(names, s)
	}
	sort.Strings(names)
	var out []hostEntry
	for _, s := range names {
		for _, r := range sites[s].Resources.List() {
			if r.Dynamic.Down {
				continue
			}
			out = append(out, hostEntry{site: s, host: r.Static.HostName, rec: r})
		}
	}
	return out
}

// FIFOPriority is the level-priority ablation: ready tasks in plain id
// order, ignoring levels. Install it with WithPriority to measure what the
// paper's level rule buys.
func FIFOPriority(ids []afg.TaskID, _ map[afg.TaskID]float64) []afg.TaskID {
	out := append([]afg.TaskID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// baselinePolicy exposes the naive rules through the policy registry.
// Host inventories come from the request's site repositories (the explicit
// Sites map, or any in-process LocalSelector); remote-only deployments see
// just the hosts their RPC peers expose locally. Every call starts afresh,
// so the round-robin cursor restarts per application and the random policy
// is a pure function of Config.Seed. Tasks are placed in topological order,
// each on one host.
type baselinePolicy struct {
	kind string
	// pick returns the per-task host chooser for one schedule: each call
	// of the chooser yields the index into hosts for the next task.
	pick func(hosts []hostEntry, seed int64) func() int
}

// Name implements Policy.
func (b baselinePolicy) Name() string { return b.kind }

// Schedule implements Policy.
func (b baselinePolicy) Schedule(ctx context.Context, req *Request) (*AllocationTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sites := req.siteRepos()
	if len(sites) == 0 {
		return nil, ErrNoSites
	}
	hosts := collectHosts(sites)
	if len(hosts) == 0 {
		return nil, ErrNoEligibleHost
	}
	next := b.pick(hosts, req.Config.Seed)
	order, err := req.Graph.TopoOrder()
	if err != nil {
		return nil, err
	}
	table := NewAllocationTable(req.Graph.Name)
	for _, id := range order {
		h := hosts[next()]
		table.Set(Assignment{Task: id, Site: h.site, Host: h.host, Hosts: []string{h.host}})
	}
	return table, nil
}

// pickRandom draws a uniformly random up host per task.
func pickRandom(hosts []hostEntry, seed int64) func() int {
	rng := rand.New(rand.NewSource(seed))
	return func() int { return rng.Intn(len(hosts)) }
}

// pickRoundRobin cycles through the hosts in (site, name) order.
func pickRoundRobin(hosts []hostEntry, _ int64) func() int {
	next := 0
	return func() int {
		i := next % len(hosts)
		next++
		return i
	}
}

// pickMinLoad greedily takes the host with the lowest recorded load,
// ignoring heterogeneity (speed/weights) and transfers. It counts its own
// placements — one load unit each — so it does not dog-pile one idle host.
func pickMinLoad(hosts []hostEntry, _ int64) func() int {
	load := make([]float64, len(hosts))
	for i, h := range hosts {
		load[i] = h.rec.Dynamic.Load
	}
	return func() int {
		best := 0
		for i := range hosts {
			if load[i] < load[best] {
				best = i
			}
		}
		load[best]++
		return best
	}
}

// pickFastest puts every task on the host with the highest static speed
// factor — the "prediction-blind" rule that ignores load entirely.
func pickFastest(hosts []hostEntry, _ int64) func() int {
	best := 0
	for i, h := range hosts {
		if h.rec.Static.SpeedFactor > hosts[best].rec.Static.SpeedFactor {
			best = i
		}
	}
	return func() int { return best }
}
