package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/netsim"
	"repro/internal/resource"
	"repro/internal/scheduler"
	"repro/internal/site"
	apps "repro/internal/workload"
)

// site-rpc: the service path. Four in-process site managers serve RPC on
// loopback, each peered with the other three; two closed-loop clients
// share one seeded op list against site 0. Batches read the prediction
// cache and miss it (every dagen cost is unique), submits hit it and write
// measured times back, and monitor rounds invalidate it, so a cache change
// that helps one use and costs another shows here.
const (
	rpcSites        = 4
	rpcHostsPerSite = 16
	rpcClients      = 2
	rpcBlock        = 10  // ops per block: 1 batch + 9 submits, then a monitor round
	rpcBlocks       = 300 // blocks in the op list; the list repeats if a run outlasts it
	rpcBatchDAGs    = 4
	rpcBatchTasks   = 100
	rpcLinsolverN   = 96
	rpcSignalN      = 128
)

// rpcOp is one pre-encoded request of the op list.
type rpcOp struct {
	batch  *site.BatchArgs
	submit *site.SubmitArgs
	graphs []*afg.Graph // the decoded inputs, for the output checks
	app    string       // submit: linsolver, c3i or fourier
}

// rpcOps builds the seeded op list plus two extra batches, one for the
// warm-up op and one for the wire-equality probe.
func rpcOps(seed int64, blocks int) (ops []rpcOp, warm, probe rpcOp, err error) {
	batch := func(b int, policy string) (rpcOp, error) {
		op := rpcOp{batch: &site.BatchArgs{Policy: policy, Seed: seed + int64(b)}}
		for j := 0; j < rpcBatchDAGs; j++ {
			g := dagen.Random(dagen.Params{
				Tasks: rpcBatchTasks, CCR: 1, Alpha: 1, OutDegree: 4, Beta: 1,
				CommBandwidth: 1e7, Seed: seed*1_000_003 + int64(b)*rpcBatchDAGs + int64(j),
			})
			raw, err := g.Encode()
			if err != nil {
				return op, err
			}
			op.batch.AFGs = append(op.batch.AFGs, raw)
			op.graphs = append(op.graphs, g)
		}
		return op, nil
	}
	kinds := []string{"linsolver", "c3i", "fourier"}
	for b := 0; b < blocks; b++ {
		policy := "faithful"
		if b%2 == 1 {
			policy = "heft"
		}
		op, err := batch(b, policy)
		if err != nil {
			return nil, warm, probe, err
		}
		ops = append(ops, op)
		for k := 0; k < rpcBlock-1; k++ {
			app := kinds[k%len(kinds)]
			appSeed := int(seed)*10_007 + b*rpcBlock + k
			var g *afg.Graph
			switch app {
			case "linsolver":
				g, err = apps.LinearSolver(nil, rpcLinsolverN, appSeed, false, 2)
			case "c3i":
				g, err = apps.C3IScenario(nil, 4, rpcSignalN, appSeed)
			default:
				g, err = apps.FourierPipeline(nil, rpcSignalN, 17, appSeed)
			}
			if err != nil {
				return nil, warm, probe, err
			}
			raw, err := g.Encode()
			if err != nil {
				return nil, warm, probe, err
			}
			ops = append(ops, rpcOp{submit: &site.SubmitArgs{AFG: raw}, graphs: []*afg.Graph{g}, app: app})
		}
	}
	if warm, err = batch(-1, "faithful"); err != nil {
		return nil, warm, probe, err
	}
	probe, err = batch(-2, "heft")
	return ops, warm, probe, err
}

// deployment is the four sites, their listeners and peer connections.
type deployment struct {
	managers []*site.Manager
	peers    [][]*site.RemoteSelector // peers[i]: site i's view of the others
	addrs    []string
	stops    []func()
	net      *netsim.Network
}

// deploy starts the sites. The deployment is fixed, like a real one: the
// run seed shapes only the requests. Ports are reserved first because
// every site's peer list must name the others' addresses before it serves.
func deploy() (*deployment, error) {
	d := &deployment{}
	names := make([]string, rpcSites)
	for i := range names {
		names[i] = fmt.Sprintf("site%d", i)
	}
	d.net = netsim.StarTopology(names, 5*time.Millisecond, 19.4e6, 0.001)
	for i, name := range names {
		pool := resource.GenerateSite(name, rpcHostsPerSite, 4, int64(i+1))
		m, err := site.NewManager(name, pool, d.net, nil, site.Config{})
		if err != nil {
			return nil, err
		}
		m.RunTrialWeights()
		m.TickMonitors()
		d.managers = append(d.managers, m)
	}
	for range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.addrs = append(d.addrs, ln.Addr().String())
		ln.Close()
	}
	for i, m := range d.managers {
		var peers []*site.RemoteSelector
		for j, name := range names {
			if j != i {
				peers = append(peers, site.NewRemoteSelector(name, d.addrs[j]))
			}
		}
		d.peers = append(d.peers, peers)
		addr, stop, err := m.ServeWithPeers(d.addrs[i], peers)
		if err != nil {
			d.close()
			return nil, err
		}
		d.addrs[i] = addr
		d.stops = append(d.stops, stop)
	}
	return d, nil
}

func (d *deployment) tick(tr *tracer, trace int64) {
	for _, m := range d.managers {
		s := tr.begin(trace, -1, "monitor.tick")
		m.TickMonitors()
		tr.end(s)
	}
}

func (d *deployment) cacheStats() (hits, misses, inval uint64, entries int) {
	for _, m := range d.managers {
		st := m.Cache.Stats()
		hits += st.Hits
		misses += st.Misses
		inval += st.Invalidations
		entries += st.Entries
	}
	return
}

func (d *deployment) close() {
	for _, ps := range d.peers {
		for _, p := range ps {
			p.Close()
		}
	}
	for _, stop := range d.stops {
		stop()
	}
}

type siteRPC struct {
	seed    int64
	ops     []rpcOp
	warm    rpcOp
	probe   rpcOp
	dep     *deployment
	clients []*rpc.Client
}

func newSiteRPC(seed int64) workload { return &siteRPC{seed: seed} }

func (w *siteRPC) setup() error {
	var err error
	if w.ops, w.warm, w.probe, err = rpcOps(w.seed, rpcBlocks); err != nil {
		return err
	}
	// A reserved port can be taken between reservation and listen; try again.
	for attempt := 0; attempt < 3; attempt++ {
		if w.dep, err = deploy(); err == nil {
			break
		}
	}
	if err != nil {
		return err
	}
	for c := 0; c < rpcClients; c++ {
		cl, err := rpc.Dial("tcp", w.dep.addrs[0])
		if err != nil {
			return err
		}
		w.clients = append(w.clients, cl)
	}
	if _, err := w.scheduleBatch(w.warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return w.probeWire()
}

// probeWire checks, with no other op in flight, that a heft batch over the
// wire equals the same batch scheduled in-process on site 0.
func (w *siteRPC) probeWire() error {
	reply, err := w.scheduleBatch(w.probe)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	var remotes []scheduler.HostSelector
	for _, p := range w.dep.peers[0] {
		remotes = append(remotes, p)
	}
	items, err := w.dep.managers[0].ScheduleBatchOpts(w.probe.graphs, remotes, site.BatchOptions{
		Policy: w.probe.batch.Policy, Seed: w.probe.batch.Seed,
	})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	for i, it := range items {
		if it.Err != nil {
			return fmt.Errorf("probe: in-process item %d: %v", i, it.Err)
		}
		if !reflect.DeepEqual(it.Table.Entries, reply.Tables[i]) || !reflect.DeepEqual(it.Table.Order(), reply.Orders[i]) {
			return fmt.Errorf("%w: probe: wire heft table %d differs from the in-process one", errCheck, i)
		}
	}
	return nil
}

// scheduleBatch sends one batch op on the first client and checks the reply.
func (w *siteRPC) scheduleBatch(op rpcOp) (*site.BatchReply, error) {
	var reply site.BatchReply
	if err := w.clients[0].Call("Site.ScheduleBatch", *op.batch, &reply); err != nil {
		return nil, err
	}
	return &reply, checkBatch(op, &reply, w.dep.net)
}

// checkBatch requires an empty error for every item and a table that
// rebuilds and validates against its graph.
func checkBatch(op rpcOp, reply *site.BatchReply, net *netsim.Network) error {
	if len(reply.Errs) != len(op.graphs) || len(reply.Tables) != len(op.graphs) || len(reply.Orders) != len(op.graphs) {
		return fmt.Errorf("%w: batch reply has %d items for %d graphs", errCheck, len(reply.Tables), len(op.graphs))
	}
	for i, g := range op.graphs {
		if reply.Errs[i] != "" {
			return fmt.Errorf("%w: batch item %d: %s", errCheck, i, reply.Errs[i])
		}
		table := scheduler.RebuildTable(g.Name, reply.Tables[i], reply.Orders[i])
		// The table's own predictions are the durations it was placed with.
		model := func(t *afg.Task, host string) float64 { return table.Entries[t.ID].Predicted }
		if _, err := scheduler.ValidateSchedule(g, table, model, net); err != nil {
			return fmt.Errorf("%w: batch item %d: %v", errCheck, i, err)
		}
	}
	return nil
}

// checkSubmit requires a placement for every task and the application's
// known answer at its exits.
func checkSubmit(op rpcOp, reply *site.SubmitReply) error {
	g := op.graphs[0]
	if len(reply.Table) != g.Len() {
		return fmt.Errorf("%w: %s: %d placements for %d tasks", errCheck, op.app, len(reply.Table), g.Len())
	}
	for _, id := range g.Exits() {
		if _, ok := reply.Outputs[id]; !ok {
			return fmt.Errorf("%w: %s: no output for exit %s", errCheck, op.app, id)
		}
	}
	switch op.app {
	case "linsolver":
		if r := scalarOf(reply.Outputs["check"]); !(r < 1e-9) {
			return fmt.Errorf("%w: linsolver residual %q", errCheck, reply.Outputs["check"])
		}
	case "fourier":
		if got := scalarOf(reply.Outputs["dominant"]); got != 17 {
			return fmt.Errorf("%w: fourier dominant frequency %q, want 17", errCheck, reply.Outputs["dominant"])
		}
	}
	return nil
}

// scalarOf parses a rendered "scalar <v>" output; NaN otherwise.
func scalarOf(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimPrefix(s, "scalar "), 64)
	if err != nil || !strings.HasPrefix(s, "scalar ") {
		return math.NaN()
	}
	return math.Abs(v)
}

// measure runs the op list block by block. The two clients share each
// block's ops, claiming them in list order, each sending its next op as
// soon as its previous reply is in; when the block's ops are all done, one
// monitor round runs on every site and the next block starts. The block
// boundary keeps the overlap of batches and submits the same in every run:
// without it the clients drift between runs where two batches overlap and
// runs where they never do, and the batch median moves between the two.
func (w *siteRPC) measure(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{latRoot: "rpc.schedule_batch"}
	h0, m0, i0, _ := w.dep.cacheStats()
	var mu sync.Mutex
	var firstErr error
	var batches []rpcOp
	var replies []*site.BatchReply
	start := time.Now()
	for b := int64(0); time.Since(start) < d; b++ {
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, cl := range w.clients {
			wg.Add(1)
			go func(cl *rpc.Client) {
				defer wg.Done()
				for k := next.Add(1) - 1; k < rpcBlock; k = next.Add(1) - 1 {
					n := b*rpcBlock + k
					op := w.ops[n%int64(len(w.ops))]
					name := "rpc.submit"
					if op.batch != nil {
						name = "rpc.schedule_batch"
					}
					s := tr.begin(n, -1, name)
					t0 := time.Now()
					var err error
					var br site.BatchReply
					var sr site.SubmitReply
					if op.batch != nil {
						err = cl.Call("Site.ScheduleBatch", *op.batch, &br)
					} else {
						err = cl.Call("Site.Submit", *op.submit, &sr)
					}
					ms := float64(time.Since(t0).Nanoseconds()) / 1e6
					tr.end(s)
					mu.Lock()
					p.attempt++
					switch {
					case err != nil:
						p.failed++
					case op.batch != nil:
						p.latMS = append(p.latMS, ms)
						batches = append(batches, op)
						replies = append(replies, &br)
						p.tasks += rpcBatchDAGs * rpcBatchTasks
					default:
						p.submitMS = append(p.submitMS, ms)
						p.tasks += op.graphs[0].Len()
						if cerr := checkSubmit(op, &sr); cerr != nil && firstErr == nil {
							firstErr = cerr
						}
					}
					mu.Unlock()
				}
			}(cl)
		}
		wg.Wait()
		w.dep.tick(tr, -1-b)
	}
	p.elapsed = time.Since(start)
	if firstErr != nil {
		return nil, firstErr
	}
	// Batch tables are validated after the timed region: the validator is
	// the benchmark's check, not part of the round trip.
	for i, op := range batches {
		if err := checkBatch(op, replies[i], w.dep.net); err != nil {
			return nil, err
		}
	}
	h1, m1, i1, entries := w.dep.cacheStats()
	if h1+m1 > h0+m0 {
		tr.set("predict.hit_ratio", float64(h1-h0)/float64(h1+m1-h0-m0))
	}
	tr.set("predict.invalidations", float64(i1-i0))
	tr.set("predict.entries", float64(entries))
	return p, nil
}

// timedSelector is a remote host selector that records each SelectHosts
// call as a site.select_remote span.
type timedSelector struct {
	inner  *site.RemoteSelector
	tr     *tracer
	trace  int64
	parent int32
}

func (t *timedSelector) SiteName() string { return t.inner.SiteName() }

func (t *timedSelector) SelectHosts(g *afg.Graph) (map[afg.TaskID]scheduler.Choice, error) {
	s := t.tr.begin(t.trace, t.parent, "site.select_remote")
	defer t.tr.end(s)
	return t.inner.SelectHosts(g)
}

// replay runs the same op list in-process, serially, against a fresh
// deployment, recording the site.* spans: what the
// site does for each request without the client's RPC around it.
func (w *siteRPC) replay(d time.Duration, tr *tracer) error {
	dep, err := deploy()
	if err != nil {
		return err
	}
	defer dep.close()
	m := dep.managers[0]
	var sels []*timedSelector
	var remotes []scheduler.HostSelector
	for _, p := range dep.peers[0] {
		ts := &timedSelector{inner: p, tr: tr}
		sels = append(sels, ts)
		remotes = append(remotes, ts)
	}
	start := time.Now()
	for n := int64(0); time.Since(start) < d; n++ {
		op := w.ops[n%int64(len(w.ops))]
		trace := 1_000_000_000 + n
		if op.batch != nil {
			root := tr.begin(trace, -1, "site.schedule_batch")
			var graphs []*afg.Graph
			for _, raw := range op.batch.AFGs {
				s := tr.begin(trace, root, "afg.decode")
				g, err := afg.Decode(raw)
				tr.end(s)
				if err != nil {
					return err
				}
				graphs = append(graphs, g)
			}
			for _, ts := range sels {
				ts.trace, ts.parent = trace, root
			}
			items, err := m.ScheduleBatchOpts(graphs, remotes, site.BatchOptions{Policy: op.batch.Policy, Seed: op.batch.Seed})
			tr.end(root)
			if err != nil {
				return err
			}
			for i, it := range items {
				if it.Err != nil {
					return fmt.Errorf("%w: replayed batch item %d: %v", errCheck, i, it.Err)
				}
			}
		} else {
			root := tr.begin(trace, -1, "site.execute")
			s := tr.begin(trace, root, "afg.decode")
			g, err := afg.Decode(op.submit.AFG)
			tr.end(s)
			if err != nil {
				return err
			}
			res, _, err := m.ExecuteDistributedPolicy(context.Background(), g, dep.peers[0], op.submit.Policy)
			tr.end(root)
			if err != nil {
				return fmt.Errorf("%w: replayed %s: %v", errCheck, op.app, err)
			}
			tr.add("runtime.rescheduled", float64(res.Rescheduled))
		}
		if n%rpcBlock == rpcBlock-1 {
			dep.tick(tr, -1_000_000_000-n)
		}
	}
	return nil
}

func (w *siteRPC) close() {
	for _, c := range w.clients {
		c.Close()
	}
	w.clients = nil
	if w.dep != nil {
		w.dep.close()
	}
}
