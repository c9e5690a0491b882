package scheduler

// The per-row cost gather (LocalSelector.profile + the per-cell filters)
// against the per-cell oracle in oracle_test.go, which reads the task
// record, the trial weight and the constraint for every (task, host) cell:
// the dense cost slab and the Fig 5 walk must agree bit for bit, NaN
// pattern included, over a repository that exercises every branch of the
// row resolution.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/afg"
	"repro/internal/dagen"
	"repro/internal/predict"
	"repro/internal/repository"
)

// gatherRepo builds one site of eight hosts that differ in architecture,
// speed, load and free memory, with one host down, plus task records that
// cover the row resolution's branches:
//
//   - "rec.base": a record whose BaseTime and MemReq fill in tasks that
//     give none, with trial weights on two hosts only;
//   - "rec.plain": a record with no trial weights;
//   - "con.fn": a record whose function only h02 and h05 may run;
//   - "ghost": no record and no constraint.
func gatherRepo(t testing.TB) *repository.Repository {
	t.Helper()
	repo := repository.New()
	for i := 0; i < 8; i++ {
		host := fmt.Sprintf("h%02d", i)
		arch := "solaris"
		if i%3 == 1 {
			arch = "linux"
		}
		if err := repo.Resources.Register(repository.ResourceStatic{
			HostName: host, Site: "gs", Arch: arch,
			TotalMemory: 1 << 30, SpeedFactor: 0.5 + float64(i)*0.37,
		}); err != nil {
			t.Fatal(err)
		}
		// Odd hosts have little free memory, so large tasks pay the
		// memory penalty there.
		avail := int64(1 << 30)
		if i%2 == 1 {
			avail = 1 << 24
		}
		if err := repo.Resources.UpdateDynamic(host, float64(i%4)*0.3, avail, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Resources.SetDown("h06", true); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []repository.TaskRecord{
		{Function: "rec.base", BaseTime: 2.5, MemReq: 1 << 26,
			Weights: map[string]float64{"h01": 0.4, "h04": 1.7}},
		{Function: "rec.plain", BaseTime: 0.75, MemReq: 1 << 20},
		{Function: "con.fn", BaseTime: 1.25},
	} {
		if err := repo.Tasks.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	repo.Constraints.SetLocation("con.fn", "h02", "/usr/local/bin/con")
	repo.Constraints.SetLocation("con.fn", "h05", "/usr/local/bin/con")
	return repo
}

// gatherGraph is a seeded dagen DAG whose tasks cycle through the
// repository's functions. A third of the tasks give no ComputeCost (the
// record's BaseTime applies, and tasks of one function share a cache key),
// some give no MemReq, one prefers the linux hosts, and a few are parallel.
func gatherGraph(t testing.TB, tasks int, seed int64) *afg.Graph {
	t.Helper()
	g := dagen.Random(dagen.Params{
		Tasks: tasks, CCR: 1, Alpha: 1, OutDegree: 3, Beta: 1,
		CommBandwidth: 1e7, Seed: seed,
	})
	funcs := []string{"rec.base", "rec.plain", "con.fn", "ghost"}
	rng := rand.New(rand.NewSource(seed))
	for i, id := range g.TaskIDs() {
		task := g.Task(id)
		task.Function = funcs[i%len(funcs)]
		if i%3 == 0 {
			task.ComputeCost = 0
		}
		if i%2 == 0 {
			task.MemReq = 0
		} else {
			task.MemReq = int64(rng.Intn(1 << 26))
		}
		if rng.Intn(8) == 0 && task.Function != "con.fn" {
			task.Mode = afg.Parallel
			task.Processors = 2 + rng.Intn(2)
		}
	}
	g.Task(g.TaskIDs()[1]).MachineType = "linux"
	return g
}

// gatherForecast is a stateless load forecast that treats hosts
// differently, so a forecast applied to the wrong host shows.
func gatherForecast(host string, recorded float64) float64 {
	if strings.HasSuffix(host, "3") || strings.HasSuffix(host, "4") {
		return recorded*1.5 + 0.25
	}
	return recorded
}

type gatherCase struct {
	name     string
	cache    bool
	forecast bool
}

var gatherCases = []gatherCase{
	{"cache-off", false, false},
	{"cache-off+forecast", false, true},
	{"cache-on", true, false},
	{"cache-on+forecast", true, true},
}

// selectors returns the production selector and one for the oracle over
// the same repository, each with its own cache when the case has one, so
// both pay their own misses.
func (c gatherCase) selectors(repo *repository.Repository) (*LocalSelector, *LocalSelector) {
	mk := func() *LocalSelector {
		s := &LocalSelector{Site: "gs", Repo: repo}
		if c.cache {
			s.Cache = predict.NewCache()
		}
		if c.forecast {
			s.Forecast = gatherForecast
		}
		return s
	}
	return mk(), mk()
}

func TestDenseHostCostsMatchPerCellOracle(t *testing.T) {
	repo := gatherRepo(t)
	for _, c := range gatherCases {
		for seed := int64(1); seed <= 3; seed++ {
			g := gatherGraph(t, 80, seed)
			ix, err := g.Index()
			if err != nil {
				t.Fatal(err)
			}
			sel, osel := c.selectors(repo)
			// The second pass over a warm cache runs the hit path.
			for pass := 0; pass < 2; pass++ {
				hosts, pred, err := sel.denseHostCosts(ix)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleHostCosts(osel, g)
				if err != nil {
					t.Fatal(err)
				}
				nan := 0
				for ti := 0; ti < ix.Len(); ti++ {
					cells := map[string]float64{}
					for _, ch := range want[ix.ID(ti)] {
						cells[ch.Host] = ch.Predicted
					}
					for k, h := range hosts {
						got := pred[ti*len(hosts)+k]
						w, ok := cells[h]
						if !ok {
							if !math.IsNaN(got) {
								t.Fatalf("%s seed %d pass %d: task %q host %s: dense %v, oracle ineligible", c.name, seed, pass, ix.ID(ti), h, got)
							}
							nan++
							continue
						}
						if math.Float64bits(got) != math.Float64bits(w) {
							t.Fatalf("%s seed %d pass %d: task %q host %s: dense %v, oracle %v", c.name, seed, pass, ix.ID(ti), h, got, w)
						}
					}
				}
				// The down host blanks a cell in every row.
				if nan < ix.Len() {
					t.Fatalf("%s seed %d: only %d ineligible cells", c.name, seed, nan)
				}
			}
		}
	}
}

func TestSelectHostsWalkMatchesPerCellOracle(t *testing.T) {
	repo := gatherRepo(t)
	for _, c := range gatherCases {
		for _, eft := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				g := gatherGraph(t, 80, seed)
				ix, err := g.Index()
				if err != nil {
					t.Fatal(err)
				}
				var ledger *LoadLedger
				if eft && seed == 3 {
					ledger = NewLoadLedger()
					ledger.Reserve("h00", 4)
					ledger.Reserve("h05", 1.5)
				}
				sel, osel := c.selectors(repo)
				got, err := sel.selectHosts(ix, g, hostWalk{eft: eft, ledger: ledger})
				if err != nil {
					t.Fatal(err)
				}
				want, err := (&oracleSelector{LocalSelector: osel, EFT: eft, Ledger: ledger}).SelectHosts(g)
				if err != nil {
					t.Fatal(err)
				}
				for ti, gc := range got {
					wc := want[ix.ID(ti)]
					if gc.Site != wc.Site || gc.Host != wc.Host || strings.Join(gc.Hosts, ",") != strings.Join(wc.Hosts, ",") ||
						math.Float64bits(gc.Predicted) != math.Float64bits(wc.Predicted) {
						t.Fatalf("%s eft=%v seed %d: task %q: walk %+v, oracle %+v", c.name, eft, seed, ix.ID(ti), gc, wc)
					}
				}
			}
		}
	}
}

// Gathers and walks run while the repository is written: trial weights,
// task records, execution samples and constraint locations change under
// them. Run under -race; the CI stress step does (-run 'Gather'). Each
// gather must finish and every cell must stay a positive prediction or a
// NaN.
func TestGatherConcurrentWithRepositoryWrites(t *testing.T) {
	repo := gatherRepo(t)
	g := gatherGraph(t, 60, 5)
	ix, err := g.Index()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			host := fmt.Sprintf("h%02d", i%8)
			_ = repo.Tasks.SetWeight("rec.plain", host, 0.5+float64(i%5)*0.1)
			_ = repo.Tasks.RecordExecution("rec.base", repository.ExecutionSample{Host: host, Elapsed: time.Duration(i)})
			_ = repo.Tasks.Put(repository.TaskRecord{Function: "ghost", BaseTime: float64(1 + i%3)})
			repo.Constraints.SetLocation("rec.base", host, "/usr/local/bin/rec")
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			sel := &LocalSelector{Site: "gs", Repo: repo}
			if r == 1 {
				sel.Cache = predict.NewCache()
			}
			for i := 0; i < 20; i++ {
				_, pred, err := sel.denseHostCosts(ix)
				if err != nil {
					t.Error(err)
					return
				}
				for _, p := range pred {
					if !math.IsNaN(p) && !(p > 0) {
						t.Errorf("cell prediction %v", p)
						return
					}
				}
				if _, err := sel.selectHosts(ix, g, hostWalk{eft: i%2 == 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// BenchmarkCostGather — the xl-dag cost gather: one 2,000-task dagen DAG
// priced on every host of the 8 × 125 XL environment (repository-backed
// selectors, no prediction cache, one site at a time).
func BenchmarkCostGather(b *testing.B) {
	req := xlEnv(b)
	req.Config.Concurrency = 1
	req.Graph = dagen.Random(dagen.Params{
		Tasks: 2000, CCR: 1, Alpha: 1, OutDegree: 4, Beta: 1,
		CommBandwidth: 1e7, Seed: 7,
	})
	ix, err := req.Graph.Index()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gatherCostMatrix(ix, req); err != nil {
			b.Fatal(err)
		}
	}
}
