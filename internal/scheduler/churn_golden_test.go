package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/afg"
	"repro/internal/dagen"
)

// update rewrites the CHURN golden instead of comparing against it:
//
//	go test ./internal/scheduler -run TestChurnGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

// churnGoldenReplanners are the built-in re-planners the golden pins.
var churnGoldenReplanners = []string{"dup", "eft", "heft"}

// churnGoldenRun is one (size, CCR, seed, trace) cell of the golden grid:
// the fault-free Simulate makespan of the HEFT plan and every re-planner's
// full outcome under the same seeded trace.
type churnGoldenRun struct {
	Size      int                  `json:"size"`
	CCR       float64              `json:"ccr"`
	Seed      int64                `json:"seed"`
	Trace     string               `json:"trace"`
	Parallel  int                  `json:"parallel"` // multi-host assignments in the plan
	FaultFree float64              `json:"fault_free"`
	Outcomes  []churnGoldenOutcome `json:"outcomes"`
}

type churnGoldenOutcome struct {
	Replanner string `json:"replanner"`
	ChurnOutcome
}

// churnGoldenGraph is a dagen DAG with every fifth interior task switched
// to parallel mode on two processors, so the grid pins the multi-host
// start, kill and transfer rules too.
func churnGoldenGraph(size int, ccr float64, seed int64) *afg.Graph {
	g := dagen.Random(dagen.Params{
		Tasks: size, CCR: ccr, Alpha: 1, OutDegree: 3, Beta: 1,
		CommBandwidth: 1e7, Seed: seed,
	})
	ids := g.TaskIDs()
	for i := 2; i < len(ids)-1; i += 5 {
		task := g.Task(ids[i])
		task.Mode, task.Processors = afg.Parallel, 2
	}
	return g
}

// churnGoldenGrid replays the fixed grid: sizes 10/30/100 × CCR 0.5/2 × two
// seeds, each under the default trace and under a harsher repairing variant
// (half the fleet fails and comes back a quarter of the fault-free
// makespan later), which drives the kill, promotion and recovery paths.
func churnGoldenGrid(t *testing.T) []churnGoldenRun {
	t.Helper()
	heft, err := Lookup("heft")
	if err != nil {
		t.Fatal(err)
	}
	var runs []churnGoldenRun
	for _, size := range []int{10, 30, 100} {
		for _, ccr := range []float64{0.5, 2} {
			for _, seed := range []int64{1, 2} {
				req, repos, net := heftEnv(t)
				model := heftTruth(repos)
				var refs []HostRef
				var names []string
				for _, site := range []string{"alpha", "beta", "gamma"} {
					for _, rec := range repos[site].Resources.List() {
						refs = append(refs, HostRef{Site: site, Host: rec.Static.HostName})
						names = append(names, rec.Static.HostName)
					}
				}
				g := churnGoldenGraph(size, ccr, seed)
				req.Graph = g
				table, err := heft.Schedule(context.Background(), req)
				if err != nil {
					t.Fatalf("v=%d ccr=%g seed=%d: %v", size, ccr, seed, err)
				}
				parallel := 0
				for _, id := range g.TaskIDs() {
					if a, _ := table.Get(id); len(a.Hosts) > 1 {
						parallel++
					}
				}
				fair, err := Simulate(g, table, model, net)
				if err != nil {
					t.Fatal(err)
				}
				traces := []struct {
					name string
					cfg  ChurnTraceConfig
				}{
					{"default", DefaultChurnTrace},
					{"repair", ChurnTraceConfig{
						FailFraction: 0.5, RepairAfter: fair / 4,
						StraggleFraction: DefaultChurnTrace.StraggleFraction,
						StraggleFactor:   DefaultChurnTrace.StraggleFactor,
					}},
				}
				for _, tc := range traces {
					trace := GenerateChurnTrace(names, fair, tc.cfg, seed*1009+int64(size))
					run := churnGoldenRun{Size: size, CCR: ccr, Seed: seed, Trace: tc.name,
						Parallel: parallel, FaultFree: fair}
					for _, name := range churnGoldenReplanners {
						out, err := RunChurn(g, table, model, net, refs, trace,
							ChurnConfig{OverrunThreshold: 1.5, Replanner: name})
						if err != nil {
							t.Fatalf("v=%d ccr=%g seed=%d %s/%s: %v", size, ccr, seed, tc.name, name, err)
						}
						run.Outcomes = append(run.Outcomes, churnGoldenOutcome{Replanner: name, ChurnOutcome: *out})
					}
					runs = append(runs, run)
				}
			}
		}
	}
	return runs
}

// TestChurnGolden pins every ChurnOutcome field for every built-in
// re-planner on a fixed grid, plus the fault-free makespan. Any change to
// these numbers changed the executor's or a re-planner's behaviour and
// must either be fixed or consciously re-blessed with -update.
func TestChurnGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays a 24-cell grid under churn")
	}
	runs := churnGoldenGrid(t)
	got, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "churn_golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs × %d re-planners)", path, len(runs), len(churnGoldenReplanners))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var blessed []churnGoldenRun
	if err := json.Unmarshal(want, &blessed); err != nil {
		t.Fatal(err)
	}
	if len(blessed) != len(runs) {
		t.Fatalf("run count changed: golden %d, now %d", len(blessed), len(runs))
	}
	for i, w := range blessed {
		if g := runs[i]; fmt.Sprint(w) != fmt.Sprint(g) {
			t.Errorf("run %d (v=%d ccr=%g seed=%d %s) drifted:\n golden %+v\n    now %+v",
				i, w.Size, w.CCR, w.Seed, w.Trace, w, g)
		}
	}
	t.Fatal("churn golden drifted — fix the regression or re-bless with -update if intended")
}
