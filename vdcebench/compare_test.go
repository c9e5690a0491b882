package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// runs builds one untraced record per value, seeds 1..n.
func runs(name string, vals ...float64) []record {
	var out []record
	for i, v := range vals {
		out = append(out, record{Workload: "w", Seed: int64(i + 1),
			Metrics: map[string]metric{name: {Value: v}}})
	}
	return out
}

func verdictOf(t *testing.T, metric string, base, head []float64) verdictRow {
	t.Helper()
	bounds := map[string]bound{
		"latency_p50_ms": {Name: "latency_p50_ms", Better: "lower", Bound: 0.1},
		"tasks_per_s":    {Name: "tasks_per_s", Better: "higher", Bound: 0.1},
	}
	rows := compareSets(runs(metric, base...), runs(metric, head...), bounds)
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	return rows[0]
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	cases := []struct {
		name, metric string
		head         []float64
		want         string
	}{
		{"same", "latency_p50_ms", []float64{101, 100, 100, 99, 101, 100, 102, 99, 100, 100}, "same"},
		{"slower beyond bound", "latency_p50_ms", []float64{125, 126, 124, 125, 127, 123, 125, 126, 124, 125}, "regression"},
		{"faster in every pair", "latency_p50_ms", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "improved"},
		{"too noisy to judge", "latency_p50_ms", []float64{60, 140, 70, 150, 80, 160, 90, 130, 100, 120}, "unresolved"},
		{"higher is better", "tasks_per_s", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "regression"},
		{"unbounded metric", "submit_p50_ms", []float64{500, 500, 500, 500, 500, 500, 500, 500, 500, 500}, "-"},
		{"deterministic unchanged", "slr_mean", steady, "same"},
		{"deterministic worse", "slr_mean", []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 107}, "changed"},
		{"deterministic much worse", "degradation_pct", []float64{110, 111, 109, 110, 112, 108, 110, 111, 109, 110}, "regression"},
	}
	for _, c := range cases {
		got := verdictOf(t, c.metric, steady, c.head)
		if got.Verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (row %+v)", c.name, got.Verdict, c.want, got)
		}
	}
	if r := verdictOf(t, "latency_p50_ms", steady, []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}); r.WinFrac != 1 {
		t.Errorf("win fraction %v, want 1", r.WinFrac)
	}
}

func TestCompareMainExitsNonZeroOnRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		p := filepath.Join(dir, name)
		for _, r := range recs {
			if err := appendRecord(p, &r); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	spec, _ := json.Marshal(map[string]any{"end_to_end": []bound{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}})
	if err := os.WriteFile(bench, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.jsonl", runs("latency_p50_ms", 100, 100, 101, 99, 100))
	slow := write("slow.jsonl", runs("latency_p50_ms", 150, 151, 149, 150, 150))
	if code := compareMain([]string{"-bench", bench, base, slow}, io.Discard); code != 1 {
		t.Errorf("regression: exit %d, want 1", code)
	}
	if code := compareMain([]string{"-bench", bench, base, base}, io.Discard); code != 0 {
		t.Errorf("identical sets: exit %d, want 0", code)
	}
}
