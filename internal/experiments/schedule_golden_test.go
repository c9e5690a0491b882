package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scheduleGoldenExperiment is one experiment's deterministic output: every
// Series row and metric except wall-clock timings.
type scheduleGoldenExperiment struct {
	ID      string             `json:"id"`
	Labels  []string           `json:"labels"`
	Rows    [][]float64        `json:"rows"`
	Metrics map[string]float64 `json:"metrics"`
}

// isTiming reports whether a column label or metric key is a wall-clock
// measurement, which no golden can pin.
func isTiming(label string) bool {
	return strings.Contains(label, "wall") || strings.HasSuffix(label, "_ms")
}

// scheduleGoldenRun runs the experiments that exercise the Site Scheduler,
// the naive baselines and batch scheduling at seed 1 and strips their
// timings.
func scheduleGoldenRun(t *testing.T) []scheduleGoldenExperiment {
	t.Helper()
	runs := []func(int64) (*Result, error){
		Fig1MultiSite, Fig4SiteScheduler, Fig5HostSelection,
		ScheduleQuality, AvailabilityScheduling, PolicyComparison,
	}
	var out []scheduleGoldenExperiment
	for _, run := range runs {
		r, err := run(1)
		if err != nil {
			t.Fatal(err)
		}
		// Column 0 is the x value; column i+1 carries YLabels[i].
		keep := []int{0}
		labels := []string{r.Series.XLabel}
		for i, l := range r.Series.YLabels {
			if !isTiming(l) {
				keep = append(keep, i+1)
				labels = append(labels, l)
			}
		}
		e := scheduleGoldenExperiment{ID: r.ID, Labels: labels, Metrics: map[string]float64{}}
		for _, row := range r.Series.Rows {
			kept := make([]float64, 0, len(keep))
			for _, c := range keep {
				kept = append(kept, row[c])
			}
			e.Rows = append(e.Rows, kept)
		}
		for k, v := range r.Metrics {
			if !isTiming(k) {
				e.Metrics[k] = v
			}
		}
		out = append(out, e)
	}
	return out
}

// TestScheduleGolden pins the deterministic output of FIG1, FIG4, FIG5,
// TAB-SCHED, LEDGER and POLICY byte for byte. A change to these numbers
// changed scheduling behaviour: fix the regression, or re-bless with
//
//	go test ./internal/experiments -run TestScheduleGolden -update
func TestScheduleGolden(t *testing.T) {
	data, err := json.MarshalIndent(scheduleGoldenRun(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "schedule_golden.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("experiment output drifted from %s; re-bless with -update if intended", path)
	}
}
