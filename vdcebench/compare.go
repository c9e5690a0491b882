package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// The comparer reads two sets of untraced run records (JSON lines, as
// appended by the benchmark) and judges every (workload, metric) pair the
// two sets share, with the bounds BENCHMARK.json fixes:
//
//   - unresolved: either side's quartile spread exceeds the bound, and
//     not every head run beats every base run;
//   - regression: the head median is worse than the base median by more
//     than the bound (or a deterministic metric changed for the worse);
//   - improved: the head wins at least 9 in 10 pairs and the medians
//     differ by more than the base quartile distance;
//   - same: none of the above.
//
// Metrics BENCHMARK.json does not bound are reported without a verdict,
// except the deterministic ones, which must match exactly per seed.

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// deterministic metrics are pure functions of the seed.
var deterministic = map[string]bool{"slr_mean": true, "degradation_pct": true}

// lowerIsBetter gives a metric's direction: BENCHMARK.json's for a
// registered metric; for the others, lower except tasks_per_s.
func lowerIsBetter(name string, bounds map[string]bound) bool {
	if b, ok := bounds[name]; ok {
		return b.Better != "higher"
	}
	return name != "tasks_per_s"
}

// verdictRow is one compared (workload, metric) pair.
type verdictRow struct {
	Workload, Metric string
	BaseQ, HeadQ     [3]float64 // quartiles: q1, median, q3
	BaseN, HeadN     int
	WinFrac          float64 // share of seed-matched pairs the head wins
	Bound            float64 // 0 = none registered
	Verdict          string
}

type sample struct {
	seed  int64
	value float64
}

// collect groups untraced records by workload and metric.
func collect(recs []record) map[string]map[string][]sample {
	out := map[string]map[string][]sample{}
	for _, r := range recs {
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]sample{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], sample{r.Seed, m.Value})
		}
	}
	return out
}

func values(ss []sample) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.value
	}
	return v
}

// pairs matches base and head samples by seed, in order within a seed.
func pairs(base, head []sample) [][2]float64 {
	bySeed := map[int64][]float64{}
	for _, s := range base {
		bySeed[s.seed] = append(bySeed[s.seed], s.value)
	}
	var out [][2]float64
	for _, s := range head {
		if q := bySeed[s.seed]; len(q) > 0 {
			out = append(out, [2]float64{q[0], s.value})
			bySeed[s.seed] = q[1:]
		}
	}
	return out
}

// compareSets judges every (workload, metric) pair present in both sets.
func compareSets(base, head []record, bounds map[string]bound) []verdictRow {
	b, h := collect(base), collect(head)
	var rows []verdictRow
	for wl, bm := range b {
		hm, ok := h[wl]
		if !ok {
			continue
		}
		for name, bs := range bm {
			hs, ok := hm[name]
			if !ok {
				continue
			}
			rows = append(rows, judge(wl, name, bs, hs, bounds))
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		return rows[i].Metric < rows[j].Metric
	})
	return rows
}

func judge(wl, name string, bs, hs []sample, bounds map[string]bound) verdictRow {
	lower := lowerIsBetter(name, bounds)
	// worse reports how much worse y is than x, as a share of x.
	worse := func(x, y float64) float64 {
		if x == 0 {
			return 0
		}
		if lower {
			return (y - x) / math.Abs(x)
		}
		return (x - y) / math.Abs(x)
	}
	bv, hv := values(bs), values(hs)
	row := verdictRow{Workload: wl, Metric: name, BaseN: len(bv), HeadN: len(hv)}
	row.BaseQ[0], row.BaseQ[1], row.BaseQ[2] = quartiles(bv)
	row.HeadQ[0], row.HeadQ[1], row.HeadQ[2] = quartiles(hv)
	ps := pairs(bs, hs)
	wins := 0
	for _, p := range ps {
		if worse(p[0], p[1]) < 0 {
			wins++
		}
	}
	if len(ps) > 0 {
		row.WinFrac = float64(wins) / float64(len(ps))
	}
	change := worse(row.BaseQ[1], row.HeadQ[1])

	if deterministic[name] {
		row.Verdict = "same"
		for _, p := range ps {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				row.Verdict = "changed"
			}
		}
		if row.Verdict == "changed" && change > 0 {
			row.Verdict = "regression"
		}
		return row
	}
	bd, ok := bounds[name]
	if !ok {
		row.Verdict = "-"
		return row
	}
	row.Bound = bd.Bound
	allBetter := true
	for _, x := range bv {
		for _, y := range hv {
			if worse(x, y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case (spread(bv) > bd.Bound || spread(hv) > bd.Bound) && !allBetter:
		row.Verdict = "unresolved"
	case change > bd.Bound:
		row.Verdict = "regression"
	case row.WinFrac >= 0.9 && change < 0 && math.Abs(row.HeadQ[1]-row.BaseQ[1]) > math.Abs(row.BaseQ[2]-row.BaseQ[0]):
		row.Verdict = "improved"
	default:
		row.Verdict = "same"
	}
	return row
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func readBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, b := range spec.EndToEnd {
		out[b.Name] = b
	}
	return out, nil
}

// compareMain is "vdcebench compare [-bench BENCHMARK.json] BASE HEAD". It
// exits 1 on a regression, 2 on bad input, 0 otherwise.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vdcebench compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: vdcebench compare [-bench BENCHMARK.json] BASE.jsonl HEAD.jsonl")
		return 2
	}
	bounds, err := readBounds(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdcebench compare: %v\n", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdcebench compare: %v\n", err)
		return 2
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdcebench compare: %v\n", err)
		return 2
	}
	rows := compareSets(base, head, bounds)
	fmt.Fprintf(stdout, "%-9s %-18s %4s %12s %12s %12s %4s %12s %12s %12s %5s %6s  %s\n",
		"workload", "metric", "n", "base q1", "base med", "base q3", "n", "head q1", "head med", "head q3", "wins", "bound", "verdict")
	regressions := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-9s %-18s %4d %12.6g %12.6g %12.6g %4d %12.6g %12.6g %12.6g %5.2f %6.3g  %s\n",
			r.Workload, r.Metric, r.BaseN, r.BaseQ[0], r.BaseQ[1], r.BaseQ[2],
			r.HeadN, r.HeadQ[0], r.HeadQ[1], r.HeadQ[2], r.WinFrac, r.Bound, r.Verdict)
		if r.Verdict == "regression" {
			regressions++
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s)\n", regressions)
		return 1
	}
	return 0
}
