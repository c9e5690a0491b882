package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure. Samples is the number of measurements
// behind it; Percentile is set on tail latencies.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples,omitempty"`
	Percentile float64 `json:"percentile,omitempty"`
}

// endToEnd lists the end-to-end metrics every workload reports; they are
// the ones BENCHMARK.json registers. The workload-specific end-to-end
// metrics (tails, submit_*, replan_*, slr_mean, degradation_pct,
// failed_frac) go into the record next to them.
var endToEnd = []string{"setup_s", "latency_p50_ms", "tasks_per_s", "rss_peak_mb"}

// layerSpans lists every span name a traced run can record, in the order
// of the layer table in README.md.
var layerSpans = []string{
	"afg.decode", "afg.index",
	"scheduler.gather", "scheduler.place", "scheduler.simulate", "scheduler.validate",
	"scheduler.run_churn", "scheduler.replan.heft", "scheduler.replan.eft", "scheduler.replan.dup",
	"scheduler.certify",
	"rpc.schedule_batch", "rpc.submit",
	"site.schedule_batch", "site.select_remote", "site.execute",
	"monitor.tick",
}

// layerCounters lists the per-layer counters and gauges with their units.
var layerCounters = []struct{ name, unit string }{
	{"scheduler.run_churn.replans", "count"},
	{"scheduler.run_churn.moved", "count"},
	{"scheduler.run_churn.killed", "count"},
	{"scheduler.run_churn.dup_runs", "count"},
	{"scheduler.replan.dup.promoted_ratio", "ratio"},
	{"runtime.rescheduled", "count"},
	{"predict.invalidations", "count"},
	{"predict.hit_ratio", "ratio"},
	{"predict.entries", "count"},
	{"rpc.overhead_pct", "%"},
	{"trace.overhead_ms", "ms"},
	{"trace.accounted_pct", "%"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_mb", "MB"},
}

// record is one run's full result, appended to the record file.
type record struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Traced     bool                 `json:"traced"`
	Provenance map[string]any       `json:"provenance"`
	SetupS     []float64            `json:"setup_rounds_s"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Metrics    map[string]metric    `json:"metrics"`
	Layers     map[string]metric    `json:"layers,omitempty"`
	Spans      map[string]layerStat `json:"spans,omitempty"`
	TraceFile  string               `json:"trace_file,omitempty"`
}

// addEndToEnd fills the end-to-end metrics from an untraced phase.
func (r *record) addEndToEnd(p *phase, setupS, rssMB float64) {
	m := map[string]metric{
		"setup_s":     {Value: setupS, Unit: "s", Samples: setupRounds},
		"tasks_per_s": {Value: float64(p.tasks) / p.elapsed.Seconds(), Unit: "1/s", Samples: p.attempt},
		"rss_peak_mb": {Value: rssMB, Unit: "MB", Samples: 1},
		"failed_frac": {Value: float64(p.failed) / float64(p.attempt), Unit: "ratio", Samples: p.attempt},
	}
	timing := func(prefix string, xs []float64) {
		if len(xs) == 0 {
			return
		}
		// A figure that lands on a failed op has no finite value to report.
		if v := median(xs); !math.IsInf(v, 0) {
			m[prefix+"_p50_ms"] = metric{Value: v, Unit: "ms", Samples: len(xs)}
		}
		if v, pct, ok := tail(xs); ok && !math.IsInf(v, 0) {
			m[prefix+"_tail_ms"] = metric{Value: v, Unit: "ms", Samples: len(xs), Percentile: pct}
		}
	}
	// A failed op counts as beyond any latency limit.
	lat := append([]float64(nil), p.latMS...)
	for i := 0; i < p.failed; i++ {
		lat = append(lat, math.Inf(1))
	}
	timing("latency", lat)
	if len(p.passMS) > 0 {
		// A serial workload: the p50 is the median op's median over the
		// passes, and the throughput the median pass's, so one slow stretch
		// of the machine moves neither.
		m["latency_p50_ms"] = metric{Value: median(opMedians(p.passMS)), Unit: "ms", Samples: len(lat)}
		var rates []float64
		for _, pass := range p.passMS {
			rates = append(rates, float64(p.passTasks)/(sum(pass)/1e3))
		}
		m["tasks_per_s"] = metric{Value: median(rates), Unit: "1/s", Samples: p.attempt}
	}
	timing("submit", p.submitMS)
	timing("replan", p.replanMS)
	for k, v := range p.quality {
		unit := "ratio"
		if strings.HasSuffix(k, "_pct") {
			unit = "%"
		}
		m[k] = metric{Value: v, Unit: unit, Samples: p.qualityN[k]}
	}
	r.Metrics = m
	r.Attempted, r.Failed = p.attempt, p.failed
}

// addPerLayer fills the per-layer metrics from a traced run. plain is the
// untraced phase of the same run, traced the traced one.
func (r *record) addPerLayer(tr *tracer, plain, traced *phase) {
	spans, counters := tr.snapshot()
	stats := summarize(spans)
	self := selfTimes(spans)

	// Every root span is one op (or one monitor round); their total is
	// the traced run's busy time that self_pct divides.
	var rootNS int64
	accounted := map[int64]int64{} // layer self time per latRoot op
	for _, s := range spans {
		if s.Parent < 0 {
			rootNS += s.EndNS - s.StartNS
			if s.Name == traced.latRoot {
				accounted[s.Trace] = 0
			}
		}
	}
	for i, s := range spans {
		if _, ok := accounted[s.Trace]; ok && s.Name != traced.glue && s.Name != traced.added {
			accounted[s.Trace] += self[i]
		}
	}
	layers := map[string]metric{}
	for _, name := range layerSpans {
		st := stats[name]
		pct := 0.0
		if rootNS > 0 {
			pct = 100 * st.SelfS * 1e9 / float64(rootNS)
		}
		layers[name+".calls"] = metric{Value: float64(st.Calls), Unit: "count"}
		layers[name+".self_pct"] = metric{Value: pct, Unit: "%", Samples: st.Calls}
	}
	if sb, ok := stats["site.schedule_batch"]; ok {
		if rb, ok := stats["rpc.schedule_batch"]; ok && rb.P50MS > 0 {
			counters["rpc.overhead_pct"] = 100 * (rb.P50MS - sb.P50MS) / rb.P50MS
		}
	}
	// The untraced baseline: ops timed untraced between the traced ones
	// where the workload interleaves them (the serial workloads), else
	// the untraced region before the traced one.
	plainP50 := median(plain.latMS)
	if len(traced.plainMS) > 0 {
		plainP50 = median(traced.plainMS)
	}
	counters["trace.overhead_ms"] = median(traced.latMS) - plainP50
	// The median op's layer self time against the untraced p50: how much
	// of the end-to-end latency the layer spans explain.
	var acc []float64
	for _, ns := range accounted {
		acc = append(acc, float64(ns)/1e6)
	}
	if len(acc) > 0 && plainP50 > 0 {
		counters["trace.accounted_pct"] = 100 * median(acc) / plainP50
	}
	for _, c := range layerCounters {
		layers[c.name] = metric{Value: counters[c.name], Unit: c.unit}
	}
	r.Layers = layers
	r.Spans = stats
}

// result is the contract line: end-to-end metrics untraced, per-layer
// metrics traced.
func (r *record) result() map[string]any {
	metrics := map[string]metric{}
	if r.Traced {
		for k, v := range r.Layers {
			metrics[k] = metric{Value: v.Value, Unit: v.Unit}
		}
	} else {
		for _, k := range endToEnd {
			v := r.Metrics[k]
			metrics[k] = metric{Value: v.Value, Unit: v.Unit}
		}
	}
	return map[string]any{
		"correct":   true,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}

// lines renders every metric by name, unit and sample count.
func (r *record) lines() []string {
	var out []string
	out = append(out, fmt.Sprintf("workload %s seed %d traced %v: %d ops attempted, %d failed, setup rounds %v s",
		r.Workload, r.Seed, r.Traced, r.Attempted, r.Failed, r.SetupS))
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		line := fmt.Sprintf("  %-18s %14.6g %-5s n=%d", k, m.Value, m.Unit, m.Samples)
		if m.Percentile > 0 {
			line += fmt.Sprintf(" (p%.1f)", m.Percentile)
		}
		out = append(out, line)
	}
	if r.Traced {
		spanNames := make([]string, 0, len(r.Spans))
		for k := range r.Spans {
			spanNames = append(spanNames, k)
		}
		sort.Strings(spanNames)
		out = append(out, fmt.Sprintf("  %-22s %7s %10s %10s %10s %10s", "span", "calls", "busy_s", "self_s", "p50_ms", "alloc_mb"))
		for _, k := range spanNames {
			s := r.Spans[k]
			out = append(out, fmt.Sprintf("  %-22s %7d %10.4f %10.4f %10.4f %10.2f", k, s.Calls, s.BusyS, s.SelfS, s.P50MS, s.AllocMB))
		}
		for _, c := range layerCounters {
			out = append(out, fmt.Sprintf("  %-36s %12.6g %s", c.name, r.Layers[c.name].Value, c.unit))
		}
	}
	return out
}

// appendRecord appends rec as one JSON line; records are never rewritten.
func appendRecord(path string, rec *record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// provenance describes the build and machine a record comes from.
func provenance(seed int64, seconds int) map[string]any {
	commit := os.Getenv("GITHUB_SHA")
	if commit == "" {
		commit = "unknown"
		// Only a repository rooted here counts: git must not walk up into
		// whatever repository happens to contain the checkout.
		cmd := exec.Command("git", "rev-parse", "HEAD")
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"seed":       seed,
		"seconds":    seconds,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS resets the kernel's resident-set high-water mark, so the
// peak read later covers only what ran since, not an earlier set-up round.
// Writing "5" to clear_refs needs Linux ≥ 4.0; without it the peak covers
// the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns VmHWM in MiB, or NaN when /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcCPUSeconds() float64 {
	metrics.Read(gcCPUSample)
	return gcCPUSample[0].Value.Float64()
}
