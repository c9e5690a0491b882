// Command vdcebench is the end-to-end benchmark of the VDCE reproduction.
// It drives three workloads through the public functions of the afg,
// scheduler, predict, site, monitor and runtime packages, checks every
// output, and prints every metric by name with its unit and sample count.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, taken from a traced run. Each
// run also appends a full record with provenance to
// .bench_results/records.jsonl. "vdcebench compare" compares two record
// sets; see README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// morePasses reports whether a serial workload starts another pass over
// its op list: until min passes are done, and then while one more pass of
// the mean length so far still ends within d.
func morePasses(done, min int, elapsed, d time.Duration) bool {
	if done < min {
		return true
	}
	return elapsed+elapsed/time.Duration(done) <= d
}

// setupRounds is how many times a run sets its workload up; setup_s is the
// median, so one slow round does not move it.
const setupRounds = 3

// workload is one benchmark workload. A value is built fresh for every
// setup round.
type workload interface {
	// setup builds everything before the first timed op: sites,
	// repositories, listeners, pre-encoded inputs and one warm-up op.
	setup() error
	// measure runs ops for at least d (and until every distinct input was
	// covered once), recording spans into tr when it is non-nil.
	measure(d time.Duration, tr *tracer) (*phase, error)
	// close releases listeners and connections and waits for them.
	close()
}

// phase is what one timed region produced.
type phase struct {
	latMS    []float64 // the workload's unit of work
	plainMS  []float64 // traced region: the units of work timed untraced between traced ones
	submitMS []float64 // site-rpc: Site.Submit round trips
	replanMS []float64 // churn: Replanner.Replan calls
	tasks    int       // tasks completed
	attempt  int       // ops attempted
	failed   int       // ops failed or refused
	elapsed  time.Duration
	// passMS is set by the serial workloads, which run whole passes over
	// a fixed op list: passMS[k][i] is op i's time in untraced pass k, and
	// passTasks the tasks one pass completes. latency_p50_ms then comes
	// from each op's median over the passes, tasks_per_s from the median
	// pass.
	passMS    [][]float64
	passTasks int
	// quality holds the deterministic metrics (slr_mean, degradation_pct)
	// and qualityN the number of scored items behind each.
	quality  map[string]float64
	qualityN map[string]int
	// latRoot names the root span of the ops latMS times; glue names a
	// span whose self time is the benchmark's own code, and added one the
	// traced run adds on top of the untraced work. trace.accounted_pct
	// sums the other spans' self time per latRoot op.
	latRoot, glue, added string
}

var workloads = map[string]func(seed int64) workload{
	"xl-dag":   newXLDag,
	"site-rpc": newSiteRPC,
	"churn":    newChurn,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("vdcebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: xl-dag, site-rpc or churn")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of one timed region in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("records", filepath.Join(".bench_results", "records.jsonl"), "append-only JSON-lines record file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "vdcebench: need -workload (xl-dag, site-rpc, churn), -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	rec, err := run(*name, mk, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdcebench: workload %s (seed %d): %v\n", *name, *seed, err)
		return 1
	}
	rec.Provenance = provenance(*seed, *seconds)
	for _, line := range rec.lines() {
		fmt.Fprintln(stdout, line)
	}
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintf(os.Stderr, "vdcebench: %v\n", err)
		return 1
	}
	last, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "vdcebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	return 0
}

// run sets the workload up setupRounds times, keeps the last deployment,
// and measures it: untraced for the end-to-end metrics, or untraced and
// then traced for the per-layer ones.
func run(name string, mk func(int64) workload, seed int64, d time.Duration, traced bool) (*record, error) {
	var setups []float64
	var w workload
	for r := 0; r < setupRounds; r++ {
		if w != nil {
			w.close()
			w = nil
		}
		releaseMemory()
		t0 := time.Now()
		cand := mk(seed)
		if err := cand.setup(); err != nil {
			cand.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		w = cand
	}
	defer func() { w.close() }()

	releaseMemory()
	resetPeakRSS()
	// A traced run reports only per-layer metrics; its untraced region is
	// the reference the traced one is checked and compared against, and a
	// third of the run length serves for that.
	plainD := d
	if traced {
		plainD = d / 3
	}
	plain, err := w.measure(plainD, nil)
	if err != nil {
		return nil, err
	}
	rec := &record{Workload: name, Seed: seed, Traced: traced, SetupS: setups}
	rec.addEndToEnd(plain, median(setups), peakRSSMB())
	if !traced {
		return rec, nil
	}
	// The traced phase runs on a fresh set-up, so state the untraced phase
	// left behind (site-rpc's grown caches) does not carry over.
	w.close()
	releaseMemory()
	w = mk(seed)
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	tr := newTracer(name != "site-rpc")
	gc0 := gcCPUSeconds()
	alloc0 := heapAllocBytes()
	tp, err := w.measure(d, tr)
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	if r, ok := w.(replayer); ok {
		if err := r.replay(d, tr); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	tr.set("go.gc_cpu_s", gcCPUSeconds()-gc0)
	tr.set("go.alloc_mb", float64(heapAllocBytes()-alloc0)/(1<<20))
	if err := checkSameQuality(plain, tp); err != nil {
		return nil, err
	}
	rec.addPerLayer(tr, plain, tp)
	path := filepath.Join(".bench_results", fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rec.TraceFile = path
	return rec, nil
}

// replayer is a workload whose traced run adds an in-process replay of its
// ops (site-rpc: the site.* spans).
type replayer interface {
	replay(d time.Duration, tr *tracer) error
}

// checkSameQuality fails when the traced run scored differently from the
// untraced one: the deterministic metrics may not depend on tracing.
func checkSameQuality(a, b *phase) error {
	keys := make([]string, 0, len(a.quality))
	for k := range a.quality {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if b.quality[k] != a.quality[k] {
			return fmt.Errorf("check: %s differs between the untraced (%v) and traced (%v) runs", k, a.quality[k], b.quality[k])
		}
	}
	return nil
}

// releaseMemory returns freed heap to the OS so one setup round's garbage
// does not count towards the next round's memory.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

var errCheck = errors.New("output check failed")
