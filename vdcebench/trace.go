package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own code, around each
// call it makes into a layer of the program; the program itself carries no
// tracing. Spans live in memory and are written out when the run ends.

// span is one timed call into a layer. Trace is the id of the operation
// that caused it; Parent is the index of the enclosing span, -1 for an
// operation's root.
type span struct {
	Name       string `json:"name"`
	Trace      int64  `json:"trace"`
	Parent     int32  `json:"parent"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// tracer collects spans. A nil tracer records nothing, so workload code
// calls it unconditionally and the untraced run pays one nil check per
// call site.
type tracer struct {
	epoch  time.Time
	allocs bool // sample heap allocation per span (serial workloads only)

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer(allocs bool) *tracer {
	return &tracer{epoch: time.Now(), allocs: allocs, counters: map[string]float64{}}
}

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(trace int64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	var alloc uint64
	if t.allocs {
		alloc = heapAllocBytes()
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, StartNS: start, AllocBytes: alloc})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	var alloc uint64
	if t.allocs {
		alloc = heapAllocBytes()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.EndNS = now
	if t.allocs {
		s.AllocBytes = alloc - s.AllocBytes
	}
}

// add bumps a named counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// set overwrites a named gauge.
func (t *tracer) set(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] = v
	t.mu.Unlock()
}

// snapshot returns a copy of the spans and counters.
func (t *tracer) snapshot() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := make(map[string]float64, len(t.counters))
	for k, v := range t.counters {
		c[k] = v
	}
	return append([]span(nil), t.spans...), c
}

// write stores the spans and counters as one JSON document.
func (t *tracer) write(path string) error {
	spans, counters := t.snapshot()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans    []span             `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{spans, counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

var heapAllocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var heapAllocMu sync.Mutex

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	heapAllocMu.Lock()
	defer heapAllocMu.Unlock()
	metrics.Read(heapAllocSample)
	return heapAllocSample[0].Value.Uint64()
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children. Overlapping children (concurrent calls
// under one parent) are merged first, so covered time is never counted
// twice and self time never goes negative.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].StartNS, spans[c].EndNS
			if lo < s.StartNS {
				lo = s.StartNS
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				if v.hi > curHi {
					curHi = v.hi
				}
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerStat summarises every span of one name.
type layerStat struct {
	Calls   int     `json:"calls"`
	BusyS   float64 `json:"busy_s"`
	SelfS   float64 `json:"self_s"`
	P50MS   float64 `json:"p50_ms"`
	AllocMB float64 `json:"alloc_mb,omitempty"`
}

// summarize folds spans into per-name statistics.
func summarize(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	out := map[string]layerStat{}
	for i, s := range spans {
		st := out[s.Name]
		d := float64(s.EndNS - s.StartNS)
		st.Calls++
		st.BusyS += d / 1e9
		st.SelfS += float64(self[i]) / 1e9
		st.AllocMB += float64(s.AllocBytes) / (1 << 20)
		out[s.Name] = st
		durs[s.Name] = append(durs[s.Name], d/1e6)
	}
	for name, st := range out {
		st.P50MS = median(durs[name])
		out[name] = st
	}
	return out
}
