package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// opListBytes serialises an op list exactly as the clients send it.
func opListBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	ops, warm, probe, err := rpcOps(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, op := range append(ops, warm, probe) {
		var err error
		if op.batch != nil {
			err = enc.Encode(op.batch)
		} else {
			err = enc.Encode(op.submit)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func churnBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var out []byte
	for _, g := range churnGraphs(seed) {
		raw, err := g.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw...)
	}
	return out
}

func xlBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	payloads, err := xlPayloads(seed, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Join(payloads, nil)
}

func TestSeedDeterminesInputs(t *testing.T) {
	for name, gen := range map[string]func(*testing.T, int64) []byte{
		"site-rpc op list": opListBytes,
		"churn DAGs":       churnBytes,
		"xl-dag payloads":  xlBytes,
	} {
		a, b, c := gen(t, 7), gen(t, 7), gen(t, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different bytes", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave identical bytes", name)
		}
	}
}

func TestOpListShape(t *testing.T) {
	ops, _, _, err := rpcOps(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3*rpcBlock {
		t.Fatalf("%d ops, want %d", len(ops), 3*rpcBlock)
	}
	for i, op := range ops {
		isBatch := i%rpcBlock == 0
		if (op.batch != nil) != isBatch {
			t.Fatalf("op %d: batch=%v, want %v", i, op.batch != nil, isBatch)
		}
		if isBatch && len(op.batch.AFGs) != rpcBatchDAGs {
			t.Fatalf("op %d: %d graphs, want %d", i, len(op.batch.AFGs), rpcBatchDAGs)
		}
	}
	if ops[0].batch.Policy == ops[rpcBlock].batch.Policy {
		t.Fatalf("consecutive batches share policy %q", ops[0].batch.Policy)
	}
}

// BENCHMARK.json must register exactly the metrics the result line prints.
func TestBenchmarkJSONMatchesResultLine(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside this directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	plain := &phase{latMS: []float64{1, 2}, tasks: 3, attempt: 2, elapsed: 1e9}
	rec := &record{}
	rec.addEndToEnd(plain, 1, 10)
	tr := newTracer(false)
	rec.Traced = true
	rec.addPerLayer(tr, plain, plain)
	for _, c := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
		rec.Traced = c.traced
		got := rec.result()["metrics"].(map[string]metric)
		var gotNames, wantNames []string
		for k, m := range got {
			gotNames = append(gotNames, k+" "+m.Unit)
		}
		for _, m := range c.want {
			wantNames = append(wantNames, m.Name+" "+m.Unit)
		}
		sort.Strings(gotNames)
		sort.Strings(wantNames)
		if len(gotNames) != len(wantNames) {
			t.Fatalf("traced=%v: result has %v, BENCHMARK.json %v", c.traced, gotNames, wantNames)
		}
		for i := range gotNames {
			if gotNames[i] != wantNames[i] {
				t.Fatalf("traced=%v: result has %q, BENCHMARK.json %q", c.traced, gotNames[i], wantNames[i])
			}
		}
	}
}
