package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// short runs one deployment of workload for one second.
func short(t *testing.T, workload string, corrupt bool) *result {
	t.Helper()
	res, err := benchmark(options{workload: workload, seed: 7, seconds: 1, reps: 1,
		out: t.TempDir(), corrupt: corrupt, log: io.Discard})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// A wrong expectation must fail the run: every check of every workload
// compares against the expectations corrupt flips.
func TestCorruptExpectationFailsRun(t *testing.T) {
	for workload := range starts {
		t.Run(workload, func(t *testing.T) {
			if res := short(t, workload, false); !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("clean run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			res := short(t, workload, true)
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted run: correct=%v failed=%d, want an incorrect run", res.Correct, res.Failed)
			}
			for _, m := range endToEnd {
				if _, ok := res.Metrics[m[0]]; !ok {
					t.Errorf("metric %s missing", m[0])
				}
			}
		})
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(starts) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(starts))
	}
	for _, w := range spec.Workloads {
		if starts[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, got []named, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m[0] || got[i].Unit != m[1] {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, m[0], m[1])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// Self time charges each instant of a request to the deepest span over
// it; what no span covers is unattributed.
func TestAnalyzeSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	spans := []span{
		{id: 1, stream: "main", name: "request", start: at(0), end: at(100)},
		{id: 1, parent: "request", name: "frontend", start: at(10), end: at(90)},
		{id: 1, parent: "frontend", name: "worker", start: at(20), end: at(60)},
		{id: 1, parent: "frontend", name: "worker", start: at(30), end: at(70)},
		// An id-less compute span is assigned to its stream's request.
		{stream: "main", parent: "frontend", name: "compute.F", start: at(75), end: at(80)},
	}
	a := analyze(spans)
	want := map[string]float64{"frontend": 25, "worker": 50, "compute": 5, "unattributed": 20}
	for l, v := range want {
		if a.self[l] != v {
			t.Errorf("self %s = %v µs, want %v", l, a.self[l], v)
		}
	}
	if a.unattributed != 0.2 {
		t.Errorf("unattributed ratio = %v, want 0.2", a.unattributed)
	}
	if got := median(a.named["cluster.hop_us"]); got != 40 {
		t.Errorf("cluster hop = %v µs, want the 80 µs handler minus the slowest 40 µs worker", got)
	}
	if got := median(a.named["cluster.chunk_skew"]); got != 1 {
		t.Errorf("chunk skew = %v, want 1 for two equal workers", got)
	}
}
