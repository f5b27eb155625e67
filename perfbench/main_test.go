package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adavp/internal/sim"
)

// TestHookTransparency runs offline-pixel bare, under the result hooks and
// under the traced wrappers (PrepareInput/DetectPrepared,
// Pyramid.Rebuild + InitWithPyramid/StepWithPyramid): all three must give
// byte-identical outputs.
func TestHookTransparency(t *testing.T) {
	vs := offlineVideos(0)
	sizes := []int{offlineFrames, offlineFrames, offlineFrames}
	bare, err := runPass(vs, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newReport()
	if !matchesReference(r, bare, vs) {
		t.Errorf("bare run differs from reference.json (regenerate with -write-reference only for an intended output change): %v", r.Failures)
	}
	for _, m := range []struct {
		name string
		in   *instrument
	}{
		{"hooked", newInstrument(false, sizes)},
		{"traced", newInstrument(true, sizes)},
	} {
		p, err := runPass(vs, m.in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vs {
			if p.hashes[i] != bare.hashes[i] {
				t.Errorf("%s %s: outputs differ from the bare run", m.name, vs[i].Name)
			}
			if a, b := p.results[i].Accuracy, bare.results[i].Accuracy; a != b {
				t.Errorf("%s %s: accuracy %v, bare %v", m.name, vs[i].Name, a, b)
			}
		}
		if m.in.tr != nil {
			st := analyze(m.in.tr.recorded())
			if st.count[spanDetect] == 0 || st.count[spanBlob] != st.count[spanDetect] ||
				st.count[spanShiTomasi] != st.count[spanTrackInit] || st.count[spanLK] != st.count[spanTrackStep] {
				t.Errorf("traced span counts do not nest: %v", st.count)
			}
		}
	}
}

// TestReplayReproducesRun checks that the stage-sum replay drives sim.Run
// through exactly the recorded calls and ends in the same outputs.
func TestReplayReproducesRun(t *testing.T) {
	vs := offlineVideos(0)
	bare, recs, err := recordPass(vs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if _, err := recs[i].replayTime(v); err != nil {
			t.Fatal(err)
		}
		recs[i].pos = 0
		res, err := sim.Run(v, recs[i].config())
		if err != nil {
			t.Fatal(err)
		}
		if got := outputsHash(res.Run.Outputs); got != bare.hashes[i] {
			t.Errorf("%s: replayed outputs differ from the recorded run", v.Name)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step with
// the BENCHMARK.json the benchmark is run from.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
	for _, tc := range []struct {
		json  []struct{ Name, Unit string }
		table []struct{ name, unit string }
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.table) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(tc.json), len(tc.table))
		}
		for i, m := range tc.json {
			if m.Name != tc.table[i].name || m.Unit != tc.table[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, tc.table[i].name, tc.table[i].unit)
			}
		}
	}
}
