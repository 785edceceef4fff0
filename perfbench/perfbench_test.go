package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestGeneratorDeterministic: one seed yields identical inputs twice,
// and two seeds differ.
func TestGeneratorDeterministic(t *testing.T) {
	encode := func(name string, seed uint64) []string {
		w, err := newWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := range 40 {
			data, err := json.Marshal(w.request(i))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(data))
		}
		return out
	}
	for _, name := range workloadNames {
		a, b := encode(name, 7), encode(name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two draws", name)
		}
		if reflect.DeepEqual(a, encode(name, 8)) {
			t.Errorf("%s: seeds 7 and 8 gave identical inputs", name)
		}
	}
}

// TestVariantsAreDistinct: the fresh variants a workload sends of one
// base set never repeat a cube sequence.
func TestVariantsAreDistinct(t *testing.T) {
	sets := [][]string{{"0X", "1X", "X0", "X1", "01", "10", "11"}}
	seen := map[string]int{}
	for v := range 3 * len(sets[0]) {
		key := strings.Join(variant(sets, []int{2}, 0, v), ",")
		if prev, ok := seen[key]; ok {
			t.Fatalf("variants %d and %d are the same sequence", prev, v)
		}
		seen[key] = v
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, timed and traced, and fails
// on any error or failed check. It also holds BENCHMARK.json to what
// the runs print: the workloads, and each metric's name and unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	for k, lm := range layerMetrics {
		if k >= len(spec.PerLayer) || spec.PerLayer[k].Name != lm.name || spec.PerLayer[k].Better != lm.better {
			t.Errorf("per_layer[%d] in BENCHMARK.json does not match %s (%s is better)", k, lm.name, lm.better)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(spec.PerLayer), len(layerMetrics))
	}

	saved := traceSample
	traceSample = map[string]int{"fill-cold": 2, "fill-hot": 20, "pipeline": 2, "coord-batch": 2}
	defer func() { traceSample = saved }()
	t.Chdir(t.TempDir())
	for _, name := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit, Better string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}
			if code := run(args, &out); code != 0 {
				t.Fatalf("%v exited %d:\n%s", args, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line is not a result: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			var got, exp []string
			for k, v := range res.Metrics {
				got = append(got, k+" "+v.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%v: metrics %v, BENCHMARK.json lists %v", args, got, exp)
			}
		}
	}
}
