package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestMetricListsMatchBenchmarkJSON keeps the metrics the program prints in
// step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
	if len(bench.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloadNames))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloadNames[i])
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("bad or repeated metric %s [%s]", d.name, d.unit)
		}
		seen[d.name] = true
	}
}
