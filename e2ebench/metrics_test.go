package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json this test
// reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestPrintedMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %+v, binary %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: BENCHMARK.json %+v, binary %+v", i, m, d)
		}
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(have)
	if len(names) != len(have) {
		t.Fatalf("workloads: BENCHMARK.json %v, binary %v", names, have)
	}
	for i := range names {
		if names[i] != have[i] {
			t.Errorf("workloads: BENCHMARK.json %v, binary %v", names, have)
		}
	}
}

func TestLedgerMapsEveryLayer(t *testing.T) {
	l, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Layers) != len(perLayer) {
		t.Fatalf("ledger maps %d layers, the binary prints %d", len(l.Layers), len(perLayer))
	}
	for i, e := range l.Layers {
		if e.Metric != perLayer[i].name || e.Moves == "" || e.Flat == "" {
			t.Errorf("ledger entry %d %+v does not map %s", i, e, perLayer[i].name)
		}
	}
	if len(l.Workloads) != len(workloads) {
		t.Errorf("ledger explains %d workloads, the binary has %d", len(l.Workloads), len(workloads))
	}
	for _, w := range l.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("ledger names unknown workload %q", w.Name)
		}
	}
}
