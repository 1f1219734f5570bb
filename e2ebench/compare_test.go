package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeResult(t *testing.T, dir string, r savedResult) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, r.Workload+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	r := savedResult{Workload: "serve-int", Metrics: map[string]float64{"edges_per_s": 1}}
	r.Diagnostics.Fingerprint = fingerprint{CPU: "x", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	writeResult(t, a, r)
	writeResult(t, b, r)
	if err := compareDirs(io.Discard, a, b); err != nil {
		t.Fatalf("same host: %v", err)
	}
	r.Diagnostics.Fingerprint.NumCPU = 4
	writeResult(t, b, r)
	err := compareDirs(io.Discard, a, b)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("different hosts compared: %v", err)
	}
}
