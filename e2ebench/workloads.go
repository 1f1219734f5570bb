package main

import (
	"sort"
	"strings"
)

// benchWorkload is one named benchmark input set.
type benchWorkload interface {
	run(rc runConfig) (*outcome, error)
}

// workloads are fixed: programs come from workload.ByName with their
// built-in generator seeds, and the run seed picks only stream windows and
// their order. BENCHMARK.json records why each was chosen.
var workloads = map[string]benchWorkload{
	// Large aperiodic automata with small frames: per-frame work, the
	// unspecialized kernel and admission.
	"serve-int": &serveWorkload{
		name: "serve-int",
		progs: []progSpec{
			{"176.gcc", 16, 40, 3},
			{"253.perlbmk", 16, 48, 1},
			{"181.mcf", 200, 60, 1},
		},
		batch:  512,
		window: 4096,
		nwin:   32,
	},
	// The Figure-1 cycle regime: tiny automata, big frames, per-edge wire
	// work.
	"serve-steady": &serveWorkload{
		name: "serve-steady",
		progs: []progSpec{
			{"901.steady", 64000, 8000, 1},
			{"902.stream", 2000, 400, 2},
		},
		window: 16384,
		nwin:   32,
	},
	// Record here, ship, replay there: pipeline, recorder and the parallel
	// engines carry the time; serve does nothing.
	"record-replay": &recordReplayWorkload{
		name: "record-replay",
		progs: []progSpec{
			{"181.mcf", 200, 200, 4},
			{"164.gzip", 40, 40, 1},
			{"171.swim", 400, 400, 1},
			{"176.gcc", 16, 16, 1},
		},
		recWindow: 4096,
		window:    8192,
		nwin:      16,
	},
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
