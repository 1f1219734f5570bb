package main

import "testing"

// TestSeedPicksOnlyWindows: two seeds give the same programs and hosted
// TEAs but different windows; one seed always gives the same inputs.
func TestSeedPicksOnlyWindows(t *testing.T) {
	w := workloads["serve-steady"].(*serveWorkload)
	in1, err := buildServeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := buildServeInputs(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := buildServeInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := in1.digests, in2.digests, again.digests
	if a.Programs != b.Programs || a.TEAs != b.TEAs {
		t.Errorf("seeds 1 and 2 built different programs or TEAs: %+v vs %+v", a, b)
	}
	if a.Windows == b.Windows || a.Input == b.Input {
		t.Errorf("seeds 1 and 2 picked the same windows: %+v", a)
	}
	if a != c {
		t.Errorf("seed 1 built different inputs twice: %+v vs %+v", a, c)
	}
	for i := range in1.refs {
		if in1.refs[i] != again.refs[i] {
			t.Fatalf("seed 1 reference answer %d differs between builds", i)
		}
	}
}
