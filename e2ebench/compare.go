package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads every saved result in dir.
func loadResults(dir string) ([]savedResult, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []savedResult
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r savedResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no saved results", dir)
	}
	return out, nil
}

// compareDirs prints, per workload and metric, the median and quartile
// spread of each set of runs and the change of the second set's median.
// It refuses to compare results from different host fingerprints.
func compareDirs(w io.Writer, dirA, dirB string) error {
	a, err := loadResults(dirA)
	if err != nil {
		return err
	}
	b, err := loadResults(dirB)
	if err != nil {
		return err
	}
	fp := a[0].Diagnostics.Fingerprint
	for _, r := range append(append([]savedResult(nil), a...), b...) {
		if r.Diagnostics.Fingerprint != fp {
			return fmt.Errorf("refusing to compare across host fingerprints: %+v vs %+v", fp, r.Diagnostics.Fingerprint)
		}
	}
	group := func(rs []savedResult) map[string]map[string][]float64 {
		g := map[string]map[string][]float64{}
		for _, r := range rs {
			key := fmt.Sprintf("%s trace=%v", r.Workload, r.Trace)
			if g[key] == nil {
				g[key] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				g[key][name] = append(g[key][name], v)
			}
		}
		return g
	}
	ga, gb := group(a), group(b)
	var keys []string
	for k := range ga {
		if gb[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "host: %+v\n", fp)
	for _, k := range keys {
		fmt.Fprintf(w, "%s\n", k)
		var names []string
		for n := range ga[k] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			va, vb := ga[k][n], gb[k][n]
			if len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / ma
			}
			fmt.Fprintf(w, "  %-38s A %12.4g (iqr %5.1f%%, n=%d)  B %12.4g (iqr %5.1f%%, n=%d)  %+6.1f%%\n",
				n, ma, 100*iqrShare(va), len(va), mb, 100*iqrShare(vb), len(vb), 100*change)
		}
	}
	return nil
}

// iqrShare is the distance between the first and third quartiles as a
// share of the median, with quartiles as Python's statistics.quantiles(n=4)
// (the "exclusive" method) computes them.
func iqrShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := exclusiveQuartile(xs, 1), exclusiveQuartile(xs, 3)
	return (q3 - q1) / m
}

func exclusiveQuartile(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := float64(n + 1)
	j := int(float64(k) * m / 4)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := float64(k)*m/4 - float64(j)
	return s[j-1] + delta*(s[j]-s[j-1])
}
