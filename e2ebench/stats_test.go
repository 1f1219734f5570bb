package main

import (
	"fmt"
	"math"
	"testing"
)

func TestTailLevelLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{20, 100, 500, 999, 1000, 5000} {
		q := tailLevel(n)
		if beyond := float64(n) * (1 - q); beyond < minBeyond-1e-9 {
			t.Errorf("n=%d: level %.4f leaves %.2f samples beyond", n, q, beyond)
		}
		if q > 0.99 {
			t.Errorf("n=%d: level %.4f above p99", n, q)
		}
	}
	if q := tailLevel(1000); q != 0.99 {
		t.Errorf("1000 samples support p99, got level %v", q)
	}
	if q := tailLevel(200); math.Abs(q-0.95) > 1e-12 {
		t.Errorf("200 samples: want level 0.95, got %v", q)
	}
	if q := tailLevel(10); q != 0.5 {
		t.Errorf("too few samples for a tail: want the median, got %v", q)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

func ops(durs ...int64) []opSample {
	out := make([]opSample, len(durs))
	for i, d := range durs {
		out[i] = opSample{dur: d, edges: 1, ok: true}
	}
	return out
}

func TestPerBlockMedianIgnoresOneStalledBlock(t *testing.T) {
	blocks := [][]opSample{
		ops(10, 11, 12),
		ops(10, 12, 14),
		ops(1000, 2000, 3000), // one stalled block
		ops(11, 12, 13),
		ops(9, 10, 11),
		nil, // an empty block is skipped
	}
	// Block medians 11, 12, 2000, 12, 10: the upper quartile is 12.
	if got := blockMedian(blocks); got != 12 {
		t.Errorf("upper quartile of block medians = %v, want 12", got)
	}
}

// spread returns n operations of latencies base+0 .. base+n-1.
func spread(base int64, n int) []opSample {
	durs := make([]int64, n)
	for i := range durs {
		durs[i] = base + int64(i)
	}
	return ops(durs...)
}

func TestBlockTailGroupsBlocksToReachP99(t *testing.T) {
	// Five blocks of 600: the first two make a group of 1200, the next two
	// another, and the short last block joins that one.
	blocks := [][]opSample{
		spread(0, 600), spread(600, 600),
		spread(0, 600), spread(600, 600), spread(1200, 600),
	}
	tail, level := blockTail(blocks)
	a := quantile(durationsOf(spread(0, 1200)), 0.99)
	b := quantile(durationsOf(spread(0, 1800)), 0.99)
	if math.Abs(tail-(a+b)/2) > 1e-9 {
		t.Errorf("tail = %v, want the mean of the group tails %v and %v", tail, a, b)
	}
	if level != 0.99 {
		t.Errorf("groups of 1200 and 1800 support p99, got level %v", level)
	}
	if tail, level := blockTail([][]opSample{spread(0, 300)}); level != tailLevel(300) || tail != quantile(durationsOf(spread(0, 300)), level) {
		t.Errorf("one short block: tail %v at level %v", tail, level)
	}
}

func TestBlockTailIgnoresOneStalledGroup(t *testing.T) {
	var blocks [][]opSample
	for i := 0; i < 10; i++ {
		blocks = append(blocks, spread(100, tailGroupOps))
	}
	want, _ := blockTail(blocks)
	// A stall delays 5% of one group's operations far past everything else.
	for i := range blocks[4][:tailGroupOps/20] {
		blocks[4][i].dur = 1e9
	}
	if got, _ := blockTail(blocks); got != want {
		t.Errorf("one stalled group moved the tail from %v to %v", want, got)
	}
}

func TestTrimmedMean(t *testing.T) {
	if got := trimmedMean([]float64{5, 1, 3}, 0.2); got != 3 {
		t.Errorf("three values, one trimmed per end: got %v, want 3", got)
	}
	if got := trimmedMean([]float64{1, 2}, 0.2); got != 1.5 {
		t.Errorf("two values, none trimmed: got %v, want 1.5", got)
	}
	xs := make([]float64, 20)
	for i := range xs {
		xs[i] = float64(i)
	}
	xs[19] = 1e9
	if got := trimmedMean(xs, 0.2); got != 9.5 {
		t.Errorf("twenty values, four trimmed per end: got %v, want 9.5", got)
	}
}

func TestPerBlockMedianTakesEachProgramsMedian(t *testing.T) {
	// Two programs with nearby latencies, one third and two thirds of the
	// operations: 1/3*median(10,10) + 2/3*median(12,12,13,13) = 35/3.
	b := ops(10, 10, 12, 12, 13, 13)
	b[0].class, b[1].class = 1, 1
	if got := blockMedian([][]opSample{b}); math.Abs(got-35.0/3) > 1e-12 {
		t.Errorf("block median = %v, want 35/3", got)
	}
}

func TestLeastStolenKeepsRunOrder(t *testing.T) {
	blocks := []block{{lo: 0, steal: 0.1}, {lo: 1, steal: 0}, {lo: 2, steal: 0.05}, {lo: 3, steal: 0}}
	kept := leastStolen(blocks, 3)
	if len(kept) != 3 || kept[0].lo != 1 || kept[1].lo != 2 || kept[2].lo != 3 {
		t.Errorf("kept %+v, want blocks 1, 2, 3 in order", kept)
	}
}

func TestKeepBlocksTakesCleanOrLeastStolenQuarter(t *testing.T) {
	steals := func(ss ...float64) []block {
		out := make([]block, len(ss))
		for i, s := range ss {
			out[i] = block{lo: i, steal: s}
		}
		return out
	}
	los := func(bs []block) []int {
		var out []int
		for _, b := range bs {
			out = append(out, b.lo)
		}
		return out
	}
	// Five of eight blocks clean: keep those five.
	got := los(keepBlocks(steals(0, 0.05, 0.01, 0, 0.02, 0, 0.03, 0)))
	if want := []int{0, 2, 3, 5, 7}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("kept %v, want the clean blocks %v", got, want)
	}
	// One of eight clean: keep the least-stolen quarter, two blocks.
	got = los(keepBlocks(steals(0.2, 0.05, 0.1, 0, 0.02, 0.3, 0.04, 0.06)))
	if want := []int{3, 4}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("kept %v, want the least-stolen quarter %v", got, want)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30},
		{20, 40},   // overlaps the first: covered once
		{90, 120},  // sticks out: only 90..100 counts
		{200, 300}, // outside the parent
	}
	if got := selfTime(parent, children); got != 100-30-10 {
		t.Errorf("self time = %d, want 60", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d", got)
	}
}

func TestLayerSumTolerance(t *testing.T) {
	waits := []interval{{0, 10}, {20, 30}}
	busy := []interval{{1, 9}, {21, 31}} // one ns of the second busy span sticks out
	if got := missShare(busy, waits); math.Abs(got-1.0/18) > 1e-12 {
		t.Errorf("miss share = %v, want 1/18", got)
	}
	if got := missShare(nil, waits); got != 0 {
		t.Errorf("empty part misses %v", got)
	}
	if got := excessShare(90, 100); got != 0 {
		t.Errorf("a sum that fits has excess %v", got)
	}
	if got := excessShare(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("excess = %v, want 0.1", got)
	}
	l, err := loadLedger()
	if err != nil {
		t.Fatal(err)
	}
	if l.LayerSumTolerance <= 0 || l.LayerSumTolerance > 0.25 {
		t.Errorf("layer-sum tolerance %v out of range", l.LayerSumTolerance)
	}
	if e := missShare([]interval{{0, 39}, {100, 101}}, []interval{{0, 100}}); e > l.LayerSumTolerance {
		t.Errorf("a 1/40 miss should be within the %v tolerance", l.LayerSumTolerance)
	}
	if e := excessShare(200, 100); e <= l.LayerSumTolerance {
		t.Errorf("a sum twice its span should break the %v tolerance", l.LayerSumTolerance)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := exclusiveQuartile(xs, 1), exclusiveQuartile(xs, 3); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	if got := iqrShare(xs); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("iqr share %v, want 1", got)
	}
}

func TestFrameCounterFollowsSplitWrites(t *testing.T) {
	var f frameCounter
	frame := func(typ byte, n int) []byte {
		b := []byte{0, 0, 0, byte(4 + 1 + n), 0, 0, 0, 0, typ}
		return append(b, make([]byte, n)...)
	}
	stream := append(frame(5, 3), frame(7, 0)...)
	stream = append(stream, frame(5, 10)...)
	for _, c := range []int{1, 2, 3, 5, 8, 13} {
		f = frameCounter{}
		for s := 0; s < len(stream); s += c {
			f.feed(stream[s:min(s+c, len(stream))])
		}
		if f.byType[5] != 2 || f.byType[7] != 1 {
			t.Errorf("chunk %d: counted %d type-5 and %d type-7 frames", c, f.byType[5], f.byType[7])
		}
	}
}
