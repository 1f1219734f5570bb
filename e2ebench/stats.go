package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailLevel is the highest quantile level, at most 0.99, that leaves at
// least minBeyond of n samples beyond it. Fewer than 2*minBeyond samples
// cannot support any tail, so the level falls back to the median.
func tailLevel(n int) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	return math.Min(0.99, 1-float64(minBeyond)/float64(n))
}

// quantile returns the level-q quantile of xs by linear interpolation
// between closest ranks (the "inclusive" method). xs need not be sorted;
// it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opSample is one timed operation: how long it took, how many edges it
// carried, which program it ran and whether its answer was correct.
type opSample struct {
	dur   int64
	edges int
	class int // the program the operation streamed
	ok    bool
}

// block is one equal-length slice of a timed loop: operations lo..hi-1,
// its wall duration and the hypervisor steal share measured across it.
type block struct {
	lo, hi int
	dur    int64
	steal  float64
}

// leastStolen returns the n blocks with the least steal, in run order
// (earlier blocks win ties).
func leastStolen(blocks []block, n int) []block {
	idx := make([]int, len(blocks))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return blocks[idx[a]].steal < blocks[idx[b]].steal })
	if n > len(idx) {
		n = len(idx)
	}
	idx = idx[:n]
	sort.Ints(idx)
	out := make([]block, n)
	for i, k := range idx {
		out[i] = blocks[k]
	}
	return out
}

// blockMedian is the typical operation latency: in each block, the median
// latency of each program's operations averaged by the programs' shares of
// the block, then the upper quartile of that across blocks. Taking the
// median per program keeps it inside one program's latency, where a plain
// median of a mix of programs with nearby costs falls in the gap between
// them. The host itself runs at one of two speeds, about 1.3x (serve-int)
// to 1.7x (serve-steady) apart, for stretches of seconds: slow while other
// tenants are busy, and switching between the two when they are quiet. How
// much of a run falls in the fast stretches is luck, so a mean or median
// across blocks moved by a third between runs of the same code; the upper
// quartile is the slow speed whenever a quarter of the run saw it, which
// every run measured did, and one stalled block does not move it.
func blockMedian(blocks [][]opSample) float64 {
	var per []float64
	for _, b := range blocks {
		if len(b) == 0 {
			continue
		}
		byClass := map[int][]float64{}
		for _, o := range b {
			byClass[o.class] = append(byClass[o.class], float64(o.dur))
		}
		var v float64
		for _, d := range byClass {
			v += median(d) * float64(len(d)) / float64(len(b))
		}
		per = append(per, v)
	}
	return quantile(per, blockUpper)
}

// blockUpper is the quantile of block medians that blockMedian reports.
const blockUpper = 0.75

// blockTrim is the share of block groups trimmed from each end by
// blockTail.
const blockTrim = 0.2

// tailGroupOps is how many operations a group of blocks holds at least, so
// that its p99 has minBeyond operations beyond it.
const tailGroupOps = 100 * minBeyond

// blockTail is the tail latency: consecutive blocks are gathered into
// groups of at least tailGroupOps operations (a short last group joins the
// one before it), each group's tail is its quantile at tailLevel of its
// size, and the result is the trimmed mean of the group tails. A host stall
// slows the operations of one group, which the trimming drops, where a
// quantile pooled over the whole run rises with every stall in it. It also
// returns the lowest level any group used.
func blockTail(blocks [][]opSample) (tail, level float64) {
	var groups [][]float64
	var cur []float64
	for _, b := range blocks {
		cur = append(cur, durationsOf(b)...)
		if len(cur) >= tailGroupOps {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if n := len(groups); n > 0 {
			groups[n-1] = append(groups[n-1], cur...)
		} else {
			groups = append(groups, cur)
		}
	}
	level = 1
	var tails []float64
	for _, g := range groups {
		q := tailLevel(len(g))
		level = math.Min(level, q)
		tails = append(tails, quantile(g, q))
	}
	return trimmedMean(tails, blockTrim), level
}

// trimmedMean drops the round(trim*n) lowest and highest values and
// averages the rest.
func trimmedMean(xs []float64, trim float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(trim*float64(len(s)) + 0.5)
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// durationsOf returns the operations' latencies in ns.
func durationsOf(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(o.dur)
	}
	return out
}

// interval is a closed-open span of time in ns.
type interval struct{ start, end int64 }

// covered returns how much of inner's total length lies inside the union
// of outer. Both lists may be unsorted and may overlap among themselves.
func covered(inner, outer []interval) int64 {
	u := union(outer)
	var tot int64
	for _, in := range inner {
		// u is sorted and disjoint: find the first interval ending after in.start.
		i := sort.Search(len(u), func(k int) bool { return u[k].end > in.start })
		for ; i < len(u) && u[i].start < in.end; i++ {
			lo, hi := max64(in.start, u[i].start), min64(in.end, u[i].end)
			if hi > lo {
				tot += hi - lo
			}
		}
	}
	return tot
}

// union merges intervals into a sorted disjoint list.
func union(xs []interval) []interval {
	s := append([]interval(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var out []interval
	for _, x := range s {
		if x.end <= x.start {
			continue
		}
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			if x.end > out[n-1].end {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) int64 {
	return (parent.end - parent.start) - covered([]interval{parent}, clip(children, parent))
}

// clip cuts each interval to the window w.
func clip(xs []interval, w interval) []interval {
	out := make([]interval, 0, len(xs))
	for _, x := range xs {
		lo, hi := max64(x.start, w.start), min64(x.end, w.end)
		if hi > lo {
			out = append(out, interval{lo, hi})
		}
	}
	return out
}

func total(xs []interval) int64 {
	var t int64
	for _, x := range xs {
		t += x.end - x.start
	}
	return t
}

// missShare is the share of part that lies outside whole: 0 when part is
// fully inside, 1 when disjoint. An empty part misses nothing.
func missShare(part, whole []interval) float64 {
	t := total(part)
	if t == 0 {
		return 0
	}
	return float64(t-covered(part, whole)) / float64(t)
}

// excessShare is by how much a composed sum of layer times exceeds the
// span it must fit inside, as a share of that span (0 when it fits).
func excessShare(sum, span int64) float64 {
	if span <= 0 || sum <= span {
		return 0
	}
	return float64(sum-span) / float64(span)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
