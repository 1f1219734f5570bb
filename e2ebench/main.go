// Command e2ebench is the repository's end-to-end benchmark. It generates a
// workload's inputs from a seed, drives the system through its public
// packages (serve + serve/client over loopback TCP, pipeline, core,
// verify), checks every operation against an independent reference answer
// and prints one JSON result line:
//
//	bash e2ebench/run.sh --workload serve-int --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics from an untraced closed loop;
// --trace 1 prints the per-layer ledger from a traced run of the same
// loop. Each run also writes its result, with the host fingerprint, input
// digests and per-block throughput series, under .bench_out/. Two sets of
// saved results are compared with
//
//	bash e2ebench/run.sh --compare <dirA> <dirB>
//
// which refuses results measured on different hosts.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// ledgerJSON maps every per-layer metric to the end-to-end metric and
// workload it should move, and states the layer-sum tolerance.
//
//go:embed ledger.json
var ledgerJSON []byte

type ledgerDoc struct {
	LayerSumTolerance float64 `json:"layer_sum_tolerance"`
	Workloads         []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	Layers []struct {
		Metric string `json:"metric"`
		Moves  string `json:"moves"`
		Flat   string `json:"flat"`
	} `json:"layers"`
}

func loadLedger() (ledgerDoc, error) {
	var l ledgerDoc
	err := json.Unmarshal(ledgerJSON, &l)
	return l, err
}

// outDir holds saved results and span files, relative to the checkout.
const outDir = ".bench_out"

// runConfig is what one invocation was asked to do.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	diag      diagnostics
	tr        *tracer
}

// diagnostics are saved with every result but are not metrics.
type diagnostics struct {
	Fingerprint  fingerprint  `json:"fingerprint"`
	Digests      inputDigests `json:"digests"`
	TimedOps     int          `json:"timed_ops"`
	Blocks       []blockDiag  `json:"blocks"`
	SetupSamples []float64    `json:"setup_samples_s"`
	TailLevel    float64      `json:"tail_level"`
}

// blockDiag describes one block of the timed loop.
type blockDiag struct {
	Ops       int     `json:"ops"`
	Seconds   float64 `json:"seconds"`
	EdgesPerS float64 `json:"edges_per_s"`
	P50Ms     float64 `json:"p50_ms"`
	TailMs    float64 `json:"tail_ms"`
	Steal     float64 `json:"steal"`
	Kept      bool    `json:"kept"`
}

// savedResult is the file written under outDir for each run.
type savedResult struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Trace       bool               `json:"trace"`
	Seconds     float64            `json:"seconds"`
	When        string             `json:"when"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]float64 `json:"metrics"`
	Diagnostics diagnostics        `json:"diagnostics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var rc runConfig
	var traceFlag int
	var compare bool
	flag.StringVar(&rc.workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed (picks stream windows and their order)")
	flag.Float64Var(&rc.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.BoolVar(&compare, "compare", false, "compare the saved results in two directories")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: e2ebench --compare <dirA> <dirB>")
			os.Exit(2)
		}
		if err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	rc.trace = traceFlag != 0
	w, ok := workloads[rc.workload]
	if !ok || rc.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (%s) and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	out, err := w.run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	if err := emit(rc, out); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// emit saves the result and spans, then prints the result line last.
func emit(rc runConfig, out *outcome) error {
	out.diag.Fingerprint = hostFingerprint()
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	kept := map[string]float64{}
	for _, d := range defs {
		v := out.metrics[d.name]
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		kept[d.name] = v
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", rc.workload, rc.seed, map[bool]int{false: 0, true: 1}[rc.trace])
	saved := savedResult{
		Workload: rc.workload, Seed: rc.seed, Trace: rc.trace, Seconds: rc.seconds,
		When: time.Now().UTC().Format(time.RFC3339), Correct: line.Correct,
		Attempted: line.Attempted, Failed: line.Failed, Metrics: kept, Diagnostics: out.diag,
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(saved, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, tag+".json"), data, 0o644); err != nil {
		return err
	}
	if out.tr != nil {
		if err := out.tr.write(outDir, rc.workload+".spans.tsv"); err != nil {
			return err
		}
	}
	if rc.trace {
		l, err := loadLedger()
		if err != nil {
			return err
		}
		if e := out.metrics["bench.layer_sum_err"]; e > l.LayerSumTolerance {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: layers miss the wall time by %.3f, beyond the %.3f tolerance\n",
				rc.workload, e, l.LayerSumTolerance)
		}
	}
	diag, err := json.Marshal(out.diag)
	if err != nil {
		return err
	}
	fmt.Printf("diagnostics %s\n", diag)
	res, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// A timed loop is cut into blocks of blockTime. Hypervisor steal on a
// shared host comes in bursts that slow every operation they overlap, and
// a block's tail rises with its steal even at one or two 10 ms ticks of
// it, so each block's steal share is read from /proc/stat and the metrics
// use only the clean blocks, those stolen from at most stealLimit. A run
// that fell in a busy stretch of the host, with fewer clean blocks than a
// minKeepShare of all, keeps that share of its least-stolen blocks: its
// calmest seconds, where the tail of such runs otherwise read up to 60%
// above that of quiet runs.
const (
	blockTime    = 500 * time.Millisecond
	stealLimit   = 0.01
	minKeepShare = 0.25
)

// loopResult is the outcome of one timed closed loop: every operation in
// order (ops[i] is operation i), the blocks it was cut into, and the
// least-stolen blocks the metrics are computed from.
type loopResult struct {
	ops    []opSample
	blocks []block
	kept   []block
}

// opFunc runs operation i and reports its edges, the program it ran and
// whether its answer was correct.
type opFunc func(i int) (edges, class int, ok bool)

// closedLoop runs op back to back for seconds, each call one operation
// issued only after the previous one completed, in blocks of blockTime,
// and keeps the blocks keepBlocks picks. ops is the preallocated sample
// buffer.
func closedLoop(seconds float64, ops []opSample, op opFunc) loopResult {
	ops = ops[:0]
	run := max(1, int(seconds*float64(time.Second)/float64(blockTime)+0.5))
	blocks := make([]block, 0, run)
	for i := 0; len(blocks) < run; {
		cpu0 := readCPUTimes()
		b0 := time.Now()
		lo := len(ops)
		for {
			t0 := time.Now()
			edges, class, ok := op(i)
			i++
			d := time.Since(t0)
			ops = append(ops, opSample{dur: int64(d), edges: edges, class: class, ok: ok})
			if time.Since(b0) >= blockTime {
				break
			}
		}
		blocks = append(blocks, block{lo: lo, hi: len(ops), dur: int64(time.Since(b0)), steal: stealShare(cpu0, readCPUTimes())})
	}
	return loopResult{ops: ops, blocks: blocks, kept: keepBlocks(blocks)}
}

// keepBlocks returns the clean blocks, in run order, or the least-stolen
// minKeepShare of all blocks when fewer than that are clean.
func keepBlocks(blocks []block) []block {
	clean := 0
	for _, b := range blocks {
		if b.steal <= stealLimit {
			clean++
		}
	}
	return leastStolen(blocks, max(clean, int(float64(len(blocks))*minKeepShare+0.5), 1))
}

// rate is the correct edges per second over the kept blocks.
func (lr loopResult) rate() float64 {
	var edges, dur int64
	for _, b := range lr.kept {
		dur += b.dur
		for _, o := range lr.ops[b.lo:b.hi] {
			if o.ok {
				edges += int64(o.edges)
			}
		}
	}
	return float64(edges) / (float64(dur) / 1e9)
}

// slices returns the operations of each of bs.
func (lr loopResult) slices(bs []block) [][]opSample {
	out := make([][]opSample, len(bs))
	for i, b := range bs {
		out[i] = lr.ops[b.lo:b.hi]
	}
	return out
}

// failures counts the failed operations of every block.
func (lr loopResult) failures() int {
	n := 0
	for _, o := range lr.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// diagnose records the loop's block series in d.
func (lr loopResult) diagnose(d *diagnostics) {
	d.TimedOps = len(lr.ops)
	d.Blocks = d.Blocks[:0]
	for _, b := range lr.blocks {
		kept := false
		for _, k := range lr.kept {
			kept = kept || k.lo == b.lo
		}
		d.Blocks = append(d.Blocks, blockDiag{
			Ops: b.hi - b.lo, Seconds: float64(b.dur) / 1e9, Steal: b.steal, Kept: kept,
			EdgesPerS: loopResult{ops: lr.ops, kept: []block{b}}.rate(),
			P50Ms:     blockMedian([][]opSample{lr.ops[b.lo:b.hi]}) / 1e6,
			TailMs:    quantile(durationsOf(lr.ops[b.lo:b.hi]), tailLevel(b.hi-b.lo)) / 1e6,
		})
	}
}

// tracedRun is the timed part of a traced run: an untraced half, the base
// of the tracing overhead, then a traced half whose loop it returns. The
// overhead compares correct edges per second of operation time: op
// durations untraced, root span durations traced, so work a traced op does
// after its root span closes is not counted.
func tracedRun(seconds float64, out *outcome, tr *tracer, root string, plainOp, tracedOp opFunc) loopResult {
	half := seconds / 2
	plain := closedLoop(half, make([]opSample, 0, 1<<18), plainOp)
	tr.on.Store(true)
	traced := closedLoop(half, make([]opSample, 0, 1<<18), tracedOp)
	tr.on.Store(false)
	for _, lr := range []loopResult{plain, traced} {
		out.attempted += len(lr.ops)
		out.failed += lr.failures()
	}
	out.tr = tr
	traced.diagnose(&out.diag)
	var plainEdges, plainNs, tracedEdges, tracedNs int64
	for _, o := range plain.ops {
		if o.ok {
			plainEdges += int64(o.edges)
		}
		plainNs += o.dur
	}
	roots := tr.byOp(root)
	for i, o := range traced.ops {
		if o.ok {
			tracedEdges += int64(o.edges)
		}
		tracedNs += total(roots[int32(i)])
	}
	out.metrics["bench.trace_overhead"] = (float64(plainEdges) / float64(plainNs)) / (float64(tracedEdges) / float64(tracedNs))
	return traced
}

// endToEndMetrics derives the user-visible figures of one untraced loop.
func endToEndMetrics(lr loopResult, m map[string]float64, d *diagnostics) (attempted, failed int) {
	attempted, failed = len(lr.ops), lr.failures()
	// Both latencies are taken per block (the tail per group of blocks)
	// and then combined across blocks, so a few blocks slowed by a stall
	// that the steal reading missed move neither figure.
	m["edges_per_s"] = lr.rate()
	m["op_p50_ms"] = blockMedian(lr.slices(lr.kept)) / 1e6
	tail, level := blockTail(lr.slices(lr.kept))
	d.TailLevel = level
	m["op_p99_ms"] = tail / 1e6
	m["ok_ratio"] = float64(attempted-failed) / float64(attempted)
	lr.diagnose(d)
	return attempted, failed
}

// heapSince is the live heap grown since the base measurement, in MB.
func heapSince(base uint64) float64 {
	return float64(int64(liveHeap())-int64(base)) / (1 << 20)
}

// liveHeap forces a collection and returns the live heap in bytes.
// Objects with finalizers (closed connections, listeners) are freed only by
// the collection after their finalizer ran, so it collects a few times with
// a pause for the finalizer goroutine in between.
func liveHeap() uint64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(20 * time.Millisecond)
	}
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupRepeats runs setup until it has at least minSetups samples and has
// spent at least minSetupTime in total (at most maxSetups), keeping the last
// instance live, and returns the median sample in seconds with all samples.
// Every earlier instance is torn down before the next starts.
func setupRepeats[T any](setup func() (T, error), teardown func(T)) (T, float64, []float64, error) {
	const minSetups, maxSetups = 3, 201
	const minSetupTime = time.Second
	var cur T
	var samples []float64
	var spent time.Duration
	for i := 0; i < maxSetups && (i < minSetups || spent < minSetupTime); i++ {
		if i > 0 {
			teardown(cur)
		}
		t0 := time.Now()
		v, err := setup()
		d := time.Since(t0)
		if err != nil {
			var zero T
			return zero, 0, nil, err
		}
		cur = v
		spent += d
		samples = append(samples, d.Seconds())
	}
	return cur, median(samples), samples, nil
}
