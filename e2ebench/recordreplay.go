package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/pipeline"
	"github.com/lsc-tea/tea/internal/trace"
)

// recordReplayWorkload is the paper's cross-environment flow, one job per
// operation: record a TEA online from a window of the training run,
// ship it into the replay environment, replay a window of the reference
// capture through both parallel engines, and check every result.
type recordReplayWorkload struct {
	name  string
	progs []progSpec
	// recWindow edges of the training capture are recorded per job;
	// window edges of the reference capture are replayed.
	recWindow int
	window    int
	nwin      int
}

// rrRef is the independent answer for one job window: a sequential
// core.Recorder over the same training edges, and the B+ tree Replayer
// over the replayed window on that recording as shipped (decoded from its
// bytes into a fresh block directory). The shipped form is the reference
// because a recording that ends mid-trace encodes the unfinished trace,
// which the recorder's live automaton does not yet hold.
type rrRef struct {
	auto     *core.Automaton // the recorder's automaton
	shipped  *core.Automaton
	data     []byte
	recStats core.Stats
	rep      refAnswer
}

type rrProgram struct {
	*program
	recEdges  []cfg.Edge
	recInstrs []uint64
}

type rrInputs struct {
	progs   []*rrProgram
	recWins []window
	wins    []window // replay windows, parallel to recWins
	refs    []rrRef
	order   []int
	digests inputDigests
}

func newStrategy(p *rrProgram) (trace.Strategy, error) {
	s, ok := trace.NewStrategy("mret", p.train, traceCfg)
	if !ok {
		return nil, errors.New("mret strategy unavailable")
	}
	return s, nil
}

func buildRRInputs(w *recordReplayWorkload, seed int64) (*rrInputs, error) {
	in := &rrInputs{}
	for i, ps := range w.progs {
		p, err := loadProgram(ps)
		if err != nil {
			return nil, err
		}
		edges, instrs, err := captureTraining(p)
		if err != nil {
			return nil, err
		}
		rp := &rrProgram{program: p, recEdges: edges, recInstrs: instrs}
		recWins, err := pickWindows(seed, i, p.name+"/train", len(edges), w.recWindow, w.nwin)
		if err != nil {
			return nil, err
		}
		wins, err := pickWindows(seed, i, p.name, len(p.capture), w.window, w.nwin)
		if err != nil {
			return nil, err
		}
		in.progs = append(in.progs, rp)
		in.recWins = append(in.recWins, recWins...)
		in.wins = append(in.wins, wins...)
	}
	for k, rw := range in.recWins {
		p := in.progs[rw.prog]
		s, err := newStrategy(p)
		if err != nil {
			return nil, err
		}
		rec := core.NewRecorder(s, core.ConfigGlobalNoLocal)
		e, n := in.recStream(rw, w.recWindow)
		rec.ObserveBatch(e, n)
		data, err := core.Encode(rec.Automaton())
		if err != nil {
			return nil, fmt.Errorf("%s: encode reference recording: %w", p.name, err)
		}
		shipped, err := core.Decode(data, cfg.NewCache(p.ref, cfg.StarDBT))
		if err != nil {
			return nil, fmt.Errorf("%s: decode reference recording: %w", p.name, err)
		}
		r := core.NewReplayer(shipped, core.ConfigGlobalNoLocal)
		for _, e := range in.stream(in.wins[k], w.window) {
			r.Advance(e.Label, e.Instrs)
		}
		in.refs = append(in.refs, rrRef{
			auto: rec.Automaton(), shipped: shipped, data: data, recStats: *rec.Replayer().Stats(),
			rep: refAnswer{stats: *r.Stats(), final: r.Cur()},
		})
	}
	in.order = opOrder(w.progs, w.nwin)

	var progs []*program
	for _, p := range in.progs {
		progs = append(progs, p.program)
	}
	in.digests = digestInputs(progs, nil, append(append([]window(nil), in.recWins...), in.wins...), w.window)
	return in, nil
}

func (in *rrInputs) recStream(win window, n int) ([]cfg.Edge, []uint64) {
	p := in.progs[win.prog]
	return p.recEdges[win.start : win.start+n], p.recInstrs[win.start : win.start+n]
}

func (in *rrInputs) stream(win window, n int) []core.Edge {
	return in.progs[win.prog].capture[win.start : win.start+n]
}

// replayEnv is one program's replay environment: the block directory
// shipped TEAs are decoded into. It lives for the whole run.
type replayEnv struct {
	cache *cfg.Cache
}

// setup builds every program's replay environment and admits each TEA
// the jobs will ship there once, so the block directory holds every block
// they name: the system-side work before the first job.
func (w *recordReplayWorkload) setup(in *rrInputs) ([]*replayEnv, error) {
	envs := make([]*replayEnv, len(in.progs))
	for i, p := range in.progs {
		cache := cfg.NewCache(p.ref, cfg.StarDBT)
		for _, ref := range in.refs[i*w.nwin : (i+1)*w.nwin] {
			if _, err := core.Decode(ref.data, cache); err != nil {
				return nil, fmt.Errorf("%s: decode into replay environment: %w", p.name, err)
			}
		}
		envs[i] = &replayEnv{cache: cache}
	}
	return envs, nil
}

// jobStats are the counts a job reports beyond its spans.
type jobStats struct {
	pm       pipeline.Metrics
	states   int
	teaBytes int
	stats    core.Stats
}

type rrRun struct {
	w    *recordReplayWorkload
	in   *rrInputs
	envs []*replayEnv
	tr   *tracer // nil when untraced
	jobs []jobStats
}

// span times f as a child of parent when tracing, and just runs it
// otherwise.
func (r *rrRun) span(name string, op, parent int32, f func()) {
	if r.tr == nil || !r.tr.on.Load() {
		f()
		return
	}
	r.tr.timeIt(name, op, parent, f)
}

func (r *rrRun) begin(name string, op, parent int32) int32 {
	if r.tr == nil || !r.tr.on.Load() {
		return -1
	}
	return r.tr.begin(name, op, parent)
}

func (r *rrRun) end(i int32) {
	if i >= 0 {
		r.tr.end(i)
	}
}

func (r *rrRun) job(i int) (edges, class int, ok bool) {
	idx := r.in.order[i%len(r.in.order)]
	rw, win := r.in.recWins[idx], r.in.wins[idx]
	p := r.in.progs[rw.prog]
	env := r.envs[rw.prog]
	ref := &r.in.refs[idx]
	op := int32(i)
	root := r.begin("job", op, -1)
	defer r.end(root)

	// Record here: online, through the record pipeline at default workers.
	var pl *pipeline.RecordPipeline
	var recSt core.Stats
	var strat trace.Strategy
	var err error
	rec := r.begin("record", op, root)
	if strat, err = newStrategy(p); err != nil {
		r.end(rec)
		return r.w.window, rw.prog, r.fail(p, rw, "record", err)
	}
	r.span("pipeline.lifecycle", op, rec, func() { pl = pipeline.NewRecord(strat, pipeline.Config{}) })
	e, n := r.in.recStream(rw, r.w.recWindow)
	r.span("pipeline.feed", op, rec, func() { pl.Feed(e, n) })
	r.span("pipeline.barrier", op, rec, func() { recSt = pl.Barrier() })
	pm := pl.Metrics()
	r.span("pipeline.lifecycle", op, rec, pl.Close)
	r.end(rec)
	a := pl.Recorder().Automaton()

	// Ship: serialize, decode into the replay environment's block
	// directory, compile.
	var data []byte
	r.span("core.encode", op, root, func() { data, err = core.Encode(a) })
	if err != nil {
		return r.w.window, rw.prog, r.fail(p, rw, "encode", err)
	}
	var shipped *core.Automaton
	r.span("core.decode", op, root, func() { shipped, err = core.Decode(data, env.cache) })
	if err != nil {
		return r.w.window, rw.prog, r.fail(p, rw, "decode", err)
	}
	var c *core.Compiled
	r.span("core.compile", op, root, func() { c = core.Compile(shipped, core.ConfigGlobalNoLocal) })

	// Replay there: the reference capture window through both engines.
	stream := r.in.stream(win, r.w.window)
	var pSt, parSt core.Stats
	var pCur, parCur core.StateID
	rp := r.begin("replay.pipeline", op, root)
	var rpl *pipeline.ReplayPipeline
	r.span("pipeline.lifecycle", op, rp, func() { rpl = pipeline.NewReplay(c, pipeline.Config{}) })
	r.span("replay.feed", op, rp, func() { rpl.Feed(stream) })
	r.span("replay.barrier", op, rp, func() { pSt, pCur = rpl.Barrier() })
	r.span("pipeline.lifecycle", op, rp, rpl.Close)
	r.end(rp)
	r.span("replay.parallel", op, root, func() { parSt, parCur = core.ParallelReplay(c, stream, runtime.GOMAXPROCS(0)) })

	ok = true
	r.span("bench.check", op, root, func() {
		switch {
		case !bytes.Equal(data, ref.data) || recSt != ref.recStats:
			ok = r.fail(p, win, "record", fmt.Errorf("recording differs from the sequential Recorder (%d vs %d bytes, stats %+v vs %+v)",
				len(data), len(ref.data), recSt, ref.recStats))
		case pSt != ref.rep.stats || pCur != ref.rep.final:
			ok = r.fail(p, win, "replay pipeline", fmt.Errorf("got %+v final %d, want %+v final %d", pSt, pCur, ref.rep.stats, ref.rep.final))
		case parSt != ref.rep.stats || parCur != ref.rep.final:
			ok = r.fail(p, win, "parallel replay", fmt.Errorf("got %+v final %d, want %+v final %d", parSt, parCur, ref.rep.stats, ref.rep.final))
		}
	})
	if root >= 0 {
		r.jobs = append(r.jobs, jobStats{pm: pm, states: a.NumStates(), teaBytes: len(data), stats: pSt})
	}
	return r.w.window, rw.prog, ok
}

func (r *rrRun) fail(p *rrProgram, win window, what string, err error) bool {
	fmt.Fprintf(os.Stderr, "e2ebench: %s: image %s window %d: %s: %v\n", r.w.name, p.name, win.index, what, err)
	return false
}

func (w *recordReplayWorkload) run(rc runConfig) (*outcome, error) {
	in, err := buildRRInputs(w, rc.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	out.diag.Digests = in.digests
	ops := make([]opSample, 0, 1<<18)
	base := liveHeap()
	envs, setupS, samples, err := setupRepeats(func() ([]*replayEnv, error) { return w.setup(in) }, func([]*replayEnv) {})
	if err != nil {
		return nil, err
	}
	out.metrics["setup_s"] = setupS
	out.diag.SetupSamples = samples
	// Read after set-up, like the serve workloads: the block directories.
	out.metrics["heap_live_mb"] = heapSince(base)
	r := &rrRun{w: w, in: in, envs: envs}
	if rc.trace {
		r.tr = newTracer()
		r.jobs = make([]jobStats, 0, 1<<14)
	}

	// Warm-up: the whole job order once, which visits every window and
	// fills each block directory, checked like the timed jobs.
	for i := range in.order {
		out.attempted++
		if _, _, ok := r.job(i); !ok {
			out.failed++
		}
	}

	if !rc.trace {
		lr := closedLoop(rc.seconds, ops, r.job)
		a, f := endToEndMetrics(lr, out.metrics, &out.diag)
		out.attempted += a
		out.failed += f
		return out, nil
	}

	tracedRun(rc.seconds, out, r.tr, "job", r.job, r.job)
	w.ledger(r, out.metrics)
	return out, nil
}

// ledger fills the per-layer metrics of a traced record-replay run.
func (w *recordReplayWorkload) ledger(r *rrRun, m map[string]float64) {
	tr := r.tr
	sum := func(name string) int64 {
		var t int64
		for _, ivs := range tr.byOp(name) {
			t += total(ivs)
		}
		return t
	}
	jobs := len(r.jobs)
	recEdges := float64(jobs * w.recWindow)
	repEdges := float64(jobs * w.window)
	pipeRecord := sum("record")
	m["pipeline.feed_ns_per_edge"] = float64(sum("pipeline.feed")) / recEdges
	m["pipeline.barrier_ns_per_edge"] = float64(sum("pipeline.barrier")) / recEdges
	m["pipeline.replay_ns_per_edge"] = float64(sum("replay.feed")+sum("replay.barrier")) / repEdges
	m["core.parallel_replay_ns_per_edge"] = float64(sum("replay.parallel")) / repEdges
	m["core.encode_ms"] = float64(sum("core.encode")) / 1e6 / float64(jobs)
	m["core.decode_ms"] = float64(sum("core.decode")) / 1e6 / float64(jobs)
	m["core.compile_ms"] = float64(sum("core.compile")) / 1e6 / float64(jobs)
	m["pipeline.lifecycle_ms_per_job"] = float64(sum("pipeline.lifecycle")) / 1e6 / float64(jobs)

	var waits, quiet, drained uint64
	var states, teaBytes int
	var st core.Stats
	for _, j := range r.jobs {
		waits += j.pm.BackpressureWaits
		quiet += j.pm.QuietChunks
		drained += j.pm.Drained
		states += j.states
		teaBytes += j.teaBytes
		st.Add(&j.stats)
	}
	m["pipeline.backpressure_waits_per_job"] = float64(waits) / float64(jobs)
	if drained > 0 {
		m["pipeline.quiet_chunk_ratio"] = float64(quiet) / float64(drained)
	}
	m["core.tea_bytes_per_state"] = float64(teaBytes) / float64(states)
	m["core.coverage"] = st.Coverage()
	m["core.desyncs"] = float64(st.Desyncs)

	// Layer calls timed alone, once per job window, on the reference
	// recordings: the sequential recorder, the speculative scan the
	// pipeline's workers run, and the 1-core sequential replay.
	var seqRec, scan, seqRep int64
	var refStates, refTraces int
	for k, rw := range r.in.recWins {
		p := r.in.progs[rw.prog]
		e, n := r.in.recStream(rw, w.recWindow)
		s, err := newStrategy(p)
		if err != nil {
			continue
		}
		seqRec += tr.timeIt("core.record", -1, -1, func() {
			rec := core.NewRecorder(s, core.ConfigGlobalNoLocal)
			rec.ObserveBatch(e, n)
		})
		ref := &r.in.refs[k]
		snap := core.Compile(ref.auto, core.ConfigGlobalNoLocal)
		var sr core.SpecResult
		scan += tr.timeIt("pipeline.scan", -1, -1, func() { snap.SpecRecord(e, n, &sr) })
		stream := r.in.stream(r.in.wins[k], w.window)
		shipped := core.Compile(ref.shipped, core.ConfigGlobalNoLocal)
		seqRep += tr.timeIt("core.sequential_replay", -1, -1, func() { core.SequentialReplay(shipped, stream) })
		refStates += ref.auto.NumStates()
		refTraces += ref.auto.Set().Len()
	}
	nref := float64(len(r.in.recWins))
	m["core.record_ns_per_edge"] = float64(seqRec) / (nref * float64(w.recWindow))
	m["pipeline.scan_ns_per_edge"] = float64(scan) / (nref * float64(w.recWindow))
	m["core.sequential_replay_ns_per_edge"] = float64(seqRep) / (nref * float64(w.window))
	m["core.recorded_states"] = float64(refStates) / nref
	m["trace.recorded_traces"] = float64(refTraces) / nref
	m["pipeline.record_speedup"] = m["core.record_ns_per_edge"] / (float64(pipeRecord) / recEdges)

	// Layer sum: the share of job wall time no layer span covers.
	jobsByOp := tr.byOp("job")
	var wall, self int64
	children := map[int32][]interval{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.parent >= 0 && tr.spans[s.parent].name == "job" {
			children[s.op] = append(children[s.op], interval{s.start, s.end})
		}
	}
	for op, ivs := range jobsByOp {
		for _, iv := range ivs {
			wall += iv.end - iv.start
			self += selfTime(iv, children[op])
		}
	}
	if wall > 0 {
		m["bench.layer_sum_err"] = float64(self) / float64(wall)
	}
}
