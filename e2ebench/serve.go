package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/serve"
	"github.com/lsc-tea/tea/internal/serve/client"
	"github.com/lsc-tea/tea/internal/verify"
)

// serveWorkload hosts a set of TEAs in one serve.Server and streams whole
// sessions at it over one tenant connection on loopback TCP.
type serveWorkload struct {
	name  string
	progs []progSpec
	// batch is the client's Edges batch size; 0 keeps the client default.
	batch int
	// window is the number of edges one session streams.
	window int
	// nwin windows are drawn per image.
	nwin int
}

// serveLookup is the hosted images' transition configuration; the
// reference answers use the B+ tree Replayer with the same local caches.
var serveLookup = core.ConfigGlobalLocal

type refAnswer struct {
	stats core.Stats
	final core.StateID
}

// serveInputs is everything generated before set-up.
type serveInputs struct {
	progs   []*program
	hosted  []*core.Automaton
	teas    [][]byte
	wins    []window
	refs    []refAnswer // parallel to wins
	order   []int       // operation i streams wins[order[i%len(order)]]
	digests inputDigests
}

func buildServeInputs(w *serveWorkload, seed int64) (*serveInputs, error) {
	in := &serveInputs{}
	for i, ps := range w.progs {
		p, err := loadProgram(ps)
		if err != nil {
			return nil, err
		}
		a, err := recordDBT(p)
		if err != nil {
			return nil, err
		}
		data, err := core.Encode(a)
		if err != nil {
			return nil, fmt.Errorf("%s: encode hosted TEA: %w", p.name, err)
		}
		wins, err := pickWindows(seed, i, p.name, len(p.capture), w.window, w.nwin)
		if err != nil {
			return nil, err
		}
		in.progs = append(in.progs, p)
		in.hosted = append(in.hosted, a)
		in.teas = append(in.teas, data)
		in.wins = append(in.wins, wins...)
	}
	// Reference answers from the B+ tree Replayer, not the compiled kernel
	// the server runs.
	for _, win := range in.wins {
		r := core.NewReplayer(in.hosted[win.prog], serveLookup)
		for _, e := range in.stream(win, w.window) {
			r.Advance(e.Label, e.Instrs)
		}
		in.refs = append(in.refs, refAnswer{stats: *r.Stats(), final: r.Cur()})
	}
	in.order = opOrder(w.progs, w.nwin)

	in.digests = digestInputs(in.progs, in.teas, in.wins, w.window)
	return in, nil
}

func (in *serveInputs) stream(win window, n int) []core.Edge {
	return in.progs[win.prog].capture[win.start : win.start+n]
}

// hostedServer is one set-up instance: a server with every image hosted,
// listening on loopback.
type hostedServer struct {
	srv    *serve.Server
	ln     net.Listener
	done   chan error
	hostNs int64
}

func (w *serveWorkload) setup(in *serveInputs, tr *tracer) (*hostedServer, error) {
	srv := serve.NewServer(serve.Config{Lookup: serveLookup})
	var hostNs int64
	for i, p := range in.progs {
		t0 := time.Now()
		if err := srv.Host(p.name, p.ref, in.hosted[i]); err != nil {
			return nil, fmt.Errorf("host %s: %w", p.name, err)
		}
		hostNs += int64(time.Since(t0))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if tr != nil {
		ln = &tracedListener{Listener: ln, tr: tr}
	}
	hs := &hostedServer{srv: srv, ln: ln, done: make(chan error, 1), hostNs: hostNs}
	go func() { hs.done <- srv.Serve(ln) }()
	return hs, nil
}

func (hs *hostedServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.srv.Shutdown(ctx) // the Serve goroutine's exit is awaited below
	// Shutdown closes only listeners Serve has registered; a Serve goroutine
	// that has not started yet would otherwise accept forever.
	_ = hs.ln.Close()
	<-hs.done
}

// clientSide is the benchmark's view of the client connection: dials, and
// in a traced run the wait spans and outgoing bytes.
type clientSide struct {
	tr      *tracer
	dials   int
	op      int32
	session int32
	wait    int32 // open client.wait span, -1 when none
	bytes   int64
	frames  frameCounter
}

// clientConn wraps the client's transport: time blocked in Read is the
// client's wait for the server; writes are counted.
type clientConn struct {
	net.Conn
	cs *clientSide
}

func (c *clientConn) Read(p []byte) (int, error) {
	cs := c.cs
	if !cs.tr.on.Load() {
		return c.Conn.Read(p)
	}
	if cs.wait < 0 {
		cs.wait = cs.tr.begin("client.wait", cs.op, cs.session)
	}
	n, err := c.Conn.Read(p)
	cs.tr.end(cs.wait)
	return n, err
}

func (c *clientConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if cs := c.cs; cs.tr.on.Load() {
		cs.wait = -1
		cs.bytes += int64(n)
		cs.frames.feed(p[:n])
	}
	return n, err
}

// frameCounter follows the framing of an outgoing byte stream (8-byte
// length+CRC header, then the payload whose first byte is the frame type)
// and counts frames by type, whatever the write boundaries.
type frameCounter struct {
	hdr    [8]byte
	nhdr   int
	remain uint32
	atType bool
	byType [256]int
}

func (f *frameCounter) feed(p []byte) {
	for len(p) > 0 {
		if f.remain == 0 {
			k := copy(f.hdr[f.nhdr:], p)
			f.nhdr += k
			p = p[k:]
			if f.nhdr == len(f.hdr) {
				f.nhdr = 0
				if n := binary.BigEndian.Uint32(f.hdr[:4]); n > 4 {
					f.remain, f.atType = n-4, true
				}
			}
			continue
		}
		if f.atType {
			f.byType[p[0]]++
			f.atType = false
		}
		k := uint32(len(p))
		if k > f.remain {
			k = f.remain
		}
		p = p[k:]
		f.remain -= k
	}
}

// tracedListener hands the server connections that record its busy spans.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, tr: l.tr}, nil
}

// serverConn records one server.busy span per request: from the Read that
// delivers the first bytes of a frame to the end of the last Write of its
// reply. The span's operation is resolved afterwards from the session
// span that contains its start.
type serverConn struct {
	net.Conn
	tr         *tracer
	busy       bool
	wrote      bool
	start, end int64
}

func (c *serverConn) Read(p []byte) (int, error) {
	on := c.tr.on.Load()
	if c.busy && c.wrote {
		if on {
			c.tr.add("server.busy", -1, -1, c.start, c.end)
		}
		c.busy, c.wrote = false, false
	}
	n, err := c.Conn.Read(p)
	if n > 0 && !c.busy {
		c.busy, c.start = true, c.tr.now()
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.end, c.wrote = c.tr.now(), true
	return n, err
}

// serveRun is one live client against one hosted server.
type serveRun struct {
	w       *serveWorkload
	in      *serveInputs
	cl      *client.Client
	cs      *clientSide
	rejects int
	// iso holds each window's batches in every layer's input form; set
	// for the traced half only.
	iso         []isoInput
	strideEdges uint64
}

func (r *serveRun) session(i int) (edges, class int, ok bool) {
	idx := r.in.order[i%len(r.in.order)]
	win := r.in.wins[idx]
	name := r.in.progs[win.prog].name
	st, final, err := r.cl.Replay(context.Background(), name, r.in.stream(win, r.w.window), r.w.batch)
	if err != nil {
		var serr *serve.Error
		if errors.As(err, &serr) {
			r.rejects++
		}
		fmt.Fprintf(os.Stderr, "e2ebench: %s: image %s window %d: session failed: %v\n", r.w.name, name, win.index, err)
		return r.w.window, win.prog, false
	}
	if *st != r.in.refs[idx].stats || final != r.in.refs[idx].final {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: image %s window %d: answer differs from the reference Replayer: got %+v final %d, want %+v final %d\n",
			r.w.name, name, win.index, *st, final, r.in.refs[idx].stats, r.in.refs[idx].final)
		return r.w.window, win.prog, false
	}
	return r.w.window, win.prog, true
}

// tracedSession wraps session in the root span of operation i, then times
// the layer calls alone on the same window right after it, so the host runs
// both at the same speed.
func (r *serveRun) tracedSession(i int) (int, int, bool) {
	cs := r.cs
	cs.op = int32(i)
	cs.session = cs.tr.begin("session", cs.op, -1)
	cs.wait = -1
	e, c, ok := r.session(i)
	cs.tr.end(cs.session)
	r.strideEdges += r.iso[r.in.order[i%len(r.in.order)]].time(cs.tr, cs.op)
	return e, c, ok
}

func (w *serveWorkload) run(rc runConfig) (*outcome, error) {
	in, err := buildServeInputs(w, rc.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	out.diag.Digests = in.digests
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	ops := make([]opSample, 0, 1<<18)
	base := liveHeap()

	var hostSamples []float64
	hs, setupS, samples, err := setupRepeats(func() (*hostedServer, error) {
		hs, err := w.setup(in, tr)
		if err == nil {
			hostSamples = append(hostSamples, float64(hs.hostNs)/1e6)
		}
		return hs, err
	}, (*hostedServer).stop)
	if err != nil {
		return nil, err
	}
	defer hs.stop()
	out.metrics["setup_s"] = setupS
	out.diag.SetupSamples = samples
	// Read after set-up: once sessions have run, the server's live heap
	// moved by a third between identical runs, so the steady figure is the
	// hosted fleet itself.
	out.metrics["heap_live_mb"] = heapSince(base)

	cs := &clientSide{tr: tr, wait: -1}
	addr := hs.ln.Addr().String()
	cl, err := client.New(client.Config{
		Tenant: "bench",
		Seed:   rc.seed,
		Dial: func() (net.Conn, error) {
			cs.dials++
			c, err := net.Dial("tcp", addr)
			if err != nil || tr == nil {
				return c, err
			}
			return &clientConn{Conn: c, cs: cs}, nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	r := &serveRun{w: w, in: in, cl: cl, cs: cs}

	// Warm-up: the whole operation order once, which visits every window,
	// checked like the timed operations.
	for i := range in.order {
		out.attempted++
		if _, _, ok := r.session(i); !ok {
			out.failed++
		}
	}

	if !rc.trace {
		lr := closedLoop(rc.seconds, ops, r.session)
		a, f := endToEndMetrics(lr, out.metrics, &out.diag)
		out.attempted += a
		out.failed += f
		return out, nil
	}

	batch := w.batch
	if batch <= 0 {
		batch = client.DefaultBatch
	}
	for _, win := range in.wins {
		img, serr := hs.srv.Store().Peek(in.progs[win.prog].name)
		if serr != nil {
			return nil, serr
		}
		r.iso = append(r.iso, newIsoInput(in.stream(win, w.window), batch, img.Compiled))
	}
	traced := tracedRun(rc.seconds, out, tr, "session", r.session, r.tracedSession)
	m := out.metrics
	m["serve.host_ms"] = median(hostSamples)
	m["client.retries"] = float64(cs.dials - 1)
	m["serve.rejects"] = float64(r.rejects)
	if err := w.ledger(r, tr, traced, m); err != nil {
		return nil, err
	}
	if m["verify.findings"] > 0 {
		out.failed++
	}
	return out, nil
}

// isoInput is one window's batches in the input form of each layer call
// that is timed alone: edges for AppendEdges and AdvanceBatch, the written
// frames for ReadFrame, the Edges bodies for ParseEdges.
type isoInput struct {
	batches [][]core.Edge
	frames  []byte
	bodies  [][]byte
	c       *core.Compiled
	buf     []byte
	edges   []core.Edge
}

func newIsoInput(edges []core.Edge, batch int, c *core.Compiled) isoInput {
	in := isoInput{c: c, edges: make([]core.Edge, 0, batch)}
	var wire bytes.Buffer
	for s := 0; s < len(edges); s += batch {
		b := edges[s:min(s+batch, len(edges))]
		in.batches = append(in.batches, b)
		payload := serve.AppendEdges(nil, b, int64(s))
		if err := serve.WriteFrame(&wire, payload); err != nil {
			panic(err) // a bytes.Buffer write cannot fail
		}
		_, body, err := serve.ParseFrame(payload)
		if err != nil {
			panic(err) // AppendEdges wrote a typed frame just above
		}
		in.bodies = append(in.bodies, body)
	}
	in.frames = wire.Bytes()
	return in
}

// time runs AppendEdges, ReadFrame, ParseEdges and AdvanceBatch over the
// window's batches, each call in its own span of operation op, and returns
// the edges the kernel consumed through stride tables.
func (in *isoInput) time(tr *tracer, op int32) uint64 {
	tr.timeIt("client.encode", op, -1, func() {
		for _, b := range in.batches {
			in.buf = serve.AppendEdges(in.buf[:0], b, 0)
		}
	})
	tr.timeIt("serve.read_frame", op, -1, func() {
		rd := bytes.NewReader(in.frames)
		for range in.batches {
			p, err := serve.ReadFrame(rd, in.buf)
			if err != nil {
				panic(err) // the frames were written by WriteFrame
			}
			in.buf = p[:cap(p)]
		}
	})
	tr.timeIt("serve.parse", op, -1, func() {
		for _, body := range in.bodies {
			var err error
			if in.edges, _, err = serve.ParseEdges(body, in.edges); err != nil {
				panic(err) // the bodies were written by AppendEdges
			}
		}
	})
	rep := core.NewCompiledReplayer(in.c)
	tr.timeIt("core.kernel", op, -1, func() {
		for _, b := range in.batches {
			rep.AdvanceBatch(b)
		}
	})
	return rep.StrideEdges()
}

// ledger fills the per-layer metrics of a traced serve run.
func (w *serveWorkload) ledger(r *serveRun, tr *tracer, lr loopResult, m map[string]float64) error {
	in, cs := r.in, r.cs
	sessions := tr.byOp("session")
	waits := tr.byOp("client.wait")
	busy := resolveOps(tr, "server.busy", sessions)
	encode, frame := tr.byOp("client.encode"), tr.byOp("serve.read_frame")
	parse, kernel := tr.byOp("serve.parse"), tr.byOp("core.kernel")

	var nsess, edges int
	var wait, busyT, sessT, enc, frm, prs, krn int64
	var allSess, allWait, allBusy []interval
	var st core.Stats
	for i := range lr.ops {
		op := int32(i)
		s := sessions[op]
		if len(s) == 0 {
			continue
		}
		idx := in.order[i%len(in.order)]
		nsess++
		edges += w.window
		sessT += total(s)
		wait += total(waits[op])
		busyT += total(busy[op])
		enc += total(encode[op])
		frm += total(frame[op])
		prs += total(parse[op])
		krn += total(kernel[op])
		allSess = append(allSess, s...)
		allWait = append(allWait, waits[op]...)
		allBusy = append(allBusy, busy[op]...)
		st.Add(&in.refs[idx].stats)
	}
	if nsess == 0 {
		return errors.New("traced phase completed no session")
	}
	pe := func(ns int64) float64 { return float64(ns) / float64(edges) }
	m["client.encode_ns_per_edge"] = pe(enc)
	m["client.wait_ns_per_edge"] = pe(wait)
	m["client.frames_per_session"] = float64(cs.frames.byType[serve.FrameEdges]) / float64(nsess)
	m["client.wire_bytes_per_edge"] = float64(cs.bytes) / float64(edges)
	m["serve.frame_ns_per_edge"] = pe(frm)
	m["serve.parse_ns_per_edge"] = pe(prs)
	m["serve.busy_ns_per_edge"] = pe(busyT)
	m["serve.checks_ns_per_edge"] = pe(busyT - frm - prs - krn)
	m["serve.transport_ns_per_edge"] = pe(wait - busyT)
	m["core.kernel_ns_per_edge"] = pe(krn)
	m["core.stride_hit_ratio"] = float64(r.strideEdges) / float64(edges)
	m["core.coverage"] = st.Coverage()
	m["core.desyncs"] = float64(st.Desyncs)

	// The layer-sum check, in three parts: client waits lie inside their
	// sessions (so client self + wait = session wall), server busy time
	// lies inside client waits, and the composed frame + parse + kernel
	// time fits inside server busy time.
	m["bench.layer_sum_err"] = maxf(
		missShare(allWait, allSess),
		missShare(allBusy, allWait),
		excessShare(frm+prs+krn, busyT),
	)

	// Admission layers, each call timed alone per hosted image.
	var states, traces, teaBytes int
	var verA, verC, comp int64
	var findings int
	for i, p := range in.progs {
		a := in.hosted[i]
		cache := cfg.NewCache(p.ref, cfg.StarDBT)
		var ra, rcmp *verify.Report
		verA += tr.timeIt("verify.automaton", -1, -1, func() { ra = verify.Automaton(a, cache) })
		var c *core.Compiled
		comp += tr.timeIt("core.compile", -1, -1, func() { c = core.Compile(a, serveLookup) })
		verC += tr.timeIt("verify.compiled", -1, -1, func() { rcmp = verify.Compiled(c) })
		findings += len(ra.Findings) + len(rcmp.Findings)
		states += a.NumStates()
		traces += a.Set().Len()
		teaBytes += len(in.teas[i])
	}
	m["verify.automaton_ms"] = float64(verA) / 1e6
	m["verify.compiled_ms"] = float64(verC) / 1e6
	m["verify.findings"] = float64(findings)
	m["core.compile_ms"] = float64(comp) / 1e6
	m["core.recorded_states"] = float64(states)
	m["trace.recorded_traces"] = float64(traces)
	m["core.tea_bytes_per_state"] = float64(teaBytes) / float64(states)
	return nil
}

// resolveOps assigns each span named name to the session whose span
// contains its start, and groups them by that operation.
func resolveOps(tr *tracer, name string, sessions map[int32][]interval) map[int32][]interval {
	type sess struct {
		op int32
		iv interval
	}
	var ss []sess
	for op, ivs := range sessions {
		for _, iv := range ivs {
			ss = append(ss, sess{op, iv})
		}
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].iv.start < ss[j].iv.start })
	out := map[int32][]interval{}
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.name != name {
			continue
		}
		k := sort.Search(len(ss), func(k int) bool { return ss[k].iv.start > s.start }) - 1
		if k < 0 || s.start >= ss[k].iv.end {
			continue
		}
		s.op = ss[k].op
		out[s.op] = append(out[s.op], interval{s.start, s.end})
	}
	return out
}

func maxf(xs ...float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
