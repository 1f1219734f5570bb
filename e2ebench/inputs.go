package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/pin"
	"github.com/lsc-tea/tea/internal/teatool"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// traceCfg is the trace-selection configuration every TEA here is recorded
// with: the repo's experiment threshold and the recording benchmarks' set
// cap, which gives gcc and perlbmk about 4.1k states each.
var traceCfg = trace.Config{HotThreshold: 12, MaxSetBlocks: 4096}

// progSpec names a fixed workload program and the two run lengths it is
// generated at: the reference run whose capture is streamed, and the
// longer training run the TEA is recorded on. Only WorkScale differs, so
// both runs share one code layout.
type progSpec struct {
	name       string
	refScale   int
	trainScale int
	// weight is how many operations per round stream this program. One
	// program gets more than half of the operations, so the median latency
	// lies inside its mode rather than in the gap between two programs'.
	weight int
}

// program is one generated program with its captures.
type program struct {
	name  string
	ref   *isa.Program
	train *isa.Program
	// capture is the pin block stream of the reference run.
	capture []core.Edge
}

// window is one equal-length slice of a capture that an operation streams.
type window struct {
	prog  int
	index int
	start int
}

// inputDigests identify everything an operation sees. Programs and TEAs
// depend only on the fixed specs; windows depend on the seed.
type inputDigests struct {
	Programs string `json:"programs"`
	TEAs     string `json:"teas"`
	Windows  string `json:"windows"`
	Input    string `json:"input"`
}

func loadProgram(ps progSpec) (*program, error) {
	spec, ok := workload.ByName(ps.name)
	if !ok {
		return nil, fmt.Errorf("unknown workload program %q", ps.name)
	}
	spec.WorkScale = ps.refScale
	ref := workload.Program(spec)
	spec.WorkScale = ps.trainScale
	train := workload.Program(spec)
	capt := teatool.NewCaptureTool()
	if _, err := pin.New().Run(ref, capt, 0); err != nil {
		return nil, fmt.Errorf("%s: capture reference run: %w", ps.name, err)
	}
	return &program{name: ps.name, ref: ref, train: train, capture: capt.Stream()}, nil
}

// recordDBT records the hosted TEA of p with the DBT on its training run.
func recordDBT(p *program) (*core.Automaton, error) {
	d, err := dbt.New().Run(p.train, "mret", traceCfg, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: dbt training run: %w", p.name, err)
	}
	return core.Build(d.Set), nil
}

// captureTraining returns the pin edge stream of p's training run, the
// input the record-replay jobs record from.
func captureTraining(p *program) ([]cfg.Edge, []uint64, error) {
	capt := teatool.NewEdgeCaptureTool()
	if _, err := pin.New().Run(p.train, capt, 0); err != nil {
		return nil, nil, fmt.Errorf("%s: capture training run: %w", p.name, err)
	}
	// Drop the final halt edge: windows are mid-run slices.
	n := len(capt.Edges()) - 1
	return capt.Edges()[:n], capt.Instrs()[:n], nil
}

// pickWindows draws n window starts of length w in a stream of length
// total, from the workload seed and the program name only.
func pickWindows(seed int64, prog int, name string, total, w, n int) ([]window, error) {
	if total < w {
		return nil, fmt.Errorf("%s: stream of %d edges is shorter than a %d-edge window", name, total, w)
	}
	h := sha256.Sum256([]byte(name))
	rng := rand.New(rand.NewSource(seed ^ int64(binary.LittleEndian.Uint64(h[:8]))))
	out := make([]window, n)
	for i := range out {
		out[i] = window{prog: prog, index: i, start: rng.Intn(total - w + 1)}
	}
	return out, nil
}

// opOrder is the operation sequence over windows laid out program-major
// (program p's window k is index p*nwin+k): each round visits program p
// weight times, each visit taking that program's next window.
func opOrder(progs []progSpec, nwin int) []int {
	next := make([]int, len(progs))
	var order []int
	for r := 0; r < nwin; r++ {
		for p, ps := range progs {
			for j := 0; j < ps.weight; j++ {
				order = append(order, p*nwin+next[p]%nwin)
				next[p]++
			}
		}
	}
	return order
}

// digester accumulates one named digest.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) program(p *isa.Program) {
	d.h.Write([]byte(p.Name))
	d.u64(p.Entry)
	for i := 0; i < p.Len(); i++ {
		fmt.Fprintf(d.h, "%+v\n", *p.Instr(i))
	}
}

func (d *digester) edges(es []core.Edge) {
	for _, e := range es {
		d.u64(e.Label)
		d.u64(e.Instrs)
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestInputs fills the digest set from the programs, the TEA images the
// workload ships (in program order) and its windows.
func digestInputs(progs []*program, teas [][]byte, wins []window, w int) inputDigests {
	pd, td, wd := newDigester(), newDigester(), newDigester()
	for _, p := range progs {
		pd.program(p.ref)
		pd.program(p.train)
		pd.edges(p.capture)
	}
	for _, t := range teas {
		td.u64(uint64(len(t)))
		td.h.Write(t)
	}
	wd.u64(uint64(w))
	for _, win := range wins {
		wd.u64(uint64(win.prog))
		wd.u64(uint64(win.start))
	}
	all := newDigester()
	for _, s := range []string{pd.sum(), td.sum(), wd.sum()} {
		all.h.Write([]byte(s))
	}
	return inputDigests{Programs: pd.sum(), TEAs: td.sum(), Windows: wd.sum(), Input: all.sum()}
}
