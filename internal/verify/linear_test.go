package verify

import (
	"fmt"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// countingSymbols is a program's symbol source that counts every walk of
// its Labels map: one per SymbolFor call, one per SymbolIndex build. Every
// TBB name the verifier renders resolves through it, so the count bounds
// symbol-resolution cost without a stopwatch.
type countingSymbols struct {
	p     *isa.Program
	walks int
}

func (c *countingSymbols) SymbolFor(addr uint64) (string, bool) {
	c.walks++
	return c.p.SymbolFor(addr)
}

func (c *countingSymbols) SymbolIndex() map[uint64]string {
	c.walks++
	return c.p.SymbolIndex()
}

// countedSet records a synthetic program whose trace set names symbols
// through a countingSymbols source.
func countedSet(t *testing.T, seed int64) (*trace.Set, *isa.Program, *countingSymbols) {
	t.Helper()
	spec, _ := workload.ByName("181.mcf")
	spec.Seed = seed
	spec.WorkScale = 8
	p := workload.Program(spec)
	syms := &countingSymbols{p: p}
	s, _ := trace.NewStrategy("mret", syms, trace.Config{HotThreshold: 8})
	set, _, err := trace.Record(cpu.New(p), cfg.StarDBT, s, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return set, p, syms
}

// forgeEveryTBB links every TBB to itself on label head^bit, a label no
// block head carries, so every state of a rebuilt automaton is defective.
func forgeEveryTBB(set *trace.Set, bit uint64) {
	for _, tr := range set.Traces {
		for _, tbb := range tr.TBBs {
			if tbb.Succs == nil {
				tbb.Succs = make(map[uint64]*trace.TBB)
			}
			tbb.Succs[tbb.Block.Head^bit] = tbb
		}
	}
}

// requireNamed checks that each of rule's loci is byte-identical to eager
// State.Name() rendering and, when every is set, that the rule fired on
// every non-NTE state.
func requireNamed(t *testing.T, r *Report, a *core.Automaton, rule string, every bool) {
	t.Helper()
	flagged := make(map[core.StateID]bool)
	for _, f := range r.Findings {
		if f.Rule != rule {
			continue
		}
		flagged[f.State] = true
		if want := fmt.Sprintf("state %d (%s)", f.State, a.State(f.State).Name()); f.Locus != want {
			t.Fatalf("%s locus %q, eager rendering gives %q", rule, f.Locus, want)
		}
	}
	if len(flagged) == 0 || every && len(flagged) != a.NumStates()-1 {
		t.Fatalf("%s fired on %d of %d states", rule, len(flagged), a.NumStates()-1)
	}
}

// TestHostileAdmissionWalksLabelsOnce: over a program padded to thousands
// of labels (some aliasing block heads, so the tie rule decides their
// names), with a finding on every state, each verify call walks the Labels
// map at most once. Rendering each locus with SymbolFor would walk it once
// per finding: quadratic admission.
func TestHostileAdmissionWalksLabelsOnce(t *testing.T) {
	set, p, syms := countedSet(t, 1)
	for i := 0; i < 4096; i++ {
		tbb := set.Traces[i%len(set.Traces)].Head()
		p.Labels[fmt.Sprintf("pad%04d", i)] = tbb.Block.Head + uint64(i%2)
	}
	forgeEveryTBB(set, 1)
	a := core.Build(set)
	cache := cfg.NewCache(p, cfg.StarDBT)
	walks := func(f func()) int {
		before := syms.walks
		f()
		return syms.walks - before
	}

	var r *Report
	if n := walks(func() { r = Automaton(a, cache) }); n != 1 {
		t.Fatalf("Automaton walked Labels %d times, want 1", n)
	}
	requireNamed(t, r, a, "A-LABEL", true)
	requireNamed(t, r, a, "A-CFG", false)

	// Compiled from the forged automaton, the form is clean; a second
	// forgery then drifts the automaton away from it, and the
	// bisimulation (Compiled's C-EQ pass) disagrees on every state.
	c := core.Compile(a, core.ConfigGlobalLocal)
	if n := walks(func() { r = Compiled(c) }); n != 0 || !r.Clean() {
		t.Fatalf("clean Compiled walked Labels %d times, findings:\n%s", n, r)
	}
	forgeEveryTBB(set, 2)
	drifted := core.Build(set)
	r = &Report{}
	if n := walks(func() { compiledBisim(r, c, drifted, c.Audit(), &names{}) }); n != 1 {
		t.Fatalf("C-EQ walked Labels %d times, want 1", n)
	}
	requireNamed(t, r, drifted, "C-EQ", true)
}

// TestCleanVerifyWalksNoLabels: a clean report renders no name, so
// admitting a clean image never touches the symbol table.
func TestCleanVerifyWalksNoLabels(t *testing.T) {
	set, p, syms := countedSet(t, 7)
	a := core.Build(set)
	r := Automaton(a, cfg.NewCache(p, cfg.StarDBT))
	r.Merge(Compiled(core.Compile(a, core.ConfigGlobalNoLocal)))
	if !r.Clean() {
		t.Fatalf("findings:\n%s", r)
	}
	if syms.walks != 0 {
		t.Fatalf("clean verify walked Labels %d times", syms.walks)
	}
}
