package verify

import (
	"reflect"
	"testing"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/cpu"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/progs"
	"github.com/lsc-tea/tea/internal/trace"
)

// figure2Set records the paper's Figure 2 program into five traces. Its
// block heads carry assembler labels, and T5's head block is labeled both
// begin and outer, so the loci below exercise both symbol rendering and
// the smallest-name tie rule.
func figure2Set(t *testing.T) (*trace.Set, *isa.Program) {
	t.Helper()
	p := progs.Figure2(60, 200)
	s, _ := trace.NewStrategy("mret", p, trace.Config{HotThreshold: 16})
	set, _, err := trace.Record(cpu.New(p), cfg.StarDBT, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Traces) != 5 || set.Traces[1].Len() != 3 || set.Traces[4].Len() != 3 {
		t.Fatalf("Figure 2 recording changed shape: %v", set.Traces)
	}
	return set, p
}

// rendered returns the rule's findings as "locus: msg" in report order.
func rendered(r *Report, rule string) []string {
	var out []string
	for _, f := range r.Findings {
		if f.Rule == rule {
			out = append(out, f.Locus+": "+f.Msg)
		}
	}
	return out
}

func requireRendered(t *testing.T, r *Report, rule string, want []string) {
	t.Helper()
	if got := rendered(r, rule); !reflect.DeepEqual(got, want) {
		t.Errorf("%s findings:\n got %q\nwant %q", rule, got, want)
	}
}

// TestLocusTextPinned pins the exact locus and message text operators read
// for seeded defects in a real automaton. Loci are rendered only when a
// finding is reported, through a per-call symbol index; the text must be
// byte-identical to what eager State.Name() rendering produced.
func TestLocusTextPinned(t *testing.T) {
	t.Run("wrong label", func(t *testing.T) {
		set, p := figure2Set(t)
		tr := set.Traces[1]
		head := tr.TBBs[0]
		head.Succs[head.Block.Head^0x1] = tr.TBBs[1]
		r := Automaton(core.Build(set), cfg.NewCache(p, cfg.StarDBT))
		requireRendered(t, r, "A-LABEL", []string{
			"state 2 ($$T2.header): label 0x804803d does not match target $$T2.cmpv head 0x8048045",
		})
		requireRendered(t, r, "A-CFG", []string{
			"state 2 ($$T2.header): label 0x804803d is not a successor of [0x804803c..0x804803f 2i 9B jcc] in the image CFG",
		})
	})
	t.Run("cross-trace target", func(t *testing.T) {
		set, p := figure2Set(t)
		from, to := set.Traces[4].Head(), set.Traces[1].Head()
		from.Succs[to.Block.Head] = to
		r := Automaton(core.Build(set), cfg.NewCache(p, cfg.StarDBT))
		requireRendered(t, r, "A-LABEL", []string{
			"state 7 ($$T5.begin): in-trace transition crosses traces: $$T5.begin -> $$T2.header",
		})
		requireRendered(t, r, "A-CFG", []string{
			"state 7 ($$T5.begin): label 0x804803c is not a successor of [0x804802d..0x804803f 5i 24B jcc] in the image CFG",
		})
	})
	t.Run("mismatched block", func(t *testing.T) {
		set, p := figure2Set(t)
		for _, tbb := range []*trace.TBB{set.Traces[1].TBBs[1], set.Traces[4].TBBs[0]} {
			b := *tbb.Block
			b.NumInstrs++
			tbb.Block = &b
		}
		r := Automaton(core.Build(set), cfg.NewCache(p, cfg.StarDBT))
		requireRendered(t, r, "A-IMG", []string{
			"state 3 ($$T2.cmpv): recorded block [0x8048045..0x8048049 4i 10B jcc] does not match image block [0x8048045..0x8048049 3i 10B jcc]",
			"state 7 ($$T5.begin): recorded block [0x804802d..0x804803f 6i 24B jcc] does not match image block [0x804802d..0x804803f 5i 24B jcc]",
		})
	})
	t.Run("stale compiled form", func(t *testing.T) {
		set, _ := figure2Set(t)
		a := core.Build(set)
		c := core.Compile(a, core.ConfigGlobalLocal)
		for _, tr := range []*trace.Trace{set.Traces[1], set.Traces[4]} {
			if err := tr.TBBs[0].Link(tr.TBBs[2]); err != nil {
				t.Fatal(err)
			}
			a.SyncTrace(tr)
		}
		r := Compiled(c)
		requireRendered(t, r, "C-EQ", []string{
			"state 2 ($$T2.header): transition on 0x8048052: compiled (0,false) != automaton (4,true)",
			"state 7 ($$T5.begin): transition on 0x8048052: compiled (0,false) != automaton (9,true)",
		})
	})
}
