// Package verify is a static analyzer over the three TEA representations —
// the reference Automaton, the compiled flat form, and serialized images —
// that proves the paper's invariants by structural inspection alone: no PC
// stream, no replay.
//
// Until now every correctness guarantee in this repository was dynamic,
// established by differential replay over sampled streams. This package
// closes that gap the way model checking does for learned trace automata:
// each rule inspects one representation and reports violations as Findings
// (rule ID, severity, locus), so a corrupt image can be flagged before a
// single edge is replayed, and the compiled form is proven structurally
// equivalent to the automaton it was frozen from instead of being trusted
// on replay samples.
//
// Rule families (see DESIGN.md §10 for the rule → paper-construct map):
//
//	A-*  reference Automaton: determinism (Algorithm 1), state/TBB
//	     bijection, trace-chain linearity, entry-table soundness,
//	     reachability, NTE-soundness, CFG consistency against the image.
//	C-*  core.Compiled: arena bounds, inline-slot and plausibility-field
//	     agreement, entry-table placement and load, presence-filter
//	     coverage, B+ tree shape, and a bisimulation-style structural
//	     equivalence proof against the source Automaton.
//
// Serialized bytes are audited end-to-end by Image: anything core.Decode
// accepts must also pass both rule families (or the findings say exactly
// which rule rejected it and where).
package verify

import (
	"fmt"
	"sort"
	"strings"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/trace"
)

// Severity grades a finding.
type Severity int

const (
	// Warn marks representable-but-suspicious structure the replayer
	// tolerates (for example a hot cycle that can never exit to NTE).
	Warn Severity = iota
	// Error marks structure that violates a paper invariant; no recorder or
	// compiler in this repository produces it.
	Error
)

func (s Severity) String() string {
	if s == Warn {
		return "warn"
	}
	return "error"
}

// Finding is one rule violation: which rule fired, how bad it is, and the
// locus — the state and/or byte offset it anchors to — so CI output diffs
// cleanly and a reader can jump straight to the defect.
type Finding struct {
	// Rule is the stable rule identifier (e.g. "A-DET", "C-ENT").
	Rule string
	// Severity grades the finding.
	Severity Severity
	// State is the automaton/compiled state the finding anchors to, or -1
	// when the finding has no single-state locus.
	State core.StateID
	// Offset is the byte offset for wire-format findings, or -1.
	Offset int
	// Locus is the human-readable anchor ("state 5 ($$T2.loop)", "ent[12]").
	Locus string
	// Msg says what is wrong.
	Msg string
}

func (f Finding) String() string {
	locus := f.Locus
	if locus == "" {
		locus = "-"
	}
	return fmt.Sprintf("%s %s %s: %s", f.Rule, f.Severity, locus, f.Msg)
}

// names renders the state and TBB names that findings carry. A name is
// rendered only when a finding is reported, so a clean report resolves no
// symbol at all. Symbols resolve through a trace.SymbolCache that lives
// only as long as the verify call: a report with a finding on every state
// still walks each program's labels once, and nothing outlives the call (a
// server keeps no index per hosted image).
type names struct {
	syms trace.SymbolCache
}

// tbb renders t exactly as t.Name() does.
func (n *names) tbb(t *trace.TBB) string { return t.NameIn(&n.syms) }

// state renders the canonical locus of a state finding, "state N (name)"
// with st.Name()'s text.
func (n *names) state(id core.StateID, st *core.State) string {
	switch {
	case st == nil:
		return fmt.Sprintf("state %d", id)
	case st.TBB == nil:
		return fmt.Sprintf("state %d (NTE)", id)
	}
	return fmt.Sprintf("state %d (%s)", id, n.tbb(st.TBB))
}

// Report is an ordered, diffable collection of findings.
type Report struct {
	Findings []Finding
}

func (r *Report) add(f Finding) { r.Findings = append(r.Findings, f) }

// errf records an Error-severity finding anchored at state (or -1).
func (r *Report) errf(rule string, state core.StateID, locus, format string, args ...any) {
	r.add(Finding{Rule: rule, Severity: Error, State: state, Offset: -1,
		Locus: locus, Msg: fmt.Sprintf(format, args...)})
}

// warnf records a Warn-severity finding anchored at state (or -1).
func (r *Report) warnf(rule string, state core.StateID, locus, format string, args ...any) {
	r.add(Finding{Rule: rule, Severity: Warn, State: state, Offset: -1,
		Locus: locus, Msg: fmt.Sprintf(format, args...)})
}

// Merge appends another report's findings.
func (r *Report) Merge(o *Report) {
	if o != nil {
		r.Findings = append(r.Findings, o.Findings...)
	}
}

// Clean reports whether no rule fired at all.
func (r *Report) Clean() bool { return len(r.Findings) == 0 }

// OK reports whether no Error-severity rule fired (warnings allowed).
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return false
		}
	}
	return true
}

// Errs returns the number of Error-severity findings.
func (r *Report) Errs() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == Error {
			n++
		}
	}
	return n
}

// Err returns nil when OK, otherwise an error summarizing the first
// Error-severity finding and the total count.
func (r *Report) Err() error {
	for _, f := range r.Findings {
		if f.Severity == Error {
			return fmt.Errorf("verify: %d finding(s), first: %s", r.Errs(), f)
		}
	}
	return nil
}

// normalize sorts findings into the canonical (rule, state, offset, msg)
// order so that report output is deterministic and diffable across runs.
func (r *Report) normalize() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := r.Findings[i], r.Findings[j]
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.State != b.State {
			return a.State < b.State
		}
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		return a.Msg < b.Msg
	})
}

// String renders one finding per line in canonical order; empty for a
// clean report.
func (r *Report) String() string {
	r.normalize()
	var b strings.Builder
	for _, f := range r.Findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}
