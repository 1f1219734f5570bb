package verify

import (
	"fmt"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
)

// Image audits a serialized TEA image end-to-end: decode it against the
// program image, then run every automaton rule (including the CFG rules)
// and every compiled rule over the result. Anything core.Decode accepts
// must pass both rule families, or the findings say which rule rejected
// it and where.
//
// A decode rejection is itself reported as a W-DEC finding carrying the
// byte offset and field from the *core.DecodeError, so fuzzers and the CI
// gate handle "rejected" and "decoded but structurally bad" through one
// interface.
func Image(data []byte, cache *cfg.Cache, cfg core.LookupConfig) *Report {
	_, _, r := Load(data, cache, cfg)
	return r
}

// Load is Image for a caller that keeps what it audited: it decodes data,
// compiles the automaton with cfg, and runs both rule families over
// exactly the two forms it returns, so an admission gate can serve the
// objects it proved instead of decoding and compiling a second, unproven
// copy. On a decode rejection the forms are nil and the report holds the
// W-DEC finding.
func Load(data []byte, cache *cfg.Cache, cfg core.LookupConfig) (*core.Automaton, *core.Compiled, *Report) {
	r := &Report{}
	a, err := core.Decode(data, cache)
	if err != nil {
		f := Finding{Rule: "W-DEC", Severity: Error, State: -1, Offset: -1,
			Locus: "image", Msg: err.Error()}
		if de, ok := err.(*core.DecodeError); ok {
			f.Offset = de.Offset
			f.Locus = fmt.Sprintf("offset %d (%s)", de.Offset, de.Field)
		}
		r.add(f)
		return nil, nil, r
	}
	c := core.Compile(a, cfg)
	return a, c, Admit(c, cache)
}

// Admit runs both rule families over a compiled form and the automaton it
// was compiled from (the CFG rules too when cache is non-nil): the gate a
// server runs on exactly the object it is about to serve.
func Admit(c *core.Compiled, cache *cfg.Cache) *Report {
	r := &Report{}
	nm := &names{}
	checkAutomaton(r, c.Automaton(), cache, nm)
	checkCompiled(r, c, nm)
	r.normalize()
	return r
}
