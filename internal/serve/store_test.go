package serve

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/dbt"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/trace"
	"github.com/lsc-tea/tea/internal/workload"
)

// TestStoreServesVerifiedCompiled: Add and Publish serve the very
// *core.Compiled the admission gate proved, not a second compile.
func TestStoreServesVerifiedCompiled(t *testing.T) {
	f := testFixture(t)
	s := NewServer(Config{})
	var proven []*core.Compiled
	s.store.verified = func(c *core.Compiled) { proven = append(proven, c) }

	if err := s.Host("img", f.prog, f.auto); err != nil {
		t.Fatal(err)
	}
	img, _ := s.Store().Peek("img")
	if len(proven) != 1 || img.Compiled != proven[0] || img.Compiled.Automaton() != f.auto {
		t.Fatalf("Add serves %p, admission proved %v", img.Compiled, proven)
	}

	data, err := core.Encode(f.auto)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := s.Store().Publish("img", data); serr != nil {
		t.Fatal(serr)
	}
	img, _ = s.Store().Peek("img")
	if len(proven) != 2 || img.Compiled != proven[1] || img.Compiled.Automaton() != img.Automaton {
		t.Fatalf("Publish serves %p, admission proved %v", img.Compiled, proven)
	}
}

// TestAdmissionMetrics: every admission (Add, Publish, breaker re-verify)
// lands one tea_serve_admission_ns observation, and a refused publish
// counts its findings by rule.
func TestAdmissionMetrics(t *testing.T) {
	f := testFixture(t)
	now := time.Unix(0, 0)
	s := newTestServer(t, func(c *Config) {
		c.BreakerThreshold = 1
		c.BreakerCooldown = time.Second
	})
	s.store.now = func() time.Time { return now }
	count := func() uint64 {
		_, n, _ := s.store.admitNs.Buckets()
		return n
	}
	if got := count(); got != 1 {
		t.Fatalf("after Host: %d admissions observed, want 1", got)
	}

	data, err := core.Encode(f.auto)
	if err != nil {
		t.Fatal(err)
	}
	if _, serr := s.Store().Publish("img", data[:len(data)/2]); serr == nil || serr.Code != CodeBadImage {
		t.Fatalf("truncated publish: %v", serr)
	}
	if got := count(); got != 2 {
		t.Fatalf("after refused Publish: %d admissions observed, want 2", got)
	}
	if got := s.store.findings.With("W-DEC").Value(); got != 1 {
		t.Fatalf("W-DEC findings %d, want 1", got)
	}

	// Trip the breaker (its clock is frozen), let the cooldown pass, and
	// open: the readmission re-verify is the third admission.
	e, _ := s.store.lookupEntry("img")
	e.brk.now = s.store.now
	s.Store().Result("img", true)
	if !s.Store().Quarantined("img") {
		t.Fatal("breaker did not trip")
	}
	now = now.Add(2 * time.Second)
	if _, serr := s.Store().Get("img"); serr != nil {
		t.Fatalf("readmission: %v", serr)
	}
	if got := count(); got != 3 {
		t.Fatalf("after re-verify: %d admissions observed, want 3", got)
	}
}

// TestServeAfterShutdownReturns: a Serve that starts after Shutdown must
// close its listener and return at once instead of accepting forever.
func TestServeAfterShutdownReturns(t *testing.T) {
	s := newTestServer(t, nil)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Shutdown is still accepting")
	}
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		c.Close()
		t.Fatal("listener still accepts after Serve returned")
	}
}

var (
	gccOnce sync.Once
	gccProg *isa.Program
	gccAuto *core.Automaton
)

// gccImage records a gcc-sized hosted image (about 4.1k states over a
// program with about 5.4k labels): the 176.gcc training run under the DBT
// with the serve benchmark's trace configuration.
func gccImage(b *testing.B) (*isa.Program, *core.Automaton) {
	gccOnce.Do(func() {
		spec, _ := workload.ByName("176.gcc")
		spec.WorkScale = 40
		train := workload.Program(spec)
		d, err := dbt.New().Run(train, "mret", trace.Config{HotThreshold: 12, MaxSetBlocks: 4096}, 0)
		if err != nil {
			b.Fatal(err)
		}
		spec.WorkScale = 16
		gccProg, gccAuto = workload.Program(spec), core.Build(d.Set)
	})
	return gccProg, gccAuto
}

// BenchmarkStoreAdd admits a gcc-sized image: compile plus the full static
// verification (automaton rules against the program image, compiled-form
// audit).
func BenchmarkStoreAdd(b *testing.B) {
	p, a := gccImage(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := NewStore(core.ConfigGlobalLocal, 0, 0)
		if err := st.Add("gcc", p, a); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.NumStates()), "states")
}
