package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/lsc-tea/tea/internal/cfg"
	"github.com/lsc-tea/tea/internal/core"
	"github.com/lsc-tea/tea/internal/isa"
	"github.com/lsc-tea/tea/internal/obs"
	"github.com/lsc-tea/tea/internal/verify"
)

// Image is one immutable generation of a hosted automaton. Sessions pin
// the *Image they opened against, so a generation swap never mutates
// anything a live session can observe — the PR 4 invalidation discipline
// lifted to the service: swap pointers, never edit in place.
type Image struct {
	Name      string
	Gen       uint64
	Automaton *core.Automaton
	Compiled  *core.Compiled
}

// imageEntry is the mutable slot behind one image name: the current
// generation (atomically swapped on publish), the program images decode
// against, and the entry's circuit breaker.
type imageEntry struct {
	cur     atomic.Pointer[Image]
	program *isa.Program
	brk     *breaker
}

// Store hosts the fleet of named images. All methods are safe for
// concurrent use; Get is a lock-free pointer load on the hot path.
type Store struct {
	mu      sync.RWMutex
	images  map[string]*imageEntry
	lookup  core.LookupConfig
	brkThr  int
	brkCool time.Duration
	now     func() time.Time

	// admitNs and findings time every admission (Add, Publish, breaker
	// re-verify) and count its verifier findings by rule; nil on a store
	// that no server registered metrics for.
	admitNs  *obs.Histogram
	findings *obs.CounterVec
	// verified, when set (tests), sees every compiled form that passes
	// admission.
	verified func(*core.Compiled)
}

// NewStore creates an empty store. Sessions replay with lookup's Local
// configuration; breakerThreshold consecutive failed sessions quarantine
// an image for breakerCooldown before a verify-gated readmission
// (threshold <= 0 disables the breaker).
func NewStore(lookup core.LookupConfig, breakerThreshold int, breakerCooldown time.Duration) *Store {
	return &Store{
		images: make(map[string]*imageEntry),
		lookup: lookup,
		brkThr: breakerThreshold, brkCool: breakerCooldown,
		now: time.Now,
	}
}

// Add hosts an automaton under name with generation 1. The automaton is
// compiled once, and that compiled form is both what the static verifier
// proves and what sessions replay: the store never serves an image it has
// not proven. The same gate guards Publish and breaker readmission.
func (s *Store) Add(name string, p *isa.Program, a *core.Automaton) error {
	start := time.Now()
	c := core.Compile(a, s.lookup)
	if err := s.admit(start, verify.Admit(c, programCache(p)), c); err != nil {
		return errf(CodeBadImage, "verification failed: %v", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.images[name]; ok {
		return errf(CodeBadImage, "image %q already hosted", name)
	}
	e := &imageEntry{program: p, brk: newBreaker(s.brkThr, s.brkCool, s.now)}
	e.cur.Store(&Image{Name: name, Gen: 1, Automaton: a, Compiled: c})
	s.images[name] = e
	return nil
}

// programCache is the block cache the CFG rules check against; nil (image
// rules skipped) when the image's program is unknown.
func programCache(p *isa.Program) *cfg.Cache {
	if p == nil {
		return nil
	}
	return cfg.NewCache(p, cfg.StarDBT)
}

// admit settles one admission that began at start: it records the
// admission's latency and findings, and returns the report's first error
// (nil when c may be served).
func (s *Store) admit(start time.Time, r *verify.Report, c *core.Compiled) error {
	if s.admitNs != nil {
		s.admitNs.Observe(uint64(time.Since(start)))
		for _, f := range r.Findings {
			s.findings.With(f.Rule).Add(1)
		}
	}
	err := r.Err()
	if err == nil && s.verified != nil {
		s.verified(c)
	}
	return err
}

// lookupEntry returns the entry for name.
func (s *Store) lookupEntry(name string) (*imageEntry, *Error) {
	s.mu.RLock()
	e, ok := s.images[name]
	s.mu.RUnlock()
	if !ok {
		return nil, errf(CodeUnknownImage, "image %q not hosted", name)
	}
	return e, nil
}

// Get returns the current generation of name for a new session, enforcing
// the circuit breaker: a quarantined image is rejected with
// CodeQuarantined (retry-after = remaining cooldown), except that once the
// cooldown has elapsed the open attempt triggers a static re-verification
// of the current generation — pass readmits the image, findings re-arm the
// quarantine. The re-verify runs on the opener's goroutine: admission cost
// lands on the tenant asking, never on sessions already running.
func (s *Store) Get(name string) (*Image, *Error) {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return nil, serr
	}
	ok, verifyDue := e.brk.admit()
	if !ok {
		if verifyDue {
			img := e.cur.Load()
			start := time.Now()
			clean := s.admit(start, verify.Admit(img.Compiled, programCache(e.program)), img.Compiled) == nil
			e.brk.verdict(clean)
			if clean {
				return img, nil
			}
		}
		retry := e.brk.remaining()
		if retry <= 0 {
			retry = time.Millisecond
		}
		return nil, errRetry(CodeQuarantined, retry, "image %q quarantined", name)
	}
	return e.cur.Load(), nil
}

// Peek returns the current generation of name without consulting the
// breaker (metrics, resumed sessions that already hold a pin).
func (s *Store) Peek(name string) (*Image, *Error) {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return nil, serr
	}
	return e.cur.Load(), nil
}

// Publish admits a serialized TEA as the image's next generation: decode
// against the hosted program and compile once, statically verify exactly
// those two forms end-to-end, and atomically swap them in. A successful
// publish resets the circuit breaker — the failure evidence that tripped
// it described the previous generation.
func (s *Store) Publish(name string, data []byte) (uint64, *Error) {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return 0, serr
	}
	start := time.Now()
	a, c, r := verify.Load(data, cfg.NewCache(e.program, cfg.StarDBT), s.lookup)
	if err := s.admit(start, r, c); err != nil {
		return 0, errf(CodeBadImage, "publish rejected: %v", err)
	}

	s.mu.Lock()
	old := e.cur.Load()
	next := &Image{Name: name, Gen: old.Gen + 1, Automaton: a, Compiled: c}
	e.cur.Store(next)
	s.mu.Unlock()
	e.brk.reset()
	return next.Gen, nil
}

// Result records a finished session against the image, feeding the
// breaker. It returns true when this failure tripped the quarantine.
func (s *Store) Result(name string, failed bool) bool {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return false
	}
	return e.brk.result(failed)
}

// Quarantined reports whether name's breaker is currently open.
func (s *Store) Quarantined(name string) bool {
	e, serr := s.lookupEntry(name)
	if serr != nil {
		return false
	}
	return e.brk.isOpen()
}

// Names lists the hosted image names (unordered).
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.images))
	for n := range s.images {
		out = append(out, n)
	}
	return out
}
