// Package fault is the kernel-wide deterministic fault-injection registry.
//
// Code that acquires a resource or performs I/O declares a named Site at the
// choke point and asks it, per attempt, whether to fail:
//
//	var sitePage = fault.Register("mem.page")
//	...
//	if sitePage.Hit(pid) {
//		return ErrNoMem
//	}
//
// A site costs one atomic pointer load while disarmed, so sites can sit on
// hot paths (page materialization, fd allocation) without measurable cost.
// Arming a site installs a Spec — a deterministic plan in the same shape as
// the rfs wire-fault plans: decisions are a pure function of the hit ordinal
// (nth-hit, every-k), optionally scoped to one pid, optionally driven by a
// seeded pseudo-random sequence. Identical plans over identical executions
// inject identical faults, which is what makes storms replayable and their
// fallout debuggable (PR 1's ktrace determinism harness applies unchanged).
//
// The package is a leaf: it knows nothing of the kernel, and every consumer
// (mem, kernel, memfs, procfs, rfs) shares the Default registry, which the
// /procx/faults control file exposes at run time.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Spec is a deterministic fault plan for one site. All criteria are ANDed
// with the pid scope and the injection budget; among the firing criteria
// (Nth, Every, Prob) any match fires. A Spec with no firing criterion fires
// on every matching hit.
type Spec struct {
	Nth   uint64 // fire on exactly the nth matching hit (1-based)
	Every uint64 // fire on every kth matching hit
	Count uint64 // stop after this many injections (0 = unlimited)
	Pid   int    // only hits attributed to this pid match (0 = any)
	Seed  uint64 // seed for the Prob stream (plans differing only in Seed differ)
	Prob  uint64 // fire with probability Prob/1000 per matching hit
}

// String encodes the spec in the textual plan format ("nth=3 pid=5").
func (sp Spec) String() string {
	var parts []string
	add := func(k string, v uint64) {
		if v != 0 {
			parts = append(parts, k+"="+strconv.FormatUint(v, 10))
		}
	}
	add("nth", sp.Nth)
	add("every", sp.Every)
	add("count", sp.Count)
	add("pid", uint64(sp.Pid))
	add("seed", sp.Seed)
	add("prob", sp.Prob)
	if len(parts) == 0 {
		return "always"
	}
	return strings.Join(parts, " ")
}

// plan is an installed Spec plus its decision state. A fresh plan starts all
// counters at zero, so re-arming a site replays the same decisions.
type plan struct {
	spec Spec
	n    uint64 // matching hits so far
	inj  uint64 // injections so far under this plan
	rng  uint64 // xorshift64 state for Prob decisions
}

// xorshift64 is the deterministic pseudo-random step for Prob plans.
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// Site is one named injection point.
type Site struct {
	name string

	// p is the armed plan; nil means disarmed. The nil check is the entire
	// disabled-path cost.
	p atomic.Pointer[plan]

	mu       sync.Mutex    // serializes armed-path decisions
	hits     atomic.Uint64 // hits observed while armed
	injected atomic.Uint64 // faults injected (all plans, cumulative)
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Hits returns how many times the site was hit while armed.
func (s *Site) Hits() uint64 { return s.hits.Load() }

// Injected returns how many faults the site has injected.
func (s *Site) Injected() uint64 { return s.injected.Load() }

// Plan returns the armed spec, if any.
func (s *Site) Plan() (Spec, bool) {
	if pl := s.p.Load(); pl != nil {
		return pl.spec, true
	}
	return Spec{}, false
}

// Arm installs a plan. The plan's decision state starts fresh, so arming the
// same spec before identical executions injects identical faults.
func (s *Site) Arm(sp Spec) {
	// The +odd-constant keeps a zero seed from producing the all-zero
	// xorshift fixed point while staying a pure function of Seed.
	s.p.Store(&plan{spec: sp, rng: sp.Seed + 0x9e3779b97f4a7c15})
}

// Disarm removes the plan; the site reverts to the single-load disabled path.
func (s *Site) Disarm() { s.p.Store(nil) }

// ResetCounters zeroes the cumulative hit and injection counters.
func (s *Site) ResetCounters() {
	s.hits.Store(0)
	s.injected.Store(0)
}

// Hit reports whether the site should fail this attempt, attributed to pid
// (0 when the caller has no process context; such hits never match a
// pid-scoped plan). Disarmed sites answer false after one atomic load.
func (s *Site) Hit(pid int) bool {
	if s.p.Load() == nil {
		return false
	}
	return s.slowHit(pid)
}

func (s *Site) slowHit(pid int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	pl := s.p.Load()
	if pl == nil {
		return false
	}
	s.hits.Add(1)
	sp := pl.spec
	if sp.Pid != 0 && sp.Pid != pid {
		return false
	}
	pl.n++
	if sp.Count != 0 && pl.inj >= sp.Count {
		return false
	}
	fire := sp.Nth == 0 && sp.Every == 0 && sp.Prob == 0
	if sp.Nth != 0 && pl.n == sp.Nth {
		fire = true
	}
	if sp.Every != 0 && pl.n%sp.Every == 0 {
		fire = true
	}
	if sp.Prob != 0 {
		pl.rng = xorshift64(pl.rng)
		if pl.rng%1000 < sp.Prob {
			fire = true
		}
	}
	if fire {
		pl.inj++
		s.injected.Add(1)
	}
	return fire
}

// Registry holds the named sites. Sites register once at package init time;
// controllers arm and disarm them at run time.
type Registry struct {
	mu    sync.Mutex
	sites map[string]*Site
	order []*Site // registration order, for stable listings
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{sites: map[string]*Site{}} }

// Default is the registry every kernel subsystem registers with; the
// /procx/faults control file exposes it.
var Default = NewRegistry()

// Register returns the site named name, creating it if needed. Registering
// the same name twice returns the same site.
func (r *Registry) Register(name string) *Site {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[name]; ok {
		return s
	}
	s := &Site{name: name}
	r.sites[name] = s
	r.order = append(r.order, s)
	return s
}

// Register registers name with the Default registry.
func Register(name string) *Site { return Default.Register(name) }

// Lookup returns the site named name, or nil.
func (r *Registry) Lookup(name string) *Site {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sites[name]
}

// Sites returns the registered sites in registration order.
func (r *Registry) Sites() []*Site {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Site(nil), r.order...)
}

// SiteNames returns the registered names, sorted.
func (r *Registry) SiteNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.sites))
	for n := range r.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DisarmAll removes every plan.
func (r *Registry) DisarmAll() {
	for _, s := range r.Sites() {
		s.Disarm()
	}
}

// Reset disarms every site and zeroes every counter: the clean slate a
// determinism comparison starts from.
func (r *Registry) Reset() {
	for _, s := range r.Sites() {
		s.Disarm()
		s.ResetCounters()
	}
}

// AnyArmed reports whether any site has a plan installed.
func (r *Registry) AnyArmed() bool {
	for _, s := range r.Sites() {
		if _, ok := s.Plan(); ok {
			return true
		}
	}
	return false
}

// TotalInjected sums the injection counters over all sites.
func (r *Registry) TotalInjected() uint64 {
	var n uint64
	for _, s := range r.Sites() {
		n += s.Injected()
	}
	return n
}

// EncodeText renders the registry as the /procx/faults file contents: one
// line per site, in registration order.
//
//	site mem.page plan=nth=3 hits=12 injected=1
//	site kernel.fork plan=- hits=0 injected=0
func (r *Registry) EncodeText() []byte {
	var b strings.Builder
	for _, s := range r.Sites() {
		planStr := "-"
		if sp, ok := s.Plan(); ok {
			planStr = strings.ReplaceAll(sp.String(), " ", ",")
		}
		fmt.Fprintf(&b, "site %s plan=%s hits=%d injected=%d\n",
			s.Name(), planStr, s.Hits(), s.Injected())
	}
	return []byte(b.String())
}

// ErrUnknownSite reports a command naming a site nothing registered.
var ErrUnknownSite = errors.New("fault: unknown site")

// ErrBadCommand reports a malformed control command.
var ErrBadCommand = errors.New("fault: bad command")

// ParseSpec parses "k=v" fields (nth, every, count, pid, seed, prob) into a
// Spec. Fields may be space- or comma-separated.
func ParseSpec(args string) (Spec, error) {
	var sp Spec
	fields := strings.FieldsFunc(args, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
	for _, f := range fields {
		if f == "always" {
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return Spec{}, fmt.Errorf("%w: field %q", ErrBadCommand, f)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("%w: field %q", ErrBadCommand, f)
		}
		switch k {
		case "nth":
			sp.Nth = n
		case "every":
			sp.Every = n
		case "count":
			sp.Count = n
		case "pid":
			sp.Pid = int(n)
		case "seed":
			sp.Seed = n
		case "prob":
			if n > 1000 {
				n = 1000
			}
			sp.Prob = n
		default:
			return Spec{}, fmt.Errorf("%w: field %q", ErrBadCommand, f)
		}
	}
	return sp, nil
}

// Exec runs one textual control command against the registry:
//
//	clear            disarm every site
//	clear <site>     disarm one site
//	reset            disarm every site and zero all counters
//	<site> [k=v...]  arm a site with the given Spec fields
//
// Blank lines and #-comments are ignored.
func (r *Registry) Exec(line string) error {
	cmd, err := r.parse(line)
	if cmd != nil {
		cmd()
	}
	return err
}

// ExecAll runs a batch of newline-separated commands all or nothing: it
// parses every line before it applies any, so a batch with a bad line
// changes nothing.
func (r *Registry) ExecAll(text string) error {
	var cmds []func()
	for _, line := range strings.Split(text, "\n") {
		cmd, err := r.parse(line)
		if err != nil {
			return err
		}
		if cmd != nil {
			cmds = append(cmds, cmd)
		}
	}
	for _, cmd := range cmds {
		cmd()
	}
	return nil
}

// parse parses one command line into the action that applies it, or nil
// for a blank or comment line.
func (r *Registry) parse(line string) (func(), error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil, nil
	}
	name, rest, _ := strings.Cut(line, " ")
	switch name {
	case "clear":
		rest = strings.TrimSpace(rest)
		if rest == "" {
			return r.DisarmAll, nil
		}
		s := r.Lookup(rest)
		if s == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownSite, rest)
		}
		return s.Disarm, nil
	case "reset":
		return r.Reset, nil
	}
	s := r.Lookup(name)
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSite, name)
	}
	sp, err := ParseSpec(rest)
	if err != nil {
		return nil, err
	}
	return func() { s.Arm(sp) }, nil
}

// Seq is the deterministic ordinal-and-count core shared by fault plans: it
// numbers decision points and tallies injections per kind. The rfs transport
// plans (rfs.Faults) and the per-site counters above are both built on it,
// so wire-level and kernel-level injection share one bookkeeping shape.
type Seq struct {
	mu       sync.Mutex
	n        int
	injected map[int]int
}

// Next returns the current ordinal and advances it.
func (s *Seq) Next() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.n
	s.n++
	return n
}

// Note records one injection of kind.
func (s *Seq) Note(kind int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.injected == nil {
		s.injected = map[int]int{}
	}
	s.injected[kind]++
}

// Injected reports how many injections of kind have been noted.
func (s *Seq) Injected(kind int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected[kind]
}
