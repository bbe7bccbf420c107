// Package telemetry is the observability substrate for the whole
// system: a dependency-free (standard library only) metrics registry,
// a per-epoch trace recorder, and a live diagnostics HTTP server.
//
// The design constraints come from the control loop it watches: one
// epoch is 50 µs and the simulated step costs a few hundred
// nanoseconds, so the instrumentation hot path must be a handful of
// uncontended atomic operations at most. Nothing binds process-wide:
// each instrumented instance (a processor, a controller, a supervised
// loop, a runner plan) is handed its registry, and is in one of two
// tiers:
//
//   - unbound: handed nothing or nil, it skips telemetry entirely (a
//     single nil check per step);
//   - live (NewRegistry(), or a Scope of one): lock-free atomic
//     counters, gauges, and fixed-bucket histograms, exposed in
//     Prometheus text format.
//
// Registration (creating instruments) takes a mutex and may allocate;
// the observation paths (Inc, Add, Set, Observe) never lock, never
// allocate, and are safe for concurrent use, including under the race
// detector while an HTTP scrape renders the registry.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter interface {
	Inc()
	Add(delta uint64)
	Value() uint64
}

// FloatCounter is a monotonically increasing float metric, for
// accumulated physical quantities (joules, instructions, seconds).
type FloatCounter interface {
	Add(delta float64)
	Value() float64
}

// Gauge is a metric that can go up and down (last observed value).
type Gauge interface {
	Set(v float64)
	Add(delta float64)
	Value() float64
}

// Histogram accumulates observations into fixed buckets.
type Histogram interface {
	Observe(v float64)
	Snapshot() HistogramSnapshot
}

// HistogramSnapshot is a point-in-time view of a histogram. Counts are
// per-bucket (not cumulative); Buckets holds the inclusive upper
// bounds, with the implicit +Inf bucket as the final count.
type HistogramSnapshot struct {
	Buckets []float64
	Counts  []uint64 // len(Buckets)+1
	Sum     float64
	Count   uint64
}

// Quantile estimates the q-quantile (0 < q < 1) of the observed
// distribution by linear interpolation inside the bucket holding the
// rank, following the Prometheus histogram_quantile convention: the
// first bucket's lower edge is 0 when its bound is positive (its own
// bound otherwise), and ranks landing in the +Inf bucket return the
// highest finite bound. An empty snapshot yields NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Buckets) {
			break // +Inf bucket
		}
		hi := s.Buckets[i]
		lo := 0.0
		if i > 0 {
			lo = s.Buckets[i-1]
		} else if hi <= 0 {
			lo = hi
		}
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	return s.Buckets[len(s.Buckets)-1]
}

// Label is one constant name="value" pair attached to an instrument.
type Label struct{ Name, Value string }

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry holds instrument families and renders them for scraping.
// A nil *Registry is valid: every constructor returns a no-op
// instrument and WritePrometheus writes nothing, so instrumented code
// never needs nil checks.
//
// A Registry value is a handle: Scope derives child handles that share
// the same instrument store but attach a fixed label set to everything
// registered through them. All handles render the same exposition.
type Registry struct {
	// scope is this handle's copy-on-attach label set, prepended to
	// every instrument registered through it; scopeKey is its rendered
	// canonical form ("" for the root handle).
	scope    []Label
	scopeKey string

	shared *regShared
}

// regShared is the instrument store behind every handle of one registry.
type regShared struct {
	mu       sync.Mutex
	families map[string]*family

	// Scope bookkeeping for bounded per-loop cardinality: scopes tracks
	// every label set attached via Scope with an LRU sequence number and
	// the instrument keys it registered, so the least recently attached
	// scope's series can be evicted when scopeLimit is exceeded.
	scopeLimit int
	scopeSeq   uint64
	scopes     map[string]*scopeEntry
}

type scopeEntry struct {
	seq  uint64
	keys []instKey
}

// instKey identifies one instrument inside one family.
type instKey struct{ family, key string }

type family struct {
	name, help, typ string
	insts           map[string]renderable // by canonical rendered label set
}

// renderable is an instrument (or func gauge) that can render its
// exposition lines.
type renderable interface {
	render(sb *strings.Builder, name, labels string)
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{shared: &regShared{
		families: make(map[string]*family),
		scopes:   make(map[string]*scopeEntry),
	}}
}

// Scope returns a child handle that registers every instrument with the
// given labels prepended (after any labels this handle already carries —
// scopes nest). The label set is copied on attach; the child shares the
// parent's instrument store, so one WritePrometheus serves every scope.
// Attaching a scope refreshes its LRU recency (see SetScopeLimit).
// Scoping a nil registry returns it unchanged.
func (r *Registry) Scope(labels ...Label) *Registry {
	if !r.Enabled() || len(labels) == 0 {
		return r
	}
	for _, l := range labels {
		checkName(l.Name)
	}
	sc := make([]Label, 0, len(r.scope)+len(labels))
	sc = append(append(sc, r.scope...), labels...)
	child := &Registry{scope: sc, scopeKey: renderLabels(sc), shared: r.shared}
	s := r.shared
	s.mu.Lock()
	s.touchScopeLocked(child.scopeKey)
	s.evictScopesLocked()
	s.mu.Unlock()
	return child
}

// SetScopeLimit bounds the number of live scopes: when more than n
// distinct scope label sets hold instruments, the least recently
// attached scope's series are evicted from the exposition (the handle
// itself keeps working — its instruments are simply re-created on next
// registration, restarting their series). n <= 0 removes the bound.
func (r *Registry) SetScopeLimit(n int) {
	if !r.Enabled() {
		return
	}
	s := r.shared
	s.mu.Lock()
	s.scopeLimit = n
	s.evictScopesLocked()
	s.mu.Unlock()
}

// touchScopeLocked creates or refreshes the LRU entry for a scope key.
func (s *regShared) touchScopeLocked(key string) *scopeEntry {
	e := s.scopes[key]
	if e == nil {
		e = &scopeEntry{}
		s.scopes[key] = e
	}
	s.scopeSeq++
	e.seq = s.scopeSeq
	return e
}

// evictScopesLocked drops least-recently-attached scopes until the
// count fits the limit, removing their instruments from the store.
func (s *regShared) evictScopesLocked() {
	for s.scopeLimit > 0 && len(s.scopes) > s.scopeLimit {
		var victimKey string
		var victim *scopeEntry
		for k, e := range s.scopes {
			if victim == nil || e.seq < victim.seq {
				victimKey, victim = k, e
			}
		}
		for _, ik := range victim.keys {
			if f := s.families[ik.family]; f != nil {
				delete(f.insts, ik.key)
				if len(f.insts) == 0 {
					delete(s.families, ik.family)
				}
			}
		}
		delete(s.scopes, victimKey)
	}
}

// Enabled reports whether the registry actually collects.
func (r *Registry) Enabled() bool { return r != nil }

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	if !r.Enabled() {
		return nopCounter{}
	}
	c := &counter{}
	return r.register(name, help, "counter", labels, c).(Counter)
}

// FloatCounter registers (or fetches) a float counter.
func (r *Registry) FloatCounter(name, help string, labels ...Label) FloatCounter {
	if !r.Enabled() {
		return nopFloat{}
	}
	c := &floatCounter{}
	return r.register(name, help, "counter", labels, c).(FloatCounter)
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	if !r.Enabled() {
		return nopFloat{}
	}
	g := &gauge{}
	return r.register(name, help, "gauge", labels, g).(Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time by
// fn, for state its owner already keeps: the owner's hot path then
// writes no instrument. fn must be safe to call from the scrape
// goroutine. It may read atomics, or take the lock under which the
// owner updates that state: rendering runs outside the registry lock.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if !r.Enabled() {
		return
	}
	r.register(name, help, "gauge", labels, funcGauge(fn))
}

// CounterFunc registers a counter whose cumulative value is read at
// scrape time by fn — for counts maintained elsewhere (the obs bus's
// atomic drop count, a fleet loop's epoch count) without a write-through
// instrument. The value renders as an integer, exactly as a Counter at
// the same count does. fn must be monotonic and, as for GaugeFunc, safe
// to call from the scrape goroutine; it may lock the state's owner.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	if !r.Enabled() {
		return
	}
	r.register(name, help, "counter", labels, funcCounter(fn))
}

// Histogram registers (or fetches) a histogram with the given inclusive
// bucket upper bounds (ascending; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) Histogram {
	if !r.Enabled() {
		return nopFloat{}
	}
	if len(buckets) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(buckets) {
		panic("telemetry: histogram buckets must be ascending")
	}
	b := append([]float64(nil), buckets...)
	h := &histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	return r.register(name, help, "histogram", labels, h).(Histogram)
}

// register adds inst under (name, scope+labels), returning the existing
// instrument when one is already registered with the same identity.
// Registering the same name with a different metric type is a
// programming error and panics.
func (r *Registry) register(name, help, typ string, labels []Label, inst renderable) renderable {
	checkName(name)
	for _, l := range labels {
		checkName(l.Name)
	}
	full := labels
	if len(r.scope) > 0 {
		full = make([]Label, 0, len(r.scope)+len(labels))
		full = append(append(full, r.scope...), labels...)
	}
	key := renderLabels(full)
	s := r.shared
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, insts: make(map[string]renderable)}
		s.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	if have, ok := f.insts[key]; ok {
		return have
	}
	f.insts[key] = inst
	if r.scopeKey != "" {
		e := s.touchScopeLocked(r.scopeKey)
		e.keys = append(e.keys, instKey{family: name, key: key})
		s.evictScopesLocked()
	}
	return inst
}

// checkName enforces the Prometheus metric/label name charset.
func checkName(name string) {
	if name == "" {
		panic("telemetry: empty metric or label name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", name))
		}
	}
}

// renderLabels builds the canonical {k="v",...} string ("" when empty).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	// Byte-wise, not rune-wise: the escapes are all ASCII, and a label
	// value that is not valid UTF-8 must pass through unmangled rather
	// than have its bytes rewritten to replacement characters.
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

// ---- concrete instruments ----

type counter struct{ v atomic.Uint64 }

func (c *counter) Inc()             { c.v.Add(1) }
func (c *counter) Add(delta uint64) { c.v.Add(delta) }
func (c *counter) Value() uint64    { return c.v.Load() }
func (c *counter) render(sb *strings.Builder, name, labels string) {
	writeSample(sb, name, labels, formatUint(c.Value()))
}

type floatCounter struct{ bits atomic.Uint64 }

func (c *floatCounter) Add(delta float64) { atomicAddFloat(&c.bits, delta) }
func (c *floatCounter) Value() float64    { return math.Float64frombits(c.bits.Load()) }
func (c *floatCounter) render(sb *strings.Builder, name, labels string) {
	writeSample(sb, name, labels, formatFloat(c.Value()))
}

type gauge struct{ bits atomic.Uint64 }

// Set skips the store when the gauge already holds v's bits: per-epoch
// callers mostly rewrite an unchanged value, and a plain load is far
// cheaper than the locked store.
func (g *gauge) Set(v float64) {
	if b := math.Float64bits(v); g.bits.Load() != b {
		g.bits.Store(b)
	}
}
func (g *gauge) Add(delta float64) { atomicAddFloat(&g.bits, delta) }
func (g *gauge) Value() float64    { return math.Float64frombits(g.bits.Load()) }
func (g *gauge) render(sb *strings.Builder, name, labels string) {
	writeSample(sb, name, labels, formatFloat(g.Value()))
}

type funcGauge func() float64

func (f funcGauge) render(sb *strings.Builder, name, labels string) {
	writeSample(sb, name, labels, formatFloat(f()))
}

type funcCounter func() uint64

func (f funcCounter) render(sb *strings.Builder, name, labels string) {
	writeSample(sb, name, labels, formatUint(f()))
}

// atomicAddFloat adds delta to a float64 stored as bits, lock-free.
func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

type histogram struct {
	bounds []float64
	counts []atomic.Uint64 // per-bucket, +Inf last
	sum    atomic.Uint64   // float64 bits
}

// Observe is lock-free: a linear scan over the (small, fixed) bound
// slice, one atomic add, and one atomic float accumulate.
func (h *histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	atomicAddFloat(&h.sum, v)
}

func (h *histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: append([]float64(nil), h.bounds...),
		Counts:  make([]uint64, len(h.counts)),
		Sum:     math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

func (h *histogram) render(sb *strings.Builder, name, labels string) {
	s := h.Snapshot()
	cum := uint64(0)
	for i, b := range s.Buckets {
		cum += s.Counts[i]
		writeSample(sb, name+"_bucket", withLE(labels, formatFloat(b)), formatUint(cum))
	}
	cum += s.Counts[len(s.Counts)-1]
	writeSample(sb, name+"_bucket", withLE(labels, "+Inf"), formatUint(cum))
	writeSample(sb, name+"_sum", labels, formatFloat(s.Sum))
	writeSample(sb, name+"_count", labels, formatUint(s.Count))
}

// withLE appends the le label to an already-rendered label string.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// nopCounter and nopFloat are the disabled instruments: empty methods
// the compiler can devirtualize into nothing at the call sites.
type nopCounter struct{}

func (nopCounter) Inc()          {}
func (nopCounter) Add(uint64)    {}
func (nopCounter) Value() uint64 { return 0 }

type nopFloat struct{}

func (nopFloat) Set(float64)                 {}
func (nopFloat) Add(float64)                 {}
func (nopFloat) Value() float64              { return 0 }
func (nopFloat) Observe(float64)             {}
func (nopFloat) Snapshot() HistogramSnapshot { return HistogramSnapshot{} }

// ---- bucket helpers ----

// ExponentialBuckets returns count bounds: start, start*factor, ...
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
