package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Kind is the exposition type of a registered metric.
type Kind int

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// entry is one registered metric: a name, a help line, and a collector
// closure evaluated at exposition time. Func-backed entries let always-on
// counters that live elsewhere (striped map counters, hazard-domain totals,
// structural walks) appear in the same exposition as telemetry-native types.
type entry struct {
	name string
	help string
	kind Kind
	val  func() float64
	hist func() HistSnapshot
}

// Registry is an ordered collection of metrics. A registry is typically
// owned by one structure instance (a Map) or by a package (Global); combine
// several into one exposition with NewView.
type Registry struct {
	mu      sync.Mutex
	entries []entry
	names   map[string]bool
	// labels is the registry's pre-rendered const label set (`shard="3"`),
	// attached to every series it exposes. Empty for unlabeled registries.
	labels string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// NewLabeledRegistry creates an empty registry whose every series carries the
// given constant label pairs (name1, value1, name2, value2, ...). Labels make
// same-named metrics from several registries distinct series instead of
// colliding duplicates, so N structure instances — the shards of a
// key-range-partitioned map, say — can export through one View. It panics on
// an odd pair count (programmer error, like a duplicate metric name).
func NewLabeledRegistry(pairs ...string) *Registry {
	if len(pairs)%2 != 0 {
		panic("telemetry: NewLabeledRegistry needs name/value pairs")
	}
	r := NewRegistry()
	var b strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	r.labels = b.String()
	return r
}

// Labels returns the registry's pre-rendered const label set ("" when
// unlabeled).
func (r *Registry) Labels() string { return r.labels }

// series renders a metric name with the registry's const labels and any
// extra per-series labels (a histogram bucket's le), in exposition form.
func (r *Registry) series(name string, extra ...string) string {
	if r.labels == "" && len(extra) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	b.WriteString(r.labels)
	for _, e := range extra {
		if b.Len() > len(name)+1 {
			b.WriteByte(',')
		}
		b.WriteString(e)
	}
	b.WriteByte('}')
	return b.String()
}

// Global is the process-wide registry. Packages whose metrics are not tied
// to a structure instance (seqlock, vectormap) register here at init.
var Global = NewRegistry()

func (r *Registry) add(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[e.name] {
		panic("telemetry: duplicate metric name " + e.name)
	}
	r.names[e.name] = true
	r.entries = append(r.entries, e)
}

// Counter creates, registers, and returns a sharded counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(entry{name: name, help: help, kind: KindCounter, val: func() float64 { return float64(c.Load()) }})
	return c
}

// Histogram creates, registers, and returns a power-of-two histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(entry{name: name, help: help, kind: KindHistogram, hist: h.Snapshot})
	return h
}

// CounterFunc registers a counter whose value is collected from fn at
// exposition time (for always-on totals owned elsewhere).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(entry{name: name, help: help, kind: KindCounter, val: func() float64 { return float64(fn()) }})
}

// GaugeFunc registers a gauge collected from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(entry{name: name, help: help, kind: KindGauge, val: fn})
}

// HistogramFunc registers a histogram whose snapshot is collected from fn at
// exposition time.
func (r *Registry) HistogramFunc(name, help string, fn func() HistSnapshot) {
	r.add(entry{name: name, help: help, kind: KindHistogram, hist: fn})
}

// snapshotEntries copies the entry list under the lock; collectors run
// outside it (a GaugeFunc may walk the owning structure).
func (r *Registry) snapshotEntries() []entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]entry(nil), r.entries...)
}

// WritePrometheus renders the registry in Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return NewView(r).WritePrometheus(w)
}

// String renders the registry as JSON; Registry implements expvar.Var, so
// expvar.Publish("skipvector", reg) exposes it on /debug/vars.
func (r *Registry) String() string {
	return NewView(r).String()
}

// View is a read-only composition of registries exposed as one metrics
// document (e.g. a map's own registry plus the process-global one).
type View struct {
	regs []*Registry
}

// NewView combines registries, in order, into one exposition.
func NewView(regs ...*Registry) *View { return &View{regs: regs} }

// WritePrometheus renders every metric of every registry in Prometheus text
// exposition format (HELP/TYPE comments, cumulative histogram buckets). When
// several registries expose the same metric family — N labeled shard
// registries, say — the HELP/TYPE header is emitted once per family and the
// per-registry series are distinguished by their const labels.
func (v *View) WritePrometheus(w io.Writer) error {
	headered := map[string]bool{}
	for _, r := range v.regs {
		for _, e := range r.snapshotEntries() {
			if !headered[e.name] {
				headered[e.name] = true
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, e.kind); err != nil {
					return err
				}
			}
			if e.kind == KindHistogram {
				s := e.hist()
				cum := int64(0)
				for i, c := range s.Buckets {
					cum += c
					le := "+Inf"
					if ub := UpperBound(i); ub >= 0 {
						le = fmt.Sprintf("%d", ub)
					}
					if _, err := fmt.Fprintf(w, "%s %d\n", r.series(e.name+"_bucket", fmt.Sprintf("le=%q", le)), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s %d\n%s %d\n", r.series(e.name+"_sum"), s.Sum, r.series(e.name+"_count"), s.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", r.series(e.name), formatFloat(e.val())); err != nil {
				return err
			}
		}
	}
	return nil
}

// String renders the view as one JSON object keyed by metric name, with
// histograms as {"count","sum","buckets"} sub-objects. The output is valid
// expvar.Var content.
func (v *View) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for _, r := range v.regs {
		for _, e := range r.snapshotEntries() {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, "%q:", r.series(e.name))
			if e.kind == KindHistogram {
				s := e.hist()
				fmt.Fprintf(&b, `{"count":%d,"sum":%d,"buckets":[`, s.Count, s.Sum)
				for i, c := range s.Buckets {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%d", c)
				}
				b.WriteString("]}")
				continue
			}
			b.WriteString(formatFloat(e.val()))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Names returns the sorted series names across the view (tests, discovery).
// Labeled registries contribute their names with the label set attached, so a
// view over N labeled shard registries reports N distinct series per family.
func (v *View) Names() []string {
	var out []string
	for _, r := range v.regs {
		for _, e := range r.snapshotEntries() {
			out = append(out, r.series(e.name))
		}
	}
	sort.Strings(out)
	return out
}

// formatFloat renders a metric value: integral values without an exponent or
// trailing zeros, everything else with full float formatting.
func formatFloat(f float64) string {
	if f == float64(int64(f)) {
		return fmt.Sprintf("%d", int64(f))
	}
	return fmt.Sprintf("%g", f)
}
