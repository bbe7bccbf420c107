package telemetry

import (
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4). The output order is fully
// deterministic regardless of registration order: families sort by
// name, and instruments within a family by their canonical rendered
// label set — so scrapes are diffable across runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if !r.Enabled() {
		return nil
	}
	var sb strings.Builder
	for _, f := range r.snapshotFamilies() {
		sb.WriteString("# HELP ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(f.help))
		sb.WriteByte('\n')
		sb.WriteString("# TYPE ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(f.typ)
		sb.WriteByte('\n')
		for i, inst := range f.insts {
			inst.render(&sb, f.name, f.keys[i])
		}
		if f.typ == "histogram" {
			renderQuantiles(&sb, f.name, f.keys, f.insts)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// familySnapshot is a sorted, lock-free view of one family taken for
// rendering: rendering itself reads only atomics, so it happens outside
// the registry lock.
type familySnapshot struct {
	name, help, typ string
	keys            []string
	insts           []renderable
}

// snapshotFamilies copies the family and instrument lists under the
// lock, sorted by family name and canonical label set.
func (r *Registry) snapshotFamilies() []familySnapshot {
	s := r.shared
	s.mu.Lock()
	out := make([]familySnapshot, 0, len(s.families))
	for _, f := range s.families {
		fs := familySnapshot{name: f.name, help: f.help, typ: f.typ}
		fs.keys = make([]string, 0, len(f.insts))
		for k := range f.insts {
			fs.keys = append(fs.keys, k)
		}
		sort.Strings(fs.keys)
		fs.insts = make([]renderable, len(fs.keys))
		for i, k := range fs.keys {
			fs.insts[i] = f.insts[k]
		}
		out = append(out, fs)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// quantileExports are the quantiles surfaced for every histogram.
var quantileExports = []struct {
	q     float64
	label string
}{{0.5, "0.5"}, {0.95, "0.95"}, {0.99, "0.99"}}

// renderQuantiles emits a companion <name>_quantile gauge family with
// p50/p95/p99 estimates for each histogram instrument, computed from
// the bucket snapshot at scrape time (see HistogramSnapshot.Quantile).
// Scrape-time estimation keeps Observe untouched — the hot path stays
// a bucket scan plus two atomics (gated by TestHistogramObserveAllocFree).
// Instruments with no observations are skipped — Quantile of an empty
// snapshot is NaN, which must not leak into the exposition (Prometheus
// parses it, but every consumer downstream of the scrape then chokes
// on a meaningless series) — and the family header is emitted only
// when at least one instrument has samples.
func renderQuantiles(sb *strings.Builder, name string, keys []string, insts []renderable) {
	qname := name + "_quantile"
	var body strings.Builder
	for i, inst := range insts {
		h, ok := inst.(*histogram)
		if !ok {
			continue
		}
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		for _, qe := range quantileExports {
			writeSample(&body, qname, withQuantile(keys[i], qe.label), formatFloat(s.Quantile(qe.q)))
		}
	}
	if body.Len() == 0 {
		return
	}
	sb.WriteString("# HELP ")
	sb.WriteString(qname)
	sb.WriteString(" estimated quantiles of ")
	sb.WriteString(name)
	sb.WriteString(" (linear interpolation within buckets)\n# TYPE ")
	sb.WriteString(qname)
	sb.WriteString(" gauge\n")
	sb.WriteString(body.String())
}

// withQuantile appends the quantile label to an already-rendered label
// string.
func withQuantile(labels, q string) string {
	if labels == "" {
		return `{quantile="` + q + `"}`
	}
	return labels[:len(labels)-1] + `,quantile="` + q + `"}`
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// writeSample emits one exposition line: name{labels} value.
func writeSample(sb *strings.Builder, name, labels, value string) {
	sb.WriteString(name)
	sb.WriteString(labels)
	sb.WriteByte(' ')
	sb.WriteString(value)
	sb.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
