package telemetry

import (
	"io"
	"math"
	"sort"
	"strings"
)

// WritePrometheusRollup renders the fleet rollup view: every instrument
// is re-keyed with the named labels stripped, and series that collapse
// onto the same residual label set are aggregated —
//
//   - counters sum: integer ones exactly, printed as integers, float
//     ones as floats,
//   - gauges emit three samples per group, labeled agg="avg", agg="max",
//     and agg="sum",
//   - histograms merge bucket-wise (instruments whose bucket bounds
//     differ from the group's first member are skipped).
//
// With per-loop scopes attached via Scope(L("loop", id)), a rollup over
// drop="loop" turns thousands of per-loop series into one fleet series
// per family while /metrics keeps serving the full-cardinality view.
// Output order is deterministic (sorted families, sorted groups).
func (r *Registry) WritePrometheusRollup(w io.Writer, drop ...string) error {
	if !r.Enabled() {
		return nil
	}
	dropped := make(map[string]bool, len(drop))
	for _, d := range drop {
		dropped[d] = true
	}
	var sb strings.Builder
	for _, f := range r.snapshotFamilies() {
		groups, order := groupEntries(f.entries, dropped)
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
		for _, gkey := range order {
			renderGroup(&sb, f.name, f.typ, gkey, groups[gkey])
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// groupEntries buckets a family's instruments by their residual label
// set after stripping the dropped names. order is sorted.
func groupEntries(entries []*entry, dropped map[string]bool) (map[string][]*entry, []string) {
	groups := make(map[string][]*entry)
	var order []string
	for _, e := range entries {
		kept := e.labels[:0:0]
		for _, l := range e.labels {
			if !dropped[l.Name] {
				kept = append(kept, l)
			}
		}
		gkey := renderLabels(kept)
		if _, ok := groups[gkey]; !ok {
			order = append(order, gkey)
		}
		groups[gkey] = append(groups[gkey], e)
	}
	sort.Strings(order)
	return groups, order
}

// renderGroup emits the aggregate sample(s) for one residual label set.
func renderGroup(sb *strings.Builder, name, typ, labels string, group []*entry) {
	switch typ {
	case "counter":
		if sum, ok := intSum(group); ok {
			writeSample(sb, name, labels, formatUint(sum))
			return
		}
		sum := 0.0
		for _, e := range group {
			sum += scalarValue(e.inst)
		}
		writeSample(sb, name, labels, formatFloat(sum))
	case "gauge":
		sum, max := 0.0, math.Inf(-1)
		n := 0
		for _, e := range group {
			v := scalarValue(e.inst)
			if math.IsNaN(v) {
				continue
			}
			sum += v
			if v > max {
				max = v
			}
			n++
		}
		avg := math.NaN()
		if n > 0 {
			avg = sum / float64(n)
		} else {
			sum, max = math.NaN(), math.NaN()
		}
		writeSample(sb, name, withLabel(labels, "agg", "avg"), formatFloat(avg))
		writeSample(sb, name, withLabel(labels, "agg", "max"), formatFloat(max))
		writeSample(sb, name, withLabel(labels, "agg", "sum"), formatFloat(sum))
	case "histogram":
		var merged HistogramSnapshot
		have := false
		for _, e := range group {
			h, ok := e.inst.(*histogram)
			if !ok {
				continue
			}
			s := h.Snapshot()
			if !have {
				merged = s
				have = true
				continue
			}
			if !sameBounds(merged.Buckets, s.Buckets) {
				continue
			}
			for i := range s.Counts {
				merged.Counts[i] += s.Counts[i]
			}
			merged.Sum += s.Sum
			merged.Count += s.Count
		}
		if !have {
			return
		}
		cum := uint64(0)
		for i, b := range merged.Buckets {
			cum += merged.Counts[i]
			writeSample(sb, name+"_bucket", withLE(labels, formatFloat(b)), formatUint(cum))
		}
		cum += merged.Counts[len(merged.Counts)-1]
		writeSample(sb, name+"_bucket", withLE(labels, "+Inf"), formatUint(cum))
		writeSample(sb, name+"_sum", labels, formatFloat(merged.Sum))
		writeSample(sb, name+"_count", labels, formatUint(merged.Count))
	}
}

// intSum sums a group of integer counters; ok is false when a member
// counts floats.
func intSum(group []*entry) (sum uint64, ok bool) {
	for _, e := range group {
		switch v := e.inst.(type) {
		case *counter:
			sum += v.Value()
		case funcCounter:
			sum += v()
		default:
			return 0, false
		}
	}
	return sum, true
}

// scalarValue extracts the current value of a scalar instrument.
func scalarValue(inst renderable) float64 {
	switch v := inst.(type) {
	case *counter:
		return float64(v.Value())
	case *floatCounter:
		return v.Value()
	case *gauge:
		return v.Value()
	case funcGauge:
		return v()
	case funcCounter:
		return float64(v())
	}
	return math.NaN()
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// withLabel appends one label to an already-rendered label string.
func withLabel(labels, name, value string) string {
	if labels == "" {
		return "{" + name + `="` + escapeLabelValue(value) + `"}`
	}
	return labels[:len(labels)-1] + "," + name + `="` + escapeLabelValue(value) + `"}`
}
