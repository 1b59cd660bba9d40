package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements the Prometheus text exposition format
// (version 0.0.4): `# HELP` / `# TYPE` headers followed by
// `name{label="value"} value` samples, histograms expanded into
// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.

// sample is one fully evaluated sample: handle values read (and gauge
// callbacks called) once, right after the registry snapshot, so the
// cross-registry merge below works on plain data and can sum
// collisions instead of juggling live handles.
type sample struct {
	labels []Label
	count  int64   // counter value
	gauge  float64 // gauge value
	hist   HistData
}

// sampleFamily is all samples sharing one name across the merged
// registries.
type sampleFamily struct {
	name, help string
	kind       Kind
	order      []string
	samples    map[string]*sample
}

// gather evaluates the given registries once and merges them, returning
// the families sorted by name. Families with the same name across
// registries are merged (first registration's help text and kind win);
// within a family, samples keep registration order, and samples with an
// identical label set across registries are summed — counters and
// histograms add, so a name+label collision between the server,
// warehouse and default registries underreports nothing. Both renderers
// (WriteText and Snapshot) read this one result.
func gather(regs ...*Registry) []*sampleFamily {
	merged := make(map[string]*sampleFamily)
	var names []string
	for _, r := range regs {
		for _, f := range r.snapshotFamilies() {
			mf, ok := merged[f.name]
			if !ok {
				mf = &sampleFamily{name: f.name, help: f.help, kind: f.kind,
					samples: make(map[string]*sample)}
				merged[f.name] = mf
				names = append(names, f.name)
			}
			for _, key := range f.order {
				sv := evaluate(mf.kind, f.metrics[key])
				if sv == nil {
					continue // kind mismatch across registries; slot panics within one
				}
				if prev, dup := mf.samples[key]; dup {
					prev.merge(sv)
				} else {
					mf.samples[key] = sv
					mf.order = append(mf.order, key)
				}
			}
		}
	}
	sort.Strings(names)
	out := make([]*sampleFamily, len(names))
	for i, name := range names {
		out[i] = merged[name]
	}
	return out
}

// WriteText writes all metrics of the given registries in Prometheus
// text exposition format (see gather for the merge rules).
func WriteText(w io.Writer, regs ...*Registry) error {
	for _, f := range gather(regs...) {
		if err := writeFamily(w, f); err != nil {
			return err
		}
	}
	return nil
}

// Values is the JSON rendering of merged registries, the body of GET
// /stats beside its storage section. Both maps are keyed by the
// exposition's own series identity — family name plus label set, as
// in `px_http_requests_total{route="PUT /docs/{name}"}` — so a series
// has one name in /stats, /metrics and anything that parses either.
type Values struct {
	// Metrics holds every counter and gauge sample.
	Metrics map[string]float64 `json:"metrics"`
	// Histograms holds every histogram sample, summarized; its count
	// is the exposition's _count series.
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot renders the given registries as Values (see gather for the
// merge rules).
func Snapshot(regs ...*Registry) Values {
	v := Values{Metrics: make(map[string]float64), Histograms: make(map[string]HistogramSnapshot)}
	for _, f := range gather(regs...) {
		for _, key := range f.order {
			s := f.samples[key]
			series := f.name + formatLabels(s.labels, "", "")
			switch f.kind {
			case KindHistogram:
				v.Histograms[series] = s.hist.Snapshot()
			case KindGauge:
				v.Metrics[series] = s.gauge
			default:
				v.Metrics[series] = float64(s.count)
			}
		}
	}
	return v
}

// WithPrefix returns the counter and gauge series whose keys start
// with prefix, for reports that carry one subsystem's numbers (the
// px_engine_* counters of a benchmark run, a warehouse's px_view*
// series).
func (v Values) WithPrefix(prefix string) map[string]float64 {
	out := make(map[string]float64)
	for k, x := range v.Metrics {
		if strings.HasPrefix(k, prefix) {
			out[k] = x
		}
	}
	return out
}

// evaluate reads a metric's current value into a sample. Returns nil
// when the slot has no handle of the requested kind (a family-name
// collision across registries with different kinds).
func evaluate(kind Kind, m *metric) *sample {
	s := &sample{labels: m.labels}
	switch kind {
	case KindHistogram:
		switch {
		case m.hf != nil:
			s.hist = m.hf()
		case m.h != nil:
			s.hist = m.h.data()
		default:
			return nil
		}
	case KindGauge:
		switch {
		case m.gf != nil:
			s.gauge = m.gf()
		case m.g != nil:
			s.gauge = float64(m.g.Value())
		default:
			return nil
		}
	default:
		if m.c == nil {
			return nil
		}
		s.count = m.c.Value()
	}
	return s
}

// merge sums another sample of the same family and label set into s —
// the cross-registry collision case. Counters and gauges add;
// histograms add bucket-wise when the ladders match (they always do
// today: every obs histogram uses DefaultBuckets) and keep the first
// sample's data otherwise.
func (s *sample) merge(o *sample) {
	s.count += o.count
	s.gauge += o.gauge
	a, b := &s.hist, o.hist
	if len(a.Cum) == len(b.Cum) && len(a.Bounds) == len(b.Bounds) {
		cum := make([]int64, len(a.Cum))
		for i := range cum {
			cum[i] = a.Cum[i] + b.Cum[i]
		}
		a.Cum = cum
		a.Sum += b.Sum
		a.Total += b.Total
		a.Max = max(a.Max, b.Max)
	}
}

func writeFamily(w io.Writer, f *sampleFamily) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for _, key := range f.order {
		s := f.samples[key]
		var err error
		switch f.kind {
		case KindHistogram:
			err = writeHistogram(w, f.name, s)
		case KindGauge:
			_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, formatLabels(s.labels, "", ""), formatFloat(s.gauge))
		default:
			_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, formatLabels(s.labels, "", ""), s.count)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, s *sample) error {
	d := s.hist
	for i, bound := range d.Bounds {
		le := formatFloat(bound)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, formatLabels(s.labels, "le", le), d.Cum[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		name, formatLabels(s.labels, "le", "+Inf"), d.Total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
		name, formatLabels(s.labels, "", ""), formatFloat(d.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n",
		name, formatLabels(s.labels, "", ""), d.Total)
	return err
}

// formatLabels renders {a="x",b="y"}, appending the extra label (le
// for histogram buckets) when its name is non-empty. Returns "" when
// there are no labels at all.
func formatLabels(labels []Label, extraName, extraValue string) string {
	if len(labels) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeValue(l.Value))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeValue(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeValue escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a help string: backslash and newline only.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
