package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
)

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one sample line per child,
// histograms as cumulative _bucket/_sum/_count series. Families appear
// in registration order and children in first-use order, so output is
// deterministic. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.writeProm(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeProm(w io.Writer) error {
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	if len(f.labels) == 0 {
		return writeMetricProm(w, f.name, "", f.plain)
	}
	f.mu.Lock()
	type kv struct {
		key string
		m   any
	}
	kids := make([]kv, 0, len(f.order))
	for _, key := range f.order {
		kids = append(kids, kv{key, f.children[key]})
	}
	values := f.values
	f.mu.Unlock()
	for _, kid := range kids {
		if err := writeMetricProm(w, f.name, labelString(f.labels, values[kid.key], ""), kid.m); err != nil {
			return err
		}
	}
	return nil
}

// labelString renders {a="x",b="y"} with an optional extra pair
// appended (used for histogram le labels). Empty input returns "".
func labelString(names, values []string, extra string) string {
	if len(names) == 0 && extra == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, escapeLabel(values[i]))
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}

func writeMetricProm(w io.Writer, name, labels string, m any) error {
	switch m := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m.Value()))
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m.Value()))
		return err
	case *StripedCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m.Value()))
		return err
	case *StripedGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(m.Value()))
		return err
	case *Histogram:
		cum := uint64(0)
		// labels here is already rendered "{...}" or ""; rebuild with le.
		base := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
		pair := func(le string) string {
			if base == "" {
				return fmt.Sprintf(`{le=%q}`, le)
			}
			return fmt.Sprintf(`{%s,le=%q}`, base, le)
		}
		for i, ub := range m.upper {
			cum += m.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, pair(formatFloat(ub)), cum); err != nil {
				return err
			}
		}
		cum += m.counts[len(m.upper)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, pair("+Inf"), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, m.Count())
		return err
	case *LogHistogram:
		// Log-bucketed histograms have ~500 fixed buckets; only the
		// occupied ones are emitted (cumulatively, so the series is
		// still a valid Prometheus histogram) to keep scrapes small.
		base := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
		pair := func(le string) string {
			if base == "" {
				return fmt.Sprintf(`{le=%q}`, le)
			}
			return fmt.Sprintf(`{%s,le=%q}`, base, le)
		}
		cum := uint64(0)
		var werr error
		m.forEachBucket(func(upper float64, count uint64) {
			cum += count
			if werr != nil || math.IsInf(upper, 1) {
				return // the +Inf series is closed once, below
			}
			_, werr = fmt.Fprintf(w, "%s_bucket%s %d\n", name, pair(formatFloat(upper)), cum)
		})
		if werr != nil {
			return werr
		}
		// Close with the mandatory +Inf bucket. A racing Observe bumps
		// the bucket word before the count word, so take the larger of
		// the two views to keep the series cumulative.
		total := m.Count()
		if cum > total {
			total = cum
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, pair("+Inf"), total); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, total)
		return err
	default:
		return fmt.Errorf("obs: unknown metric type %T", m)
	}
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// Snapshot returns every family's current values as a JSON-marshalable
// tree — the payload of the /debug/vars endpoint. Unlabeled metrics map
// name → value; labeled families map name → {"a=x,b=y": value};
// histograms report count, sum and cumulative bucket counts.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if len(f.labels) == 0 {
			out[f.name] = metricValue(f.plain)
			continue
		}
		f.mu.Lock()
		kids := map[string]any{}
		for key, m := range f.children {
			parts := f.values[key]
			pairs := make([]string, len(parts))
			for i, v := range parts {
				pairs[i] = f.labels[i] + "=" + v
			}
			kids[strings.Join(pairs, ",")] = metricValue(m)
		}
		f.mu.Unlock()
		out[f.name] = kids
	}
	return out
}

func metricValue(m any) any {
	switch m := m.(type) {
	case *Counter:
		return m.Value()
	case *Gauge:
		return m.Value()
	case *StripedCounter:
		return m.Value()
	case *StripedGauge:
		return m.Value()
	case *Histogram:
		buckets := map[string]uint64{}
		cum := uint64(0)
		for i, ub := range m.upper {
			cum += m.counts[i].Load()
			buckets[formatFloat(ub)] = cum
		}
		buckets["+Inf"] = m.Count()
		return map[string]any{"count": m.Count(), "sum": m.Sum(), "buckets": buckets}
	case *LogHistogram:
		// The JSON view reports the estimated quantiles directly — the
		// payload a CLI summary wants — instead of ~500 bucket lines.
		return map[string]any{
			"count": m.Count(),
			"sum":   m.Sum(),
			"p50":   m.Quantile(0.50),
			"p90":   m.Quantile(0.90),
			"p95":   m.Quantile(0.95),
			"p99":   m.Quantile(0.99),
		}
	default:
		return nil
	}
}

// WriteJSON writes the Snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
