package obs

// Prometheus text exposition (format 0.0.4) and the minimal scanner that
// reads it back. Histograms expose both views: three summary quantile lines
// (because every consumer in this repo buckets with the same Histogram,
// quantiles computed on either side of the wire agree by construction) and
// native cumulative _bucket series on a coarsened grid (8 bounds per decade
// instead of the internal 32), so an external Prometheus can aggregate
// histogram_quantile across instances.
//
// All durations are exposed in seconds, per Prometheus convention.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// summaryQuantiles are the quantile lines every histogram exposes.
var summaryQuantiles = [...]struct {
	label string
	q     float64
}{
	{"0.5", 0.50},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

// WritePrometheus writes the registry in Prometheus text format. Families
// and children appear in registration order, so output for a fixed wiring
// is byte-stable (modulo the metric values themselves).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var sb strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		children := make([]*child, 0, len(f.order))
		for _, key := range f.order {
			children = append(children, f.children[key])
		}
		f.mu.Unlock()
		sb.Reset()
		sb.WriteString("# HELP ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(escapeHelp(f.help))
		sb.WriteString("\n# TYPE ")
		sb.WriteString(f.name)
		sb.WriteByte(' ')
		sb.WriteString(f.kind.String())
		sb.WriteByte('\n')
		for _, ch := range children {
			switch {
			case ch.c != nil:
				writeSample(&sb, f.name, "", f.labels, ch.values, nil, float64(ch.c.Value()))
			case ch.cf != nil:
				writeSample(&sb, f.name, "", f.labels, ch.values, nil, float64(ch.cf()))
			case ch.g != nil:
				writeSample(&sb, f.name, "", f.labels, ch.values, nil, ch.g.Value())
			case ch.gf != nil:
				writeSample(&sb, f.name, "", f.labels, ch.values, nil, ch.gf())
			case ch.h != nil:
				for _, sq := range summaryQuantiles {
					writeSample(&sb, f.name, "", f.labels, ch.values,
						[]string{"quantile", sq.label}, ch.h.Quantile(sq.q).Seconds())
				}
				// Native cumulative buckets on the coarsened grid, so an
				// external Prometheus can histogram_quantile across
				// instances — something the pre-computed summary quantiles
				// above can't do.
				uppers, counts := ch.h.CumulativeBuckets()
				for i, up := range uppers {
					le := "+Inf"
					if !math.IsInf(up, 1) {
						le = formatFloat(up)
					}
					writeSample(&sb, f.name, "_bucket", f.labels, ch.values,
						[]string{"le", le}, float64(counts[i]))
				}
				writeSample(&sb, f.name, "_sum", f.labels, ch.values, nil, ch.h.Sum().Seconds())
				writeSample(&sb, f.name, "_count", f.labels, ch.values, nil, float64(ch.h.Count()))
			}
		}
		if _, err := bw.WriteString(sb.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeSample(sb *strings.Builder, name, suffix string, labelNames, labelValues, extra []string, v float64) {
	sb.WriteString(name)
	sb.WriteString(suffix)
	formatLabels(sb, labelNames, labelValues, extra...)
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
}

// Sample is one parsed exposition line: a metric name (including any _sum/
// _count suffix), its label set, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Samples is a parsed scrape with label-subset lookup helpers.
type Samples []Sample

// ParsePrometheus reads text exposition produced by WritePrometheus (or any
// conforming subset of the format): comment and blank lines are skipped,
// every other line must be `name[{labels}] value`. It is the scanner behind
// the round-trip tests — deliberately minimal, not a general Prometheus
// client.
func ParsePrometheus(r io.Reader) (Samples, error) {
	var out Samples
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", lineNo, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		if rest[i] == '{' {
			rest = rest[i+1:]
			end, err := parseLabels(rest, s.Labels)
			if err != nil {
				return s, err
			}
			rest = strings.TrimSpace(rest[end:])
		} else {
			rest = strings.TrimSpace(rest[i+1:])
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes `name="value",...}` starting just past the opening
// brace, filling into; it returns the offset just past the closing brace.
func parseLabels(in string, into map[string]string) (int, error) {
	i := 0
	for {
		for i < len(in) && (in[i] == ',' || in[i] == ' ') {
			i++
		}
		if i < len(in) && in[i] == '}' {
			return i + 1, nil
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return 0, fmt.Errorf("unterminated label set")
		}
		name := in[i : i+eq]
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return 0, fmt.Errorf("label %s: missing opening quote", name)
		}
		i++
		var val strings.Builder
		for i < len(in) && in[i] != '"' {
			if in[i] == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(in[i])
				}
			} else {
				val.WriteByte(in[i])
			}
			i++
		}
		if i >= len(in) {
			return 0, fmt.Errorf("label %s: missing closing quote", name)
		}
		i++ // past closing quote
		into[name] = val.String()
	}
}

// Value returns the first sample named name whose labels contain every given
// name,value pair (kv is alternating names and values). The second return is
// false when no sample matches.
func (s Samples) Value(name string, kv ...string) (float64, bool) {
outer:
	for _, smp := range s {
		if smp.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if smp.Labels[kv[i]] != kv[i+1] {
				continue outer
			}
		}
		return smp.Value, true
	}
	return 0, false
}

// SumValues sums every sample named name whose labels contain the given
// pairs — e.g. all status codes of one endpoint.
func (s Samples) SumValues(name string, kv ...string) (sum float64, n int) {
outer:
	for _, smp := range s {
		if smp.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if smp.Labels[kv[i]] != kv[i+1] {
				continue outer
			}
		}
		sum += smp.Value
		n++
	}
	return sum, n
}
