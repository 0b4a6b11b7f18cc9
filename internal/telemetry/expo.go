package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Exposition renders the registry in the Prometheus text format
// (version 0.0.4), hand-rolled so the daemon stays dependency-free.
func (r *Registry) Exposition() []byte {
	var buf bytes.Buffer
	WriteExposition(&buf, r.Snapshot())
	return buf.Bytes()
}

// WriteExposition renders a snapshot as Prometheus text exposition.
// Families come out sorted by name (the order Snapshot produces), each
// with one # HELP and # TYPE line; histogram series expand into
// cumulative _bucket{le=...} lines plus _sum and _count.
func WriteExposition(w io.Writer, snaps []MetricSnapshot) {
	for _, ms := range snaps {
		if ms.Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", ms.Name, escapeHelp(ms.Help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", ms.Name, ms.Kind)
		for _, ss := range ms.Series {
			if ss.Hist != nil {
				writeHistSeries(w, ms.Name, ss)
				continue
			}
			fmt.Fprintf(w, "%s%s %s\n", ms.Name, labelBlock(ss.Labels, "", ""), formatValue(ss.Value))
		}
	}
}

// writeHistSeries renders one histogram series.
func writeHistSeries(w io.Writer, name string, ss SeriesSnapshot) {
	h := ss.Hist
	var cum int64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, labelBlock(ss.Labels, "le", formatValue(bound)), cum)
	}
	// The +Inf bucket equals the total count by definition; using Count
	// keeps the exposition self-consistent even if an observation landed
	// between the bucket reads and the count read.
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelBlock(ss.Labels, "le", "+Inf"), h.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelBlock(ss.Labels, "", ""), formatValue(h.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelBlock(ss.Labels, "", ""), h.Count)
}

// labelBlock renders {k="v",...} with keys sorted, optionally appending
// one extra pair (the histogram's le). Empty label sets render as "".
func labelBlock(labels Labels, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(labels[k]))
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus text format expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ValidateExposition checks that data is well-formed Prometheus text
// exposition: HELP/TYPE comments name valid metrics with known types,
// sample lines parse (name, optional label block, float value, optional
// timestamp), every sample belongs to a family whose # TYPE was declared
// first, and histogram families only emit _bucket/_sum/_count suffixes
// with _bucket carrying an le label. cmd/diadsd's TestTelemetryScrape
// runs it against a live daemon's /metrics.
func ValidateExposition(data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("exposition: empty body")
	}
	if data[len(data)-1] != '\n' {
		return fmt.Errorf("exposition: missing trailing newline")
	}
	types := make(map[string]string)
	samples := 0
	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := validateComment(line, types); err != nil {
				return fmt.Errorf("exposition line %d: %w", lineNo, err)
			}
			continue
		}
		if err := validateSample(line, types); err != nil {
			return fmt.Errorf("exposition line %d: %w", lineNo, err)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("exposition: no sample lines")
	}
	return nil
}

func validateComment(line string, types map[string]string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP comment %q", line)
		}
	case "TYPE":
		if len(fields) < 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		if _, dup := types[fields[2]]; dup {
			return fmt.Errorf("duplicate TYPE for %s", fields[2])
		}
		types[fields[2]] = fields[3]
	}
	return nil
}

func validateSample(line string, types map[string]string) error {
	rest := line
	i := 0
	for i < len(rest) && isNameChar(rest[i], i == 0) {
		i++
	}
	if i == 0 {
		return fmt.Errorf("sample does not start with a metric name: %q", line)
	}
	name := rest[:i]
	rest = rest[i:]

	family, suffix := name, ""
	for _, s := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, s)
		if base != name && types[base] == "histogram" {
			family, suffix = base, s
			break
		}
	}
	typ, declared := types[family]
	if !declared {
		return fmt.Errorf("sample %s has no preceding # TYPE", name)
	}
	if typ == "histogram" && suffix == "" {
		return fmt.Errorf("histogram %s sample must use _bucket/_sum/_count", family)
	}

	var labels map[string]string
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return fmt.Errorf("unterminated label block: %q", line)
		}
		var err error
		labels, err = parseLabels(rest[1:end])
		if err != nil {
			return err
		}
		rest = rest[end+1:]
	}
	if suffix == "_bucket" {
		if _, ok := labels["le"]; !ok {
			return fmt.Errorf("histogram bucket sample %s missing le label", name)
		}
	}

	rest = strings.TrimLeft(rest, " \t")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return fmt.Errorf("expected value [timestamp], got %q", rest)
	}
	if !validFloat(fields[0]) {
		return fmt.Errorf("malformed sample value %q", fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return fmt.Errorf("malformed sample timestamp %q", fields[1])
		}
	}
	return nil
}

// parseLabels parses the inside of a {..} block.
func parseLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for s != "" {
		eq := strings.Index(s, "=")
		if eq <= 0 {
			return nil, fmt.Errorf("malformed label pair in %q", s)
		}
		key := s[:eq]
		if !validLabelName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("label value for %s not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				val.WriteByte(s[i+1])
				i++
				continue
			}
			if c == '"' {
				s = s[i+1:]
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %s", key)
		}
		out[key] = val.String()
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func validFloat(s string) bool {
	switch s {
	case "+Inf", "-Inf", "NaN", "Nan":
		return true
	}
	_, err := strconv.ParseFloat(s, 64)
	return err == nil
}
