// Package tsdb is an embedded, dependency-free time-series layer over
// the obs metrics registry: a Prometheus text-exposition parser, a
// fixed-size ring-buffer store with a label-cardinality cap, a small
// query grammar (instant and range selectors, rate(), over-time
// aggregates, histogram quantile estimation), a multi-target scrape
// collector (local registries and remote /metrics endpoints alike,
// which is what makes cluster-wide federation one code path), an SLO
// alert rule engine, and a metrics-conventions linter.
//
// Everything here runs on the serving side, off the simulator hot
// path: the pipeline publishes through the existing lock-free obs
// instruments and the seqlock progress probe; the tsdb only ever reads
// rendered exposition text on its own ticker.
package tsdb

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one series sample within a family: a concrete series name
// (for histograms this carries the _bucket/_sum/_count suffix), a
// sorted flat label list (key, value pairs), and the value.
type Sample struct {
	Name   string
	Labels []string
	Value  float64
}

// Family is one metric family from an exposition payload.
type Family struct {
	Name    string
	Help    string
	Kind    string // "counter", "gauge", "histogram", "untyped"
	Samples []Sample
}

// ParseExposition parses Prometheus text exposition format (version
// 0.0.4): # HELP / # TYPE comment lines, sample lines with optional
// label sets and optional trailing millisecond timestamps (ignored —
// the collector stamps its own scrape time). Samples with no TYPE line
// are grouped into an "untyped" family. Errors carry 1-based line
// numbers.
func ParseExposition(r io.Reader) ([]Family, error) {
	var (
		fams  []Family
		index = map[string]int{} // family name -> fams index
	)
	family := func(name string) *Family {
		if i, ok := index[name]; ok {
			return &fams[i]
		}
		index[name] = len(fams)
		fams = append(fams, Family{Name: name, Kind: "untyped"})
		return &fams[len(fams)-1]
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimSpace(line[1:])
			switch {
			case strings.HasPrefix(rest, "HELP "):
				parts := strings.SplitN(rest[len("HELP "):], " ", 2)
				f := family(parts[0])
				if len(parts) == 2 {
					f.Help = parts[1]
				}
			case strings.HasPrefix(rest, "TYPE "):
				parts := strings.SplitN(rest[len("TYPE "):], " ", 2)
				if len(parts) != 2 {
					return nil, fmt.Errorf("line %d: malformed TYPE comment %q", lineno, line)
				}
				switch parts[1] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineno, parts[1])
				}
				family(parts[0]).Kind = parts[1]
			}
			continue // other comments are ignored
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		f := family(familyOf(name, index))
		f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

// familyOf maps a sample's series name to its family name: histogram
// (and summary) series render as <family>_bucket/_sum/_count, so a
// suffixed name whose trimmed base is a known family belongs there.
func familyOf(name string, index map[string]int) string {
	if _, ok := index[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if _, ok := index[base]; ok {
				return base
			}
		}
	}
	return name
}

// parseSampleLine parses `name{k="v",...} value [timestamp]`.
func parseSampleLine(line string) (name string, labels []string, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("sample line %q has no value", line)
	}
	name = rest[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end, err := labelSetEnd(rest)
		if err != nil {
			return "", nil, 0, err
		}
		labels, err = parseLabels(rest[1:end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("sample line %q: expected value [timestamp]", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("bad sample timestamp %q", fields[1])
		}
	}
	return name, labels, value, nil
}

// labelSetEnd finds the index of the closing '}' of a label set that
// starts at s[0] == '{', respecting quoted values with escapes.
func labelSetEnd(s string) (int, error) {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if inQuote {
				i++ // skip escaped char
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("unterminated label set in %q", s)
}

// parseLabels parses the interior of a label set (`k="v",k2="v2"`)
// into a sorted flat pair list.
func parseLabels(s string) ([]string, error) {
	var labels []string
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair %q has no '='", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !validLabelName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = strings.TrimSpace(s[eq+1:])
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %q value is not quoted", key)
		}
		// Find the closing quote, honoring backslash escapes.
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("label %q value is unterminated", key)
		}
		val, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, fmt.Errorf("label %q value %s: %v", key, s[:end+1], err)
		}
		labels = append(labels, key, val)
		s = strings.TrimSpace(s[end+1:])
		if len(s) > 0 {
			if s[0] != ',' {
				return nil, fmt.Errorf("expected ',' between labels, got %q", s)
			}
			s = strings.TrimSpace(s[1:])
		}
	}
	sortLabelPairs(labels)
	return labels, nil
}

// sortLabelPairs sorts a flat (key, value) pair list by key, then
// value, in place.
func sortLabelPairs(pairs []string) {
	if len(pairs) <= 2 {
		return
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(a, b int) bool {
		if kvs[a].k != kvs[b].k {
			return kvs[a].k < kvs[b].k
		}
		return kvs[a].v < kvs[b].v
	})
	for i, p := range kvs {
		pairs[2*i], pairs[2*i+1] = p.k, p.v
	}
}

// renderLabels renders a flat pair list as `{k="v",...}` ("" if empty).
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", pairs[i], pairs[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// RenderExposition writes families back out in exposition format, so
// that parse(render(parse(x))) equals parse(x). Every family gets a
// TYPE line, untyped ones too: it declares a family that has no help
// and no samples, and it puts each suffixed series after the family
// that absorbed it.
func RenderExposition(w io.Writer, fams []Family) error {
	var b strings.Builder
	for _, f := range fams {
		if f.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, f.Help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, s := range f.Samples {
			fmt.Fprintf(&b, "%s%s %s\n", s.Name, renderLabels(s.Labels), formatValue(s.Value))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
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
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
