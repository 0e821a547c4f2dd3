package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promparse.go is a small parser for the Prometheus text exposition
// format (version 0.0.4) — enough to validate our own /metrics output
// in tests and CI (promcheck), without a client_golang dependency. It handles HELP
// and TYPE comments, labeled and unlabeled samples, and label-value
// escape sequences; it rejects anything else so malformed exposition
// fails loudly.

// PromSample is one parsed metric sample.
type PromSample struct {
	Name   string
	Labels map[string]string // nil when the sample has no labels
	Value  float64
}

// PromMetrics is a parsed exposition page.
type PromMetrics struct {
	Samples []PromSample
	// Types maps metric name to the declared TYPE (gauge, counter, …).
	Types map[string]string
	// Help maps metric name to its HELP text.
	Help map[string]string
}

// Get returns the first sample with the given name.
func (m *PromMetrics) Get(name string) (PromSample, bool) {
	for _, s := range m.Samples {
		if s.Name == name {
			return s, true
		}
	}
	return PromSample{}, false
}

// Value returns the value of the first sample with the given name, or
// 0 if absent.
func (m *PromMetrics) Value(name string) float64 {
	s, _ := m.Get(name)
	return s.Value
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// ParsePromText parses a text-format exposition page.
func ParsePromText(r io.Reader) (*PromMetrics, error) {
	m := &PromMetrics{Types: map[string]string{}, Help: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := m.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		m.Samples = append(m.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *PromMetrics) parseComment(line string) error {
	// "# HELP name text", "# TYPE name type"; any other comment is
	// allowed and ignored per the format.
	rest, ok := strings.CutPrefix(line, "# ")
	if !ok {
		return nil
	}
	kind, rest, _ := strings.Cut(rest, " ")
	switch kind {
	case "HELP":
		name, text, _ := strings.Cut(rest, " ")
		if !validMetricName(name) {
			return fmt.Errorf("HELP for invalid metric name %q", name)
		}
		m.Help[name] = text
	case "TYPE":
		name, typ, _ := strings.Cut(rest, " ")
		if !validMetricName(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("metric %s has unknown TYPE %q", name, typ)
		}
		m.Types[name] = typ
	}
	return nil
}

func parseSample(line string) (PromSample, error) {
	var s PromSample
	rest := line
	// Metric name runs up to '{', space, or tab.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", line, err)
		}
		s.Labels, rest = labels, tail
	}
	fields := strings.Fields(rest)
	// "value" or "value timestamp".
	if len(fields) != 1 && len(fields) != 2 {
		return s, fmt.Errorf("sample %q: want value [timestamp], got %q", line, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {k="v",...} block, returning the labels and
// the remainder of the line.
func parseLabels(rest string) (map[string]string, string, error) {
	labels := map[string]string{}
	rest = rest[1:] // consume '{'
	for {
		rest = strings.TrimLeft(rest, " \t")
		if strings.HasPrefix(rest, "}") {
			return labels, rest[1:], nil
		}
		eq := strings.Index(rest, "=")
		if eq < 0 {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		name := strings.TrimSpace(rest[:eq])
		if !validMetricName(name) || strings.Contains(name, ":") {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if !strings.HasPrefix(rest, `"`) {
			return nil, "", fmt.Errorf("label %s: value not quoted", name)
		}
		val, tail, err := parseLabelValue(rest[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", name, err)
		}
		labels[name] = val
		rest = strings.TrimLeft(tail, " \t")
		if strings.HasPrefix(rest, ",") {
			rest = rest[1:]
		}
	}
}

// parseLabelValue reads an escaped label value up to its closing quote.
func parseLabelValue(rest string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		switch rest[i] {
		case '"':
			return b.String(), rest[i+1:], nil
		case '\\':
			i++
			if i >= len(rest) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch rest[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", rest[i])
			}
		default:
			b.WriteByte(rest[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}
