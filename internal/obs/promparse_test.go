package obs

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// promtext grammar validation for the endpoint tests.

var (
	promNameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// PromSample is one parsed exposition sample.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseProm validates text exposition format 0.0.4: HELP/TYPE comment
// grammar, metric-name and label grammar, sample syntax, and that every
// sample belongs to a family declared by a preceding TYPE line (histogram
// families own their _bucket/_sum/_count children). Returns the parsed
// samples; any violation is an error naming the line.
func ParseProm(text string) ([]PromSample, error) {
	types := map[string]string{}
	var out []PromSample
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // bare comment
			}
			switch fields[1] {
			case "TYPE":
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
				}
				name, kind := fields[2], fields[3]
				if !promNameRe.MatchString(name) {
					return nil, fmt.Errorf("line %d: bad metric name %q", lineNo, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, kind)
				}
				if _, dup := types[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				types[name] = kind
			case "HELP":
				if len(fields) < 3 || !promNameRe.MatchString(fields[2]) {
					return nil, fmt.Errorf("line %d: malformed HELP comment %q", lineNo, line)
				}
			}
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(s.Name, suf)
			if base != s.Name && (types[base] == "histogram" || types[base] == "summary") {
				family = base
				break
			}
		}
		kind, ok := types[family]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, s.Name)
		}
		if kind == "histogram" && family != s.Name && strings.HasSuffix(s.Name, "_bucket") {
			if _, ok := s.Labels["le"]; !ok {
				return nil, fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no samples in exposition")
	}
	return out, nil
}

func parsePromSample(line string) (PromSample, error) {
	s := PromSample{Labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:i]
	if !promNameRe.MatchString(s.Name) {
		return s, fmt.Errorf("bad metric name %q", s.Name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		if err := parsePromLabels(rest[1:end], s.Labels); err != nil {
			return s, err
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("expected value [timestamp] after name, got %q", rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad sample value %q", fields[0])
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

func parsePromLabels(block string, into map[string]string) error {
	rest := block
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("malformed label pair in %q", block)
		}
		key := rest[:eq]
		if !promLabelRe.MatchString(key) {
			return fmt.Errorf("bad label name %q", key)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return fmt.Errorf("label value for %q not quoted", key)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for rest != "" {
			c := rest[0]
			if c == '\\' {
				if len(rest) < 2 {
					return fmt.Errorf("dangling escape in label value")
				}
				switch rest[1] {
				case '\\', '"':
					val.WriteByte(rest[1])
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("bad escape \\%c in label value", rest[1])
				}
				rest = rest[2:]
				continue
			}
			if c == '"' {
				closed = true
				rest = rest[1:]
				break
			}
			val.WriteByte(c)
			rest = rest[1:]
		}
		if !closed {
			return fmt.Errorf("unterminated label value for %q", key)
		}
		into[key] = val.String()
		if rest != "" {
			if rest[0] != ',' {
				return fmt.Errorf("expected ',' between labels, got %q", rest)
			}
			rest = rest[1:]
		}
	}
	return nil
}

// PromFamilies returns the distinct family names in parsed samples
// (histogram children collapsed), sorted — a convenience for tests.
func PromFamilies(samples []PromSample) []string {
	set := map[string]bool{}
	for _, s := range samples {
		name := s.Name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suf)
		}
		set[name] = true
	}
	var out []string
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
