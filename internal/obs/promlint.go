package obs

import (
	"fmt"
	"strconv"
	"strings"
)

// LintProm validates a Prometheus text exposition (format 0.0.4):
// well-formed HELP/TYPE headers, legal metric and label names, quoted
// label values with only the three recognized escapes, parseable
// sample values, samples grouped contiguously per family, histogram
// families carrying cumulative le buckets (ending in +Inf) plus _sum
// and _count. It is the gate the CI observability smoke runs against
// both /metrics endpoints via cmd/rcoal-obscheck.
func LintProm(data []byte) error {
	l := promLinter{typed: map[string]string{}, closed: map[string]bool{}}
	for i, line := range strings.Split(string(data), "\n") {
		if err := l.line(line); err != nil {
			return fmt.Errorf("line %d: %w (%q)", i+1, err, line)
		}
	}
	return l.finish()
}

type promLinter struct {
	typed    map[string]string // family → type
	closed   map[string]bool   // families whose sample block has ended
	cur      string            // family currently accepting samples
	curTyp   string
	hist     *histCheck
	histDone []histCheck // completed histogram families, checked at finish
}

type histCheck struct {
	name      string
	lastLe    float64
	lastCum   float64
	buckets   int
	infSeen   bool
	sumSeen   bool
	countSeen bool
	count     float64
}

func (l *promLinter) line(line string) error {
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		fields := strings.SplitN(line, " ", 4)
		if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
			// Any other comment is legal and ignored.
			return nil
		}
		name := fields[2]
		if !validMetricName(name) {
			return fmt.Errorf("invalid metric name %q in %s", name, fields[1])
		}
		if fields[1] == "TYPE" {
			if len(fields) != 4 {
				return fmt.Errorf("TYPE without a type")
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("unknown type %q", fields[3])
			}
			if _, dup := l.typed[name]; dup {
				return fmt.Errorf("duplicate TYPE for %s", name)
			}
			if l.closed[name] {
				return fmt.Errorf("TYPE for %s after its samples", name)
			}
			l.typed[name] = fields[3]
			l.enter(name, fields[3])
		}
		return nil
	}
	name, rest, err := splitSample(line)
	if err != nil {
		return err
	}
	family := l.familyOf(name)
	if family != l.cur {
		if l.closed[family] {
			return fmt.Errorf("samples of %s not contiguous", family)
		}
		typ, ok := l.typed[family]
		if !ok {
			typ = "untyped"
		}
		l.enter(family, typ)
	}
	return l.sample(name, rest)
}

// enter switches the linter to a new family, closing the previous one.
func (l *promLinter) enter(name, typ string) {
	if l.cur != "" && l.cur != name {
		l.closed[l.cur] = true
		if l.hist != nil {
			l.histDone = append(l.histDone, *l.hist)
			l.hist = nil
		}
	}
	l.cur = name
	l.curTyp = typ
	if typ == "histogram" && l.hist == nil {
		l.hist = &histCheck{name: name, lastLe: -1 << 62}
	}
}

func (l *promLinter) familyOf(name string) string {
	if l.typed[name] != "" {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if t := l.typed[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

func (l *promLinter) sample(name, rest string) error {
	labels, valueStr, err := splitLabels(rest)
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(valueStr, 64)
	if err != nil {
		return fmt.Errorf("unparseable value %q", valueStr)
	}
	if l.curTyp == "histogram" && l.hist != nil {
		h := l.hist
		switch {
		case name == h.name+"_bucket":
			le, ok := labels["le"]
			if !ok {
				return fmt.Errorf("histogram bucket without le label")
			}
			bound, err := strconv.ParseFloat(le, 64) // "+Inf" parses to +Inf
			if err != nil {
				return fmt.Errorf("unparseable le %q", le)
			}
			if bound <= h.lastLe && h.buckets > 0 {
				return fmt.Errorf("histogram %s buckets not in increasing le order", h.name)
			}
			if v < h.lastCum {
				return fmt.Errorf("histogram %s buckets not cumulative", h.name)
			}
			h.lastLe, h.lastCum = bound, v
			h.buckets++
			if le == "+Inf" {
				h.infSeen, h.count = true, v
			}
		case name == h.name+"_sum":
			h.sumSeen = true
		case name == h.name+"_count":
			h.countSeen = true
			if h.infSeen && v != h.count {
				return fmt.Errorf("histogram %s _count %v != +Inf bucket %v", h.name, v, h.count)
			}
		}
	}
	return nil
}

func (l *promLinter) finish() error {
	l.enter("", "") // close the trailing family
	for _, h := range l.histDone {
		if !h.infSeen || !h.sumSeen || !h.countSeen {
			return fmt.Errorf("histogram %s incomplete: +Inf bucket/_sum/_count = %v/%v/%v",
				h.name, h.infSeen, h.sumSeen, h.countSeen)
		}
	}
	return nil
}

// splitSample separates the metric name from the labels+value tail.
func splitSample(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", "", fmt.Errorf("malformed sample")
	}
	name, rest = line[:i], line[i:]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	return name, rest, nil
}

// splitLabels parses an optional {label="value",...} block and the
// trailing value (an optional timestamp is accepted and ignored).
func splitLabels(rest string) (map[string]string, string, error) {
	labels := map[string]string{}
	if strings.HasPrefix(rest, "{") {
		i := 1
		for {
			if i >= len(rest) {
				return nil, "", fmt.Errorf("unterminated label block")
			}
			if rest[i] == '}' {
				i++
				break
			}
			j := strings.IndexByte(rest[i:], '=')
			if j < 0 {
				return nil, "", fmt.Errorf("label without '='")
			}
			lname := rest[i : i+j]
			if !validLabelName(lname) {
				return nil, "", fmt.Errorf("invalid label name %q", lname)
			}
			i += j + 1
			if i >= len(rest) || rest[i] != '"' {
				return nil, "", fmt.Errorf("unquoted label value")
			}
			i++
			var val strings.Builder
			for {
				if i >= len(rest) {
					return nil, "", fmt.Errorf("unterminated label value")
				}
				c := rest[i]
				if c == '"' {
					i++
					break
				}
				if c == '\\' {
					if i+1 >= len(rest) {
						return nil, "", fmt.Errorf("dangling escape")
					}
					switch rest[i+1] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return nil, "", fmt.Errorf("unknown escape \\%c", rest[i+1])
					}
					i += 2
					continue
				}
				val.WriteByte(c)
				i++
			}
			labels[lname] = val.String()
			if i < len(rest) && rest[i] == ',' {
				i++
			}
		}
		rest = rest[i:]
	}
	rest = strings.TrimLeft(rest, " ")
	// A timestamp may follow the value; only the value is validated.
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		if _, err := strconv.ParseInt(strings.TrimSpace(rest[sp+1:]), 10, 64); err != nil {
			return nil, "", fmt.Errorf("unparseable timestamp %q", rest[sp+1:])
		}
		rest = rest[:sp]
	}
	if rest == "" {
		return nil, "", fmt.Errorf("sample without value")
	}
	return labels, rest, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
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
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
