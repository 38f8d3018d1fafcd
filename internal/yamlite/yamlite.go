// Package yamlite parses the YAML subset Lumina's test configurations use
// (the paper's Listings 1 and 2): block mappings, block sequences, inline
// flow mappings/sequences, scalars (strings, integers, floats, booleans,
// null), quoting, and '#' comments.
//
// It is deliberately not a full YAML implementation — no anchors, tags,
// multi-line scalars, or documents — because test configs should stay
// simple enough to diff and reproduce. Parsed documents are plain Go
// values: map[string]any, []any, string, int64, float64, bool, nil.
package yamlite

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse decodes a yamlite document into plain Go values.
func Parse(data []byte) (any, error) {
	p := &parser{}
	p.split(string(data))
	if len(p.lines) == 0 {
		return nil, nil
	}
	v, next, err := p.parseBlock(0, p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if next != len(p.lines) {
		return nil, p.errorf(next, "unexpected content (bad indentation?)")
	}
	return v, nil
}

// ParseMap decodes a document whose root must be a mapping.
func ParseMap(data []byte) (map[string]any, error) {
	v, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if v == nil {
		return map[string]any{}, nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("yamlite: document root is %T, want mapping", v)
	}
	return m, nil
}

type line struct {
	num     int // 1-based line number in the source
	indent  int
	content string // comment-stripped, right-trimmed, non-empty
}

type parser struct {
	lines []line
}

func (p *parser) errorf(i int, format string, args ...any) error {
	ln := 0
	if i < len(p.lines) {
		ln = p.lines[i].num
	} else if len(p.lines) > 0 {
		ln = p.lines[len(p.lines)-1].num
	}
	return fmt.Errorf("yamlite: line %d: %s", ln, fmt.Sprintf(format, args...))
}

// split breaks the source into meaningful lines, stripping comments and
// blank lines and recording indentation. As in YAML, "\r\n", "\r" and
// "\n" all end a line, so no scalar can hold a line break.
func (p *parser) split(src string) {
	src = strings.ReplaceAll(strings.ReplaceAll(src, "\r\n", "\n"), "\r", "\n")
	for num, raw := range strings.Split(src, "\n") {
		s := stripComment(raw)
		trimmed := strings.TrimRight(s, " \t\r")
		body := strings.TrimLeft(trimmed, " ")
		if body == "" {
			continue
		}
		if strings.ContainsRune(trimmed[:len(trimmed)-len(body)], '\t') {
			// Tabs in indentation are a classic YAML footgun; reject.
			body = "\t" + body
		}
		p.lines = append(p.lines, line{
			num:     num + 1,
			indent:  len(trimmed) - len(body),
			content: body,
		})
	}
}

// stripComment removes a trailing '# ...' comment, honoring quotes.
func stripComment(s string) string {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if !inS && !inD {
				// YAML requires '#' to be at start or preceded by space.
				if i == 0 || s[i-1] == ' ' || s[i-1] == '\t' {
					return s[:i]
				}
			}
		}
	}
	return s
}

// parseBlock parses the block starting at line index i whose lines share
// indentation indent. It returns the parsed value and the index of the
// first line after the block.
func (p *parser) parseBlock(i, indent int) (any, int, error) {
	if strings.HasPrefix(p.lines[i].content, "\t") {
		return nil, 0, p.errorf(i, "tab character in indentation")
	}
	if strings.HasPrefix(p.lines[i].content, "- ") || p.lines[i].content == "-" {
		return p.parseSequence(i, indent)
	}
	return p.parseMapping(i, indent)
}

func (p *parser) parseSequence(i, indent int) (any, int, error) {
	var seq []any
	for i < len(p.lines) {
		ln := p.lines[i]
		if ln.indent != indent {
			if ln.indent > indent {
				return nil, 0, p.errorf(i, "unexpected indent inside sequence")
			}
			break
		}
		if !strings.HasPrefix(ln.content, "-") {
			break // sibling mapping key ends the sequence
		}
		rest := strings.TrimPrefix(ln.content, "-")
		if rest != "" && !strings.HasPrefix(rest, " ") {
			return nil, 0, p.errorf(i, "expected space after '-'")
		}
		rest = strings.TrimLeft(rest, " ")
		switch {
		case rest == "":
			// Item is a nested block on following deeper lines.
			if i+1 >= len(p.lines) || p.lines[i+1].indent <= indent {
				seq = append(seq, nil)
				i++
				continue
			}
			v, next, err := p.parseBlock(i+1, p.lines[i+1].indent)
			if err != nil {
				return nil, 0, err
			}
			seq = append(seq, v)
			i = next
		case hasTopLevelColon(rest):
			// "- key: value" starts an inline mapping item; its remaining
			// keys sit on deeper lines. The dash consumes (indent of '-')
			// + 2 columns, so nested keys are deeper than indent.
			itemIndent := indent + (len(ln.content) - len(rest))
			v, next, err := p.parseDashMapping(i, itemIndent, rest)
			if err != nil {
				return nil, 0, err
			}
			seq = append(seq, v)
			i = next
		default:
			v, err := p.parseScalarOrFlow(i, rest)
			if err != nil {
				return nil, 0, err
			}
			seq = append(seq, v)
			i++
		}
	}
	return seq, i, nil
}

// parseDashMapping handles a mapping whose first key shares the line with
// the '-' marker:
//
//   - qpn: 1
//     psn: 4
func (p *parser) parseDashMapping(i, itemIndent int, first string) (any, int, error) {
	m := map[string]any{}
	v, _, err := p.parseMappingEntry(i, itemIndent, first, m)
	if err != nil {
		return nil, 0, err
	}
	i = v
	for i < len(p.lines) && p.lines[i].indent == itemIndent {
		i, _, err = p.parseMappingEntry(i, itemIndent, p.lines[i].content, m)
		if err != nil {
			return nil, 0, err
		}
	}
	if i < len(p.lines) && p.lines[i].indent > itemIndent {
		return nil, 0, p.errorf(i, "unexpected indent inside sequence item")
	}
	return m, i, nil
}

func (p *parser) parseMapping(i, indent int) (any, int, error) {
	m := map[string]any{}
	for i < len(p.lines) {
		ln := p.lines[i]
		if ln.indent != indent {
			if ln.indent > indent {
				return nil, 0, p.errorf(i, "unexpected indent")
			}
			break
		}
		if strings.HasPrefix(ln.content, "- ") || ln.content == "-" {
			break
		}
		var err error
		i, _, err = p.parseMappingEntry(i, indent, ln.content, m)
		if err != nil {
			return nil, 0, err
		}
	}
	return m, i, nil
}

// parseMappingEntry parses one "key: ..." entry whose text is content and
// whose line index is i, adding it to m. It returns the index after the
// entry (including any nested block) and the key.
func (p *parser) parseMappingEntry(i, indent int, content string, m map[string]any) (int, string, error) {
	key, rest, ok := splitKey(content)
	if !ok {
		return 0, "", p.errorf(i, "expected 'key: value', got %q", content)
	}
	if _, dup := m[key]; dup {
		return 0, "", p.errorf(i, "duplicate key %q", key)
	}
	if rest != "" {
		v, err := p.parseScalarOrFlow(i, rest)
		if err != nil {
			return 0, "", err
		}
		m[key] = v
		return i + 1, key, nil
	}
	// Value is a nested block (or null if nothing deeper follows).
	if i+1 < len(p.lines) && p.lines[i+1].indent > indent {
		v, next, err := p.parseBlock(i+1, p.lines[i+1].indent)
		if err != nil {
			return 0, "", err
		}
		m[key] = v
		return next, key, nil
	}
	// A sequence may sit at the same indent as its key; YAML allows it.
	if i+1 < len(p.lines) && p.lines[i+1].indent == indent &&
		(strings.HasPrefix(p.lines[i+1].content, "- ") || p.lines[i+1].content == "-") {
		v, next, err := p.parseSequence(i+1, indent)
		if err != nil {
			return 0, "", err
		}
		m[key] = v
		return next, key, nil
	}
	m[key] = nil
	return i + 1, key, nil
}

// splitKey splits "key: rest" at the first unquoted top-level colon that
// is followed by space or end of line.
func splitKey(s string) (key, rest string, ok bool) {
	idx := topLevelColon(s)
	if idx < 0 {
		return "", "", false
	}
	key = strings.TrimSpace(s[:idx])
	rest = strings.TrimSpace(s[idx+1:])
	key = unquote(key)
	if key == "" {
		return "", "", false
	}
	return key, rest, true
}

// topLevelColon finds the first ':' outside quotes and flow brackets that
// is followed by whitespace or end-of-string.
func topLevelColon(s string) int {
	inS, inD := false, false
	depth := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case inS || inD:
		case c == '{' || c == '[':
			depth++
		case c == '}' || c == ']':
			depth--
		case c == ':' && depth == 0:
			if i+1 == len(s) || s[i+1] == ' ' || s[i+1] == '\t' {
				return i
			}
		}
	}
	return -1
}

func hasTopLevelColon(s string) bool { return topLevelColon(s) >= 0 }

// parseScalarOrFlow parses a single-line value: a flow mapping/sequence
// or a scalar.
func (p *parser) parseScalarOrFlow(i int, s string) (any, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "{") || strings.HasPrefix(s, "[") {
		v, rest, err := parseFlow(s)
		if err != nil {
			return nil, p.errorf(i, "%v", err)
		}
		if strings.TrimSpace(rest) != "" {
			return nil, p.errorf(i, "trailing content after flow value: %q", rest)
		}
		return v, nil
	}
	return Scalar(s), nil
}

// parseFlow parses an inline {..} or [..] value, returning the unconsumed
// remainder.
func parseFlow(s string) (any, string, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "{"):
		m := map[string]any{}
		s = strings.TrimSpace(s[1:])
		if strings.HasPrefix(s, "}") {
			return m, s[1:], nil
		}
		for {
			idx := flowColon(s)
			if idx < 0 {
				return nil, "", fmt.Errorf("flow mapping entry missing ':' in %q", s)
			}
			key := unquote(strings.TrimSpace(s[:idx]))
			s = strings.TrimSpace(s[idx+1:])
			var v any
			var err error
			v, s, err = parseFlowValue(s)
			if err != nil {
				return nil, "", err
			}
			m[key] = v
			s = strings.TrimSpace(s)
			if strings.HasPrefix(s, ",") {
				s = strings.TrimSpace(s[1:])
				continue
			}
			if strings.HasPrefix(s, "}") {
				return m, s[1:], nil
			}
			return nil, "", fmt.Errorf("expected ',' or '}' in flow mapping, got %q", s)
		}
	case strings.HasPrefix(s, "["):
		var seq []any
		s = strings.TrimSpace(s[1:])
		if strings.HasPrefix(s, "]") {
			return seq, s[1:], nil
		}
		for {
			var v any
			var err error
			v, s, err = parseFlowValue(s)
			if err != nil {
				return nil, "", err
			}
			seq = append(seq, v)
			s = strings.TrimSpace(s)
			if strings.HasPrefix(s, ",") {
				s = strings.TrimSpace(s[1:])
				continue
			}
			if strings.HasPrefix(s, "]") {
				return seq, s[1:], nil
			}
			return nil, "", fmt.Errorf("expected ',' or ']' in flow sequence, got %q", s)
		}
	default:
		return nil, "", fmt.Errorf("not a flow value: %q", s)
	}
}

// parseFlowValue parses one value inside a flow collection.
func parseFlowValue(s string) (any, string, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "{") || strings.HasPrefix(s, "[") {
		return parseFlow(s)
	}
	// Scalar ends at top-level ',' '}' ']'.
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '\'' && !inD:
			inS = !inS
		case c == '"' && !inS:
			inD = !inD
		case inS || inD:
		case c == ',' || c == '}' || c == ']':
			return Scalar(strings.TrimSpace(s[:i])), s[i:], nil
		}
	}
	return Scalar(strings.TrimSpace(s)), "", nil
}

// flowColon finds the first ':' outside quotes (flow mappings do not
// require a following space).
func flowColon(s string) int {
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'' && !inD:
			inS = !inS
		case s[i] == '"' && !inS:
			inD = !inD
		case s[i] == ':' && !inS && !inD:
			return i
		}
	}
	return -1
}

// Scalar converts a scalar token into a typed Go value using YAML 1.1-ish
// rules restricted to what test configs need: booleans in several
// capitalizations (the paper's configs use "False"/"True"), null, base-10
// integers, floats, and strings (quoted or bare).
func Scalar(s string) any {
	switch s {
	case "", "~", "null", "Null", "NULL":
		return nil
	case "true", "True", "TRUE", "yes", "Yes", "on", "On":
		return true
	case "false", "False", "FALSE", "no", "No", "off", "Off":
		return false
	}
	if q := unquoteIfQuoted(s); q != nil {
		return *q
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		if i, err := strconv.ParseInt(s[2:], 16, 64); err == nil {
			return i
		}
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

func unquoteIfQuoted(s string) *string {
	if len(s) >= 2 && (s[0] == '\'' || s[0] == '"') && s[len(s)-1] == s[0] {
		inner := s[1 : len(s)-1]
		if s[0] == '\'' {
			inner = strings.ReplaceAll(inner, "''", "'")
		} else {
			inner = strings.ReplaceAll(inner, `\"`, `"`)
			inner = strings.ReplaceAll(inner, `\\`, `\`)
		}
		return &inner
	}
	return nil
}

func unquote(s string) string {
	if q := unquoteIfQuoted(s); q != nil {
		return *q
	}
	return s
}
