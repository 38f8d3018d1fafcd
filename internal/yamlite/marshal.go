package yamlite

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Marshal renders plain Go values (map[string]any, []any, scalars — the
// same shapes Parse produces) as a yamlite document. Map keys are sorted
// for deterministic output, lists of scalars use flow form, and lists of
// mappings use block "- key: value" form, matching the style of the
// paper's listings. Marshal(Parse(x)) is semantically idempotent.
//
// These are the canonical bytes config.ContentHash digests. Marshal
// appends them to one buffer, sorting every map's keys in one shared
// slice; FuzzMarshalMatchesReference holds them to the fmt-based writer
// it replaced, byte for byte.
func Marshal(v any) ([]byte, error) {
	switch x := v.(type) {
	case map[string]any:
		// Room for a scenario's document and its deepest key stack.
		w := writer{buf: make([]byte, 0, 1024), keys: make([]string, 0, 32)}
		if err := w.mapping(x, 0); err != nil {
			return nil, err
		}
		return w.buf, nil
	case nil:
		return []byte{}, nil // empty document
	default:
		return nil, fmt.Errorf("yamlite: document root must be a mapping, got %T", v)
	}
}

// writer appends a document to buf. keys is a stack of sorted key runs:
// a map pushes its keys, writes its entries (nested maps push above
// them) and pops them.
type writer struct {
	buf  []byte
	keys []string
}

// sortedKeys pushes m's keys in order and returns where they start.
func (w *writer) sortedKeys(m map[string]any) int {
	base := len(w.keys)
	for k := range m {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys[base:])
	return base
}

// indent appends n spaces.
func (w *writer) indent(n int) {
	for range n {
		w.buf = append(w.buf, ' ')
	}
}

// key appends indent spaces, k (quoted when it must be) and a colon.
func (w *writer) key(k string, indent int) {
	w.indent(indent)
	w.buf = appendString(w.buf, k)
	w.buf = append(w.buf, ':')
}

func (w *writer) mapping(m map[string]any, indent int) error {
	base := w.sortedKeys(m)
	for i := base; i < base+len(m); i++ {
		k := w.keys[i]
		v := m[k]
		w.key(k, indent)
		switch x := v.(type) {
		case map[string]any:
			if len(x) == 0 {
				w.buf = append(w.buf, " {}\n"...)
				continue
			}
			w.buf = append(w.buf, '\n')
			if err := w.mapping(x, indent+2); err != nil {
				return err
			}
		case []any:
			if len(x) == 0 {
				w.buf = append(w.buf, " []\n"...)
				continue
			}
			if !allScalars(x) {
				w.buf = append(w.buf, '\n')
				if err := w.sequence(x, indent+2); err != nil {
					return err
				}
				continue
			}
			w.buf = append(w.buf, " ["...)
			for j, e := range x {
				if j > 0 {
					w.buf = append(w.buf, ", "...)
				}
				var err error
				if w.buf, err = appendScalar(w.buf, e); err != nil {
					return err
				}
			}
			w.buf = append(w.buf, "]\n"...)
		default:
			w.buf = append(w.buf, ' ')
			var err error
			if w.buf, err = appendScalar(w.buf, v); err != nil {
				return fmt.Errorf("key %q: %w", k, err)
			}
			w.buf = append(w.buf, '\n')
		}
	}
	w.keys = w.keys[:base]
	return nil
}

func (w *writer) sequence(seq []any, indent int) error {
	for _, e := range seq {
		if _, nested := e.([]any); nested {
			return errors.New("yamlite: nested sequences are not supported")
		}
		w.indent(indent)
		w.buf = append(w.buf, "- "...)
		m, ok := e.(map[string]any)
		if !ok {
			var err error
			if w.buf, err = appendScalar(w.buf, e); err != nil {
				return err
			}
			w.buf = append(w.buf, '\n')
			continue
		}
		// Inline flow mapping per item — the Listing-2 style.
		base := w.sortedKeys(m)
		w.buf = append(w.buf, '{')
		for i, k := range w.keys[base:] {
			if i > 0 {
				w.buf = append(w.buf, ", "...)
			}
			w.buf = appendString(w.buf, k)
			w.buf = append(w.buf, ": "...)
			var err error
			if w.buf, err = appendScalar(w.buf, m[k]); err != nil {
				return err
			}
		}
		w.keys = w.keys[:base]
		w.buf = append(w.buf, "}\n"...)
	}
	return nil
}

func allScalars(seq []any) bool {
	for _, e := range seq {
		switch e.(type) {
		case map[string]any, []any:
			return false
		}
	}
	return true
}

// appendScalar renders a scalar so Parse reads back the same typed value.
func appendScalar(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, "null"...), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case int:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	case float64:
		n := len(b)
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
		// Ensure it re-parses as a float, not an int.
		if !bytes.ContainsAny(b[n:], ".eE") {
			b = append(b, ".0"...)
		}
		return b, nil
	case string:
		if strings.ContainsAny(x, "\n\r") {
			// The format is line-based; multi-line scalars do not exist.
			return b, fmt.Errorf("yamlite: cannot marshal string containing newline")
		}
		return appendString(b, x), nil
	default:
		return b, fmt.Errorf("yamlite: cannot marshal %T", v)
	}
}

// appendString appends s bare, or quoted when a bare s would not read
// back as s.
func appendString(b []byte, s string) []byte {
	if needsQuoting(s) {
		return appendQuoted(b, s)
	}
	return append(b, s...)
}

// appendQuoted appends s single-quoted, every ' in it doubled.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '\'')
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '\'')
		s = s[i+1:]
	}
	b = append(b, s...)
	return append(b, '\'')
}

// needsQuoting reports whether a bare rendering of s would parse back as
// something other than the string s.
func needsQuoting(s string) bool {
	return !plain(s) ||
		strings.ContainsAny(s, ":#{}[],'\"\n") ||
		strings.HasPrefix(s, "- ") || s == "-" ||
		s != strings.TrimSpace(s)
}
