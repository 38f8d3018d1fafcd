package yamlite

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The reference: Scalar and Marshal as they were before the scalar
// classifier and the append writer, kept verbatim but for the ref
// prefix. The canonical bytes ContentHash digests are whatever these
// write, so the fuzz targets below hold the package's Scalar and Marshal
// to them value for value and byte for byte.

func refScalar(s string) any {
	switch s {
	case "", "~", "null", "Null", "NULL":
		return nil
	case "true", "True", "TRUE", "yes", "Yes", "on", "On":
		return true
	case "false", "False", "FALSE", "no", "No", "off", "Off":
		return false
	}
	if q := refUnquoteIfQuoted(s); q != nil {
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

func refUnquoteIfQuoted(s string) *string {
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

func refMarshal(v any) ([]byte, error) {
	var b strings.Builder
	switch x := v.(type) {
	case map[string]any:
		if err := refWriteMap(&b, x, 0); err != nil {
			return nil, err
		}
	case nil:
		// empty document
	default:
		return nil, fmt.Errorf("yamlite: document root must be a mapping, got %T", v)
	}
	return []byte(b.String()), nil
}

func refWriteMap(b *strings.Builder, m map[string]any, indent int) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pad := strings.Repeat(" ", indent)
	for _, k := range keys {
		v := m[k]
		switch x := v.(type) {
		case map[string]any:
			if len(x) == 0 {
				fmt.Fprintf(b, "%s%s: {}\n", pad, refQuoteKey(k))
				continue
			}
			fmt.Fprintf(b, "%s%s:\n", pad, refQuoteKey(k))
			if err := refWriteMap(b, x, indent+2); err != nil {
				return err
			}
		case []any:
			if len(x) == 0 {
				fmt.Fprintf(b, "%s%s: []\n", pad, refQuoteKey(k))
				continue
			}
			if refAllScalars(x) {
				parts := make([]string, len(x))
				for i, e := range x {
					s, err := refScalarString(e)
					if err != nil {
						return err
					}
					parts[i] = s
				}
				fmt.Fprintf(b, "%s%s: [%s]\n", pad, refQuoteKey(k), strings.Join(parts, ", "))
				continue
			}
			fmt.Fprintf(b, "%s%s:\n", pad, refQuoteKey(k))
			if err := refWriteSeq(b, x, indent+2); err != nil {
				return err
			}
		default:
			s, err := refScalarString(v)
			if err != nil {
				return fmt.Errorf("key %q: %w", k, err)
			}
			fmt.Fprintf(b, "%s%s: %s\n", pad, refQuoteKey(k), s)
		}
	}
	return nil
}

func refWriteSeq(b *strings.Builder, seq []any, indent int) error {
	pad := strings.Repeat(" ", indent)
	for _, e := range seq {
		switch x := e.(type) {
		case map[string]any:
			// Inline flow mapping per item — the Listing-2 style.
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				s, err := refScalarString(x[k])
				if err != nil {
					return err
				}
				parts = append(parts, fmt.Sprintf("%s: %s", refQuoteKey(k), s))
			}
			fmt.Fprintf(b, "%s- {%s}\n", pad, strings.Join(parts, ", "))
		case []any:
			return fmt.Errorf("yamlite: nested sequences are not supported")
		default:
			s, err := refScalarString(e)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "%s- %s\n", pad, s)
		}
	}
	return nil
}

func refAllScalars(seq []any) bool {
	for _, e := range seq {
		switch e.(type) {
		case map[string]any, []any:
			return false
		}
	}
	return true
}

// refScalarString renders a scalar so Parse reads back the same typed value.
func refScalarString(v any) (string, error) {
	switch x := v.(type) {
	case nil:
		return "null", nil
	case bool:
		if x {
			return "true", nil
		}
		return "false", nil
	case int:
		return strconv.Itoa(x), nil
	case int64:
		return strconv.FormatInt(x, 10), nil
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		// Ensure it re-parses as a float, not an int.
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s, nil
	case string:
		if strings.ContainsAny(x, "\n\r") {
			// The format is line-based; multi-line scalars do not exist.
			return "", fmt.Errorf("yamlite: cannot marshal string containing newline")
		}
		if refNeedsQuoting(x) {
			return "'" + strings.ReplaceAll(x, "'", "''") + "'", nil
		}
		return x, nil
	default:
		return "", fmt.Errorf("yamlite: cannot marshal %T", v)
	}
}

// refNeedsQuoting reports whether a bare rendering of s would parse back as
// something other than the string s.
func refNeedsQuoting(s string) bool {
	if s == "" {
		return true
	}
	if got, isStr := refScalar(s).(string); !isStr || got != s {
		return true
	}
	return strings.ContainsAny(s, ":#{}[],'\"\n") ||
		strings.HasPrefix(s, "- ") || s == "-" ||
		s != strings.TrimSpace(s)
}

func refQuoteKey(k string) string {
	if refNeedsQuoting(k) {
		return "'" + strings.ReplaceAll(k, "'", "''") + "'"
	}
	return k
}

// scalarSeeds are tokens at the edges of the scalar grammar: the special
// floats with and without signs, hex integers and hex floats, Go-style
// digit separators, lone signs and dots, an address that is no number,
// the boolean and null words, quoting and leading blanks.
var scalarSeeds = []string{
	"inf", "+Infinity", "-nan", "NaN", "0x1p-2", "0X1F", "1_000", "+", "-", ".",
	".5", "1e5", "10.0.0.1", "yes", "'a'", "- x", " x",
	"-Inf", "infinit", "nan", "0x", "0x-1f", "0x1_f", "0x1.8p1", "5.", "1e", "1e+",
	"9223372036854775808", "-9223372036854775809", "1e400", "1e-400", "0xffffffffffffffff",
	"1__0", "_1", "1_", "1_000.5e1_0", "~", "null", "Off", `"a\"b"`, "''", "requester",
	"cx4", "-1", "+0", "007", "3.0", "-0.0", "1E5", "0x1P+2", "0b101", "0o17",
}

// sameScalar reports whether a and b are the same typed value; floats
// compare by their bits, so NaN equals NaN and 0 differs from -0.
func sameScalar(a, b any) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok || bok {
		return aok && bok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// FuzzScalarMatchesReference holds Scalar to the reference's typed value
// and needsQuoting to the reference's verdict on every token.
func FuzzScalarMatchesReference(f *testing.F) {
	for _, s := range scalarSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Scalar(s), refScalar(s); !sameScalar(got, want) {
			t.Fatalf("Scalar(%q) = %#v (%T), reference %#v (%T)", s, got, got, want, want)
		}
		if got, want := needsQuoting(s), refNeedsQuoting(s); got != want {
			t.Fatalf("needsQuoting(%q) = %v, reference %v", s, got, want)
		}
	})
}

// treeReader builds a document tree from fuzz bytes: every shape Marshal
// writes (maps, flow and block lists, flow mappings in lists), every
// scalar type it takes, and the ones it refuses (a nested list, a map
// inside a flow mapping, an unsupported type). Exhausted input reads as
// zero bytes, so any input builds a finite tree.
type treeReader struct{ b []byte }

func (r *treeReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *treeReader) uint64() uint64 {
	var w [8]byte
	n := copy(w[:], r.b)
	r.b = r.b[n:]
	return binary.LittleEndian.Uint64(w[:])
}

// str is either a scalar seed or a run of raw input bytes.
func (r *treeReader) str() string {
	c := r.byte()
	if c&1 == 0 {
		return scalarSeeds[int(c>>1)%len(scalarSeeds)]
	}
	n := min(int(c>>1)%16, len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *treeReader) mapping(depth int) map[string]any {
	m := map[string]any{}
	for range int(r.byte() % 6) {
		m[r.str()] = r.value(depth + 1)
	}
	return m
}

func (r *treeReader) value(depth int) any {
	c := r.byte()
	switch c % 12 {
	case 0:
		return nil
	case 1:
		return c&16 != 0
	case 2:
		return int64(r.uint64())
	case 3:
		return int(int32(r.uint64()))
	case 4:
		return math.Float64frombits(r.uint64())
	case 5:
		return float64(int64(r.uint64()) >> (r.byte() % 64))
	case 6, 7:
		return r.str()
	case 8:
		if depth > 3 {
			return map[string]any{}
		}
		return r.mapping(depth)
	case 9:
		if depth > 3 {
			return []any{}
		}
		l := make([]any, int(r.byte()%5))
		for i := range l {
			l[i] = r.value(depth + 1)
		}
		return l
	case 10:
		return uint8(c)
	default:
		return []any{}
	}
}

// FuzzMarshalMatchesReference builds a tree from the input and holds
// Marshal's bytes, and its error when it refuses the tree, to the
// reference's.
func FuzzMarshalMatchesReference(f *testing.F) {
	// Seeds spelled in treeReader's terms: a tag byte per value, a
	// count byte per map or list, word(i) for scalarSeeds[i], raw(s) for
	// a literal string and f64/i64 for 8-byte numbers.
	word := func(i int) string { return string(rune(i << 1)) }
	raw := func(s string) string { return string(rune(len(s)<<1|1)) + s }
	u64 := func(x uint64) string { return string(binary.LittleEndian.AppendUint64(nil, x)) }
	f64 := func(x float64) string { return u64(math.Float64bits(x)) }
	const (
		root, mapping, list = "\x02", "\x08", "\x09"
		null, boolean, i64  = "\x00", "\x01", "\x02"
		float, str, unknown = "\x04", "\x06", "\x0a"
		empty               = "\x0b"
	)
	for _, seed := range []string{
		"",
		// Quoted keys and values, floats that need ".0" and one that
		// does not, flow and block lists, a flow mapping per item.
		root + "\x05" +
			raw("a'b") + str + raw("it's") +
			raw("fl") + float + f64(3) +
			raw("evt") + list + "\x02" +
			mapping + "\x02" + raw("qp") + i64 + u64(1) + word(0) + str + word(1) +
			float + f64(-0.5) +
			raw("list") + list + "\x03" + float + f64(1<<40) + str + word(11) + boolean +
			raw("nested") + mapping + "\x02" + word(14) + null + word(16) + empty,
		// Floats with no '.' of their own, a negative int.
		root + "\x04" + raw("a") + float + f64(1e21) + raw("b") + float + f64(math.Inf(1)) +
			raw("c") + float + f64(math.NaN()) + raw("d") + "\x03" + u64(1<<32-7),
		// Refusals: a nested list, an unsupported type, a list root.
		root + "\x02" + raw("k") + list + "\x01" + list + "\x01" + null + raw("z") + unknown,
		root + "\x01" + raw("u") + unknown,
		"\x01" + list + "\x01" + str + word(2),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &treeReader{b: data}
		var doc any
		switch r.byte() % 8 {
		case 0:
			doc = nil
		case 1:
			doc = r.value(0)
		default:
			doc = r.mapping(0)
		}
		got, gotErr := Marshal(doc)
		want, wantErr := refMarshal(doc)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Marshal error %v, reference %v, for %#v", gotErr, wantErr, doc)
		}
		if string(got) != string(want) {
			t.Fatalf("Marshal wrote\n%s\nreference\n%s\nfor %#v", got, want, doc)
		}
	})
}
