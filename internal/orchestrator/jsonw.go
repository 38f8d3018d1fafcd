package orchestrator

import (
	"bufio"
	"io"
	"strconv"
	"unicode/utf8"

	"github.com/lumina-sim/lumina/internal/analyzer"
)

// jsonw appends indented JSON straight into a buffered writer, byte for
// byte what writeJSON renders of the same value: json.MarshalIndent
// with prefix "" and indent "  ", encoding/json's string escaping, a
// newline at the end. summary.json and int.json are written through it
// from the report, so writing them builds no intermediate value and
// calls no encoder. Numbers and strings are appended to the writer's
// AvailableBuffer, so a field costs no allocation.
type jsonw struct {
	w     *bufio.Writer
	depth int
	// first is set while the innermost open object or array has no
	// member yet.
	first bool
}

// newJSONW starts a document on w — w itself when it is a
// *bufio.Writer, as WriteArtifacts hands every renderer, else a small
// buffer in front of it (a digest's hash, a test's bytes.Buffer).
func newJSONW(w io.Writer) jsonw {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(w, 512)
	}
	return jsonw{w: bw}
}

// end finishes the document with a newline and flushes it, returning
// the first write error.
func (j *jsonw) end() error {
	j.w.WriteByte('\n')
	return j.w.Flush()
}

// room returns the writer's free buffer with at least n bytes of room,
// flushing first when it has less: what is appended to it goes out with
// one Write of the result.
func (j *jsonw) room(n int) []byte {
	if j.w.Available() < n {
		j.w.Flush()
	}
	return j.w.AvailableBuffer()
}

func (j *jsonw) open(c byte) {
	j.w.WriteByte(c)
	j.depth++
	j.first = true
}

// close ends the innermost object or array: on the line after its last
// member, or at once when it has none ({} and []).
func (j *jsonw) close(c byte) {
	j.depth--
	if !j.first {
		j.newline()
	}
	j.w.WriteByte(c)
	j.first = false
}

// elem starts the next element of an array.
func (j *jsonw) elem() {
	if !j.first {
		j.w.WriteByte(',')
	}
	j.first = false
	j.newline()
}

// key starts the next member of an object. Keys are the artifacts'
// field names, which need no escaping.
func (j *jsonw) key(k string) {
	j.elem()
	b := append(j.room(len(k)+4), '"')
	b = append(b, k...)
	j.w.Write(append(b, '"', ':', ' '))
}

func (j *jsonw) newline() {
	b := append(j.room(1+2*j.depth), '\n')
	for range j.depth {
		b = append(b, ' ', ' ')
	}
	j.w.Write(b)
}

func (j *jsonw) null() { j.w.WriteString("null") }

func (j *jsonw) str(k, v string) {
	j.key(k)
	writeString(j, v)
}

func (j *jsonw) int(k string, v int64) {
	j.key(k)
	j.w.Write(strconv.AppendInt(j.room(20), v, 10))
}

func (j *jsonw) uint(k string, v uint64) {
	j.key(k)
	j.w.Write(strconv.AppendUint(j.room(20), v, 10))
}

func (j *jsonw) bool(k string, v bool) {
	j.key(k)
	j.w.Write(strconv.AppendBool(j.room(5), v))
}

// verdicts writes the "verdicts" member of a summary or an INT report,
// which both leave out when empty.
func (j *jsonw) verdicts(vs []analyzer.Verdict) {
	if len(vs) == 0 {
		return
	}
	j.key("verdicts")
	j.open('[')
	for i := range vs {
		v := &vs[i]
		j.elem()
		j.open('{')
		j.str("analyzer", v.Analyzer)
		j.bool("pass", v.Pass)
		j.str("reason", v.Reason)
		if len(v.Chains) > 0 {
			j.key("chains")
			j.open('[')
			for _, id := range v.Chains {
				j.elem()
				j.w.Write(strconv.AppendUint(j.room(20), id, 10))
			}
			j.close(']')
		}
		j.close('}')
	}
	j.close(']')
}

// writeString writes s as encoding/json quotes it with HTML escaping
// on, as json.Marshal does: \" \\ \b \f \n \r \t, \u00XX for the other
// control bytes and for < > &, \ufffd for each byte of invalid
// UTF-8, and \u2028 and \u2029 for U+2028 and U+2029. It escapes s in
// pieces that fit the buffer even escaped six bytes for one, each piece
// ending before a byte that starts a rune, so no piece splits a rune.
// (Only within a leading run of continuation bytes, each of which
// escapes alone, may a piece end elsewhere.)
func writeString[T string | []byte](j *jsonw, s T) {
	j.w.WriteByte('"')
	for len(s) > 0 {
		n := min(len(s), j.w.Size()/6)
		for k := n; n < len(s) && k > 0; k-- {
			if utf8.RuneStart(s[k]) {
				n = k
				break
			}
		}
		j.w.Write(appendEscaped(j.room(6*n), s[:n]))
		s = s[n:]
	}
	j.w.WriteByte('"')
}

// appendEscaped appends s escaped, without quotes.
func appendEscaped[T string | []byte](dst []byte, s T) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
