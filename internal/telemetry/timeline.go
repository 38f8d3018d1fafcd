package telemetry

import (
	"bufio"
	"encoding/binary"
	"io"
	"strconv"
)

// WriteTimeline renders h's probe log as Chrome trace-event JSON (the
// JSON Array Format with metadata, as consumed by Perfetto and
// chrome://tracing), reading the log in place. Each distinct track
// becomes one named thread row; instants render as "i" events, spans as
// "X", counter samples as "C" counter tracks.
//
// The writer is hand-rolled rather than encoding/json so the byte
// output is fully specified: field order fixed, timestamps printed as
// integer-nanosecond-derived microseconds with exactly three decimals.
// Identical probe logs serialize to identical bytes — the property the
// determinism acceptance test pins down.
//
// Each record is formatted with plain appends into the writer's own free
// space (bufio's AvailableBuffer) and handed over in one Write, so
// rendering costs no intermediate strings and one method call per event.
func WriteTimeline(w io.Writer, h *Hub) error {
	// A caller that already buffers (WriteArtifacts does) is written to
	// directly: NewWriter hands back a *bufio.Writer it is given.
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")

	// Track rows, in first-appearance order. A site is interned at its
	// first emit, so the sites' order is the order tracks first appear
	// in; each site's row number is rendered here, once.
	t := h.syms
	rows := map[string][]byte{}
	tids := make([][]byte, len(t.sites))
	sep := "" // nothing before the first record, a comma before the rest
	for i := range t.sites {
		track := t.sites[i].track
		tid, ok := rows[track]
		if !ok {
			tid = strconv.AppendInt(nil, int64(len(rows))+1, 10)
			rows[track] = tid
			b := append(recordSpace(bw), sep...)
			sep = ","
			b = append(b, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
			b = append(b, tid...)
			b = append(b, `,"args":{"name":`...)
			b = appendJSONString(b, track)
			bw.Write(append(b, "}}"...))
		}
		tids[i] = tid
	}

	var c cursor
	for e, ok := t.next(&c); ok; e, ok = t.next(&c) {
		b := append(recordSpace(bw), sep...)
		sep = ","
		b = append(b, `{"name":`...)
		s := e.info()
		if s.counter {
			// Counter series are keyed by name across the whole process;
			// prefix the track so each component gets its own series.
			b = append(b, '"')
			b = appendJSONEscaped(b, s.track)
			b = append(b, ' ')
			b = appendJSONEscaped(b, s.name)
			b = append(b, '"')
		} else {
			b = appendJSONString(b, s.name)
		}
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, string(s.kind))
		switch {
		case s.counter:
			b = append(b, `,"ph":"C"`...)
		case e.Dur > 0:
			b = append(b, `,"ph":"X","dur":`...)
			b = appendMicros(b, e.Dur)
		default:
			b = append(b, `,"ph":"i","s":"t"`...)
		}
		b = append(b, `,"ts":`...)
		b = appendMicros(b, e.At)
		b = append(b, `,"pid":1,"tid":`...)
		b = append(b, tids[e.site]...)
		if s.n > 0 {
			b = append(b, `,"args":{`...)
			// The arguments are read in order, each varint once.
			args := t.at(e.args)
			for j := range int(s.n) {
				v, n := binary.Varint(args)
				args = args[n:]
				if j > 0 {
					b = append(b, ',')
				}
				b = appendJSONString(b, s.keys[j])
				b = append(b, ':')
				if s.strs&(1<<j) != 0 {
					b = appendJSONString(b, t.strs[v])
				} else {
					b = strconv.AppendInt(b, v, 10)
				}
			}
			b = append(b, '}')
		}
		bw.Write(append(b, '}'))
	}

	bw.WriteString("],\"displayTimeUnit\":\"ns\"}\n")
	return bw.Flush()
}

// recordSpace returns bw's free space for the next record, flushing first
// when less than a typical record's worth is left; a record that still
// outgrows it merely spills into an allocation of its own.
func recordSpace(bw *bufio.Writer) []byte {
	if bw.Available() < 512 {
		bw.Flush()
	}
	return bw.AvailableBuffer()
}

// appendMicros prints ns as microseconds with exactly three decimals
// ("1234.567") — exact, float-free, and stable.
func appendMicros(b []byte, ns int64) []byte {
	if ns < 0 {
		ns = 0
	}
	frac := ns % 1000
	b = strconv.AppendInt(b, ns/1000, 10)
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// appendJSONString escapes and quotes s per JSON.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	b = appendJSONEscaped(b, s)
	return append(b, '"')
}

// appendJSONEscaped appends s with JSON string escaping, unquoted. Probe
// names are plain ASCII identifiers in practice, appended in one piece;
// the escaper handles the general case.
func appendJSONEscaped(b []byte, s string) []byte {
	plain := 0 // start of the run of bytes needing no escape
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		b = append(b, s[plain:i]...)
		plain = i + 1
		if c < 0x20 {
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		} else {
			b = append(b, '\\', c)
		}
	}
	return append(b, s[plain:]...)
}
