package telemetry

import (
	"bufio"
	"io"
	"strconv"
)

// WriteTimeline renders a probe stream as Chrome trace-event JSON (the
// JSON Array Format with metadata, as consumed by Perfetto and
// chrome://tracing). Each distinct Event.Track becomes one named thread
// row; instants render as "i" events, spans as "X", counter samples as
// "C" counter tracks.
//
// The writer is hand-rolled rather than encoding/json so the byte
// output is fully specified: field order fixed, timestamps printed as
// integer-nanosecond-derived microseconds with exactly three decimals.
// Identical event streams serialize to identical bytes — the property
// the determinism acceptance test pins down.
//
// Each record is formatted with plain appends into the writer's own free
// space (bufio's AvailableBuffer) and handed over in one Write, so
// rendering costs no intermediate strings and one method call per event.
func WriteTimeline(w io.Writer, events []Event) error {
	// A caller that already buffers (WriteArtifacts does) is written to
	// directly: NewWriter hands back a *bufio.Writer it is given.
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[")

	// Track rows, in first-appearance order. Each event's row is looked
	// up here, once, and each row's number rendered once.
	rows := map[string]int32{}
	rowOf := make([]int32, len(events))
	var tids [][]byte
	sep := "" // nothing before the first record, a comma before the rest
	for i := range events {
		t := events[i].Track
		row, ok := rows[t]
		if !ok {
			row = int32(len(tids))
			rows[t] = row
			tids = append(tids, strconv.AppendInt(nil, int64(row)+1, 10))
			b := append(recordSpace(bw), sep...)
			sep = ","
			b = append(b, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
			b = append(b, tids[row]...)
			b = append(b, `,"args":{"name":`...)
			b = appendJSONString(b, t)
			bw.Write(append(b, "}}"...))
		}
		rowOf[i] = row
	}

	for i := range events {
		e := &events[i]
		b := append(recordSpace(bw), sep...)
		sep = ","
		b = append(b, `{"name":`...)
		if e.Counter {
			// Counter series are keyed by name across the whole process;
			// prefix the track so each component gets its own series.
			b = append(b, '"')
			b = appendJSONEscaped(b, e.Track)
			b = append(b, ' ')
			b = appendJSONEscaped(b, e.Name)
			b = append(b, '"')
		} else {
			b = appendJSONString(b, e.Name)
		}
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, string(e.Kind))
		switch {
		case e.Counter:
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
		b = append(b, tids[rowOf[i]]...)
		if len(e.Args) > 0 {
			b = append(b, `,"args":{`...)
			for j := range e.Args {
				a := &e.Args[j]
				if j > 0 {
					b = append(b, ',')
				}
				b = appendJSONString(b, a.Key)
				b = append(b, ':')
				if a.Str != "" {
					b = appendJSONString(b, a.Str)
				} else {
					b = strconv.AppendInt(b, a.Val, 10)
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
