package main

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"slices"
	"strconv"
	"strings"
)

// modulePath prefixes the function names of this module's code; layers
// are attributed by source file, and the module's root directory is
// found from these names.
const modulePath = "github.com/lumina-sim/lumina"

// frame is one function of a location: a location lists its inline
// chain innermost first.
type frame struct {
	fn, file string
}

// rawSample is one sample: its values, one per value type, and its
// stack as location IDs, leaf first.
type rawSample struct {
	values []int64
	stack  []int
}

// rawProfile is what `go tool pprof -raw` prints of a profile.
type rawProfile struct {
	types   []string // "cpu/nanoseconds", "alloc_space/bytes", ...
	samples []rawSample
	locs    map[int][]frame
}

// parseRaw reads the text `go tool pprof -raw` prints: a header, the
// "Samples:" section (a line of value types, then one line per sample,
// "v1 v2 ...: id id ...", possibly followed by label lines), the
// "Locations" section ("id: 0xaddr M=n fn file:line:col s=n", an
// inlined caller on each indented line that follows) and the mappings.
func parseRaw(text string) (*rawProfile, error) {
	p := &rawProfile{locs: map[int][]frame{}}
	section, loc := "", 0
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "":
			continue
		case trimmed == "Samples:" || trimmed == "Locations" || trimmed == "Mappings":
			section = trimmed
			continue
		}
		switch section {
		case "Samples:":
			if p.types == nil {
				for _, t := range strings.Fields(trimmed) {
					p.types = append(p.types, strings.TrimSuffix(t, "[dflt]"))
				}
				continue
			}
			vals, ids, ok := strings.Cut(trimmed, ":")
			s := rawSample{}
			for _, f := range strings.Fields(vals) {
				v, err := strconv.ParseInt(f, 10, 64)
				if err != nil {
					ok = false
					break
				}
				s.values = append(s.values, v)
			}
			if !ok || len(s.values) != len(p.types) {
				continue // a label line, such as "bytes:[2048]"
			}
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("sample %q: location %q", trimmed, f)
				}
				s.stack = append(s.stack, id)
			}
			p.samples = append(p.samples, s)
		case "Locations":
			if id, rest, ok := strings.Cut(trimmed, ": 0x"); ok && isDigits(id) {
				loc, _ = strconv.Atoi(id)
				p.locs[loc] = nil
				// Drop the address and the mapping, "M=n"; a location
				// without symbols has nothing after them.
				fields := strings.Fields(rest)
				if len(fields) <= 2 {
					continue
				}
				trimmed = strings.Join(fields[2:], " ")
			}
			f, ok := parseFrame(trimmed)
			if !ok {
				return nil, fmt.Errorf("location %d: frame %q", loc, trimmed)
			}
			p.locs[loc] = append(p.locs[loc], f)
		}
	}
	if p.types == nil {
		return nil, errors.New("no Samples section")
	}
	return p, nil
}

func isDigits(s string) bool {
	return s != "" && strings.Trim(s, "0123456789") == ""
}

// parseFrame splits "fn file:line:col s=n" into the function and file.
func parseFrame(s string) (frame, bool) {
	if i := strings.LastIndex(s, " s="); i >= 0 {
		s = s[:i]
	}
	i := strings.LastIndex(s, " ")
	if i < 0 {
		return frame{}, false
	}
	file := s[i+1:]
	for range 2 { // ":line:col"
		j := strings.LastIndex(file, ":")
		if j < 0 {
			return frame{}, false
		}
		file = file[:j]
	}
	return frame{fn: s[:i], file: file}, true
}

// fold is a profile's cost per layer: the value its samples carry of
// one type, summed by the layer each sample is charged to.
type fold struct {
	kind    string // the value type folded
	samples int
	total   float64
	layers  map[string]float64
}

// foldTypes are the value types a fold reads, first match wins: a CPU
// profile's time, a heap profile's allocated bytes.
var foldTypes = []string{"cpu/nanoseconds", "alloc_space/bytes"}

// foldProfile charges each sample to the innermost frame whose source
// file lies under the module's internal/<pkg>/ (layer <pkg>) or cmd/
// (layer cmd); runtime frames beneath it count for that layer. A sample
// with no such frame is "(gc)" when a garbage-collector function is on
// its stack and "(other)" otherwise. Files, not function names, decide:
// an inlined closure carries its enclosing function's name.
func foldProfile(p *rawProfile) (*fold, error) {
	col := -1
	for _, t := range foldTypes {
		if col = slices.Index(p.types, t); col >= 0 {
			break
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("value types %v hold none of %v", p.types, foldTypes)
	}
	root := moduleRoot(p)
	f := &fold{kind: p.types[col], layers: map[string]float64{}}
	for _, s := range p.samples {
		v := float64(s.values[col])
		if v == 0 {
			continue
		}
		f.samples++
		f.total += v
		f.layers[sampleLayer(p, s, root)] += v
	}
	return f, nil
}

// moduleRoot is the directory the module's files lie in, "" when no
// frame is the module's: the file directory of a module function, less
// the function's package path within the module.
func moduleRoot(p *rawProfile) string {
	for _, frames := range p.locs {
		for _, f := range frames {
			rel, ok := strings.CutPrefix(f.fn, modulePath+"/")
			if !ok {
				continue
			}
			pkg, _, _ := strings.Cut(rel, ".")
			if dir := path.Dir(f.file); strings.HasSuffix(dir, "/"+pkg) {
				return strings.TrimSuffix(dir, pkg)
			}
		}
	}
	return ""
}

// sampleLayer names the layer a sample is charged to.
func sampleLayer(p *rawProfile, s rawSample, root string) string {
	gc := false
	for _, id := range s.stack {
		for _, f := range p.locs[id] {
			if l := fileLayer(f.file, root); l != "" {
				return l
			}
			gc = gc || strings.HasPrefix(f.fn, "runtime.gc") || strings.HasPrefix(f.fn, "runtime.bgsweep") ||
				strings.HasPrefix(f.fn, "runtime.bgscavenge")
		}
	}
	if gc {
		return "(gc)"
	}
	return "(other)"
}

// fileLayer is the layer of a source file: <pkg> under root's
// internal/<pkg>/, cmd under root's cmd/, "" elsewhere.
func fileLayer(file, root string) string {
	rel, ok := strings.CutPrefix(file, root)
	if root == "" || !ok {
		return ""
	}
	if rest, ok := strings.CutPrefix(rel, "internal/"); ok {
		if pkg, _, ok := strings.Cut(rest, "/"); ok {
			return pkg
		}
	}
	if strings.HasPrefix(rel, "cmd/") {
		return "cmd"
	}
	return ""
}

// readProfile folds the profile at file, as `go tool pprof -raw`
// prints it.
func readProfile(file string) (*fold, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", file)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw %s: %w", file, err)
	}
	p, err := parseRaw(string(out))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return foldProfile(p)
}

// perPacket divides every layer by packets and rounds it.
func (f *fold) perPacket(packets int) map[string]float64 {
	out := make(map[string]float64, len(f.layers))
	for l, v := range f.layers {
		out[l] = round(v / float64(packets))
	}
	return out
}

// print writes the fold as a table, largest layer first: the value per
// packet (or in total, when packets is 0) and its share.
func (f *fold) print(w io.Writer, name string, packets int) {
	unit := "total"
	if packets > 0 {
		unit = "per packet"
	}
	fmt.Fprintf(w, "%s: %s %s, %d samples\n", name, f.kind, unit, f.samples)
	names := make([]string, 0, len(f.layers))
	for l := range f.layers {
		names = append(names, l)
	}
	slices.SortFunc(names, func(a, b string) int {
		if c := cmp.Compare(f.layers[b], f.layers[a]); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	for _, l := range names {
		v := f.layers[l]
		if packets > 0 {
			v /= float64(packets)
		}
		fmt.Fprintf(w, "  %-14s %14.3f  %5.1f %%\n", l, v, 100*f.layers[l]/f.total)
	}
}
