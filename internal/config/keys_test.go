package config

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite README.md's scenario-key reference")

const (
	keysBegin = "<!-- scenario keys: generated; go test ./internal/config -run TestREADMEKeysAreCurrent -update -->\n"
	keysEnd   = "<!-- end scenario keys -->\n"
)

// TestREADMEKeysAreCurrent pins README's scenario-key reference to the
// field table: every key's path, type, Default() value (or its tag
// default, inside a list or the fabric section) and tag bounds.
func TestREADMEKeysAreCurrent(t *testing.T) {
	const path = "../../README.md"
	readme, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(readme, []byte(keysBegin))
	end := bytes.Index(readme, []byte(keysEnd))
	if begin < 0 || end < begin {
		t.Fatalf("README.md lacks the %q ... %q markers", keysBegin, keysEnd)
	}
	var want bytes.Buffer
	want.WriteString("| key | type | default | bound |\n|-----|------|---------|-------|\n")
	def := Default()
	writeKeys(&want, "", reflect.TypeOf(def), []reflect.Value{reflect.ValueOf(&def).Elem()})
	got := readme[begin+len(keysBegin) : end]
	if bytes.Equal(got, want.Bytes()) {
		return
	}
	if !*update {
		t.Fatalf("README.md's scenario-key reference is stale; rerun with -update. got:\n%s\nwant:\n%s", got, want.Bytes())
	}
	out := append(append(append([]byte{}, readme[:begin+len(keysBegin)]...), want.Bytes()...), readme[end:]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeKeys writes one table row per leaf key of typ. vals are the
// Default() values of the sections the rows cover (requester and
// responder share theirs); none inside a list or an absent section.
func writeKeys(w *bytes.Buffer, path string, typ reflect.Type, vals []reflect.Value) {
	fs := fieldsOf(typ)
	for i := 0; i < len(fs); i++ {
		f, ft := fs[i], typ.Field(i).Type
		keys, fvals := []string{f.key}, fieldVals(i, vals)
		for ft.Kind() == reflect.Struct && i+1 < len(fs) && typ.Field(i+1).Type == ft {
			i++
			keys, fvals = append(keys, fs[i].key), append(fvals, fieldVals(i, vals)...)
		}
		key := path + keys[0]
		if len(keys) > 1 {
			key = path + "{" + strings.Join(keys, ",") + "}"
		}
		for ft.Kind() == reflect.Pointer {
			ft, fvals = ft.Elem(), derefAll(fvals)
		}
		switch {
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct && ft.Elem() != addrType:
			writeKeys(w, key+"[].", ft.Elem(), nil)
		case ft.Kind() == reflect.Struct && ft != addrType:
			writeKeys(w, key+".", ft, fvals)
		default:
			fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", key, typeName(ft), defaultText(f, fvals), boundText(f, ft))
		}
	}
}

// fieldVals returns field i of each struct value in vs.
func fieldVals(i int, vs []reflect.Value) []reflect.Value {
	var out []reflect.Value
	for _, v := range vs {
		out = append(out, v.Field(i))
	}
	return out
}

func derefAll(vs []reflect.Value) []reflect.Value {
	var out []reflect.Value
	for _, v := range vs {
		if !v.IsNil() {
			out = append(out, v.Elem())
		}
	}
	return out
}

func typeName(t reflect.Type) string {
	switch {
	case t == addrType:
		return "address"
	case t.Kind() == reflect.Slice:
		return "[" + typeName(t.Elem()) + "]"
	case t.Kind() == reflect.Float64:
		return "float"
	case t.Kind() == reflect.Int64:
		return "int"
	}
	return t.Kind().String()
}

// defaultText renders what a key holds when a document leaves it out:
// its Default() values (joined when a row merges sections), else its
// tag default.
func defaultText(f field, vals []reflect.Value) string {
	var out []string
	for _, v := range vals {
		if s := valueText(v); s != "" && !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	if len(out) == 0 && f.def.IsValid() {
		out = append(out, valueText(f.def))
	}
	if len(out) == 0 {
		return ""
	}
	return "`" + strings.Join(out, "` / `") + "`"
}

func valueText(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Slice:
		var parts []string
		for i := 0; i < v.Len(); i++ {
			parts = append(parts, valueText(v.Index(i)))
		}
		return strings.Join(parts, ", ")
	case reflect.Struct:
		return v.Addr().Interface().(fmt.Stringer).String()
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'f', -1, 64)
	case reflect.Bool:
		return strconv.FormatBool(v.Bool())
	}
	return fmt.Sprint(v.Interface())
}

// boundText renders a key's min=, max= and oneof= options.
func boundText(f field, t reflect.Type) string {
	num := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
	var b string
	switch lo, hi := !math.IsInf(f.min, -1), !math.IsInf(f.max, 1); {
	case lo && hi:
		b = num(f.min) + " … " + num(f.max)
	case lo:
		b = "≥ " + num(f.min)
	case hi:
		b = "≤ " + num(f.max)
	case f.oneof != nil:
		return strings.Join(f.oneof, ", ")
	default:
		return ""
	}
	switch {
	case t.Kind() == reflect.Slice && (t.Elem().Kind() == reflect.Int || t.Elem().Kind() == reflect.Float64):
		return "each " + b
	case t.Kind() == reflect.Slice:
		return b + " entries"
	}
	return b
}
