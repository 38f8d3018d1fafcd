package config

import (
	"fmt"
	"math"
	"net/netip"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/lumina-sim/lumina/internal/yamlite"
)

// The scenario codec. Each Test field's json tag is its one declaration:
// decode reads a yamlite tree into a Test by those names and encode
// writes a Test back out as one, so Parse and MarshalYAML cannot drift
// apart. The rules:
//   - the YAML key is the json name, and an unknown key is an error;
//   - an absent (or null) key keeps its default, and a list replaces
//     the default wholesale;
//   - encode leaves out a scalar tagged omitempty when it is zero, and
//     an empty list always;
//   - ints are int64, floats float64 (an integer widens), and a
//     netip.Addr is its string form, read with or without a CIDR suffix.
//
// A field's `lumina` tag declares what the key may hold, and check, the
// first step of Validate, enforces it:
//   - default=v replaces a non-positive number or an empty string;
//   - min=x and max=x bound a number, each entry of a list of numbers,
//     and the length of any other list;
//   - oneof=a b c lists the values a string may take.
//
// A float must also be finite.

// Load reads a yamlite test configuration from a file.
func Load(path string) (Test, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Test{}, err
	}
	return Parse(data)
}

// Parse decodes and validates a yamlite test configuration. Missing
// sections inherit Default() values.
func Parse(data []byte) (Test, error) {
	root, err := yamlite.ParseMap(data)
	if err != nil {
		return Test{}, err
	}
	t := defaults()
	if err := decode(reflect.ValueOf(&t).Elem(), root); err != nil {
		return Test{}, err
	}
	if err := t.Validate(); err != nil {
		return Test{}, err
	}
	return t, nil
}

// MarshalYAML renders the configuration in the yamlite format Load/Parse
// read — so the fuzzer's anomalous configurations, or any
// programmatically built test, can be saved and replayed with
// `lumina run`. It is the canonical form ContentHash digests.
func (t Test) MarshalYAML() ([]byte, error) {
	doc, _ := encode(reflect.ValueOf(&t).Elem())
	return yamlite.Marshal(doc)
}

// field is one struct field as the codec sees it; a struct type's fields
// are listed in declaration order.
type field struct {
	key       string
	omitEmpty bool
	def       reflect.Value // the default, of the field's type; invalid when none
	min, max  float64       // ±Inf when unbounded
	oneof     []string
}

// fieldTables caches each struct type's fields: reading the tags on
// every call would make Parse and ContentHash markedly slower.
var fieldTables sync.Map // reflect.Type → []field

func fieldsOf(t reflect.Type) []field {
	if fs, ok := fieldTables.Load(t); ok {
		return fs.([]field)
	}
	fs := make([]field, t.NumField())
	for i := range fs {
		sf := t.Field(i)
		key, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		f := field{key: key, omitEmpty: opts == "omitempty", min: math.Inf(-1), max: math.Inf(1)}
		for _, opt := range strings.Split(sf.Tag.Get("lumina"), ",") {
			name, val, _ := strings.Cut(opt, "=")
			var err error
			switch name {
			case "default":
				f.def = reflect.New(sf.Type).Elem()
				err = decode(f.def, yamlite.Scalar(val))
			case "min":
				f.min, err = strconv.ParseFloat(val, 64)
			case "max":
				f.max, err = strconv.ParseFloat(val, 64)
			case "oneof":
				f.oneof = strings.Fields(val)
			}
			if err != nil {
				// invariant: tags are literals in this package, and TestREADMEKeysAreCurrent parses every one.
				panic(fmt.Sprintf("config: %s.%s: lumina tag %q: %v", t.Name(), sf.Name, opt, err))
			}
		}
		fs[i] = f
	}
	fieldTables.Store(t, fs)
	return fs
}

var addrType = reflect.TypeFor[netip.Addr]()

// decodeError is a decode failure. Its path grows one key or index at a
// time as the walk unwinds, so a successful decode builds no path.
type decodeError struct{ path, msg string }

func (e *decodeError) Error() string {
	if e.path == "" {
		return "config: " + e.msg
	}
	return "config: " + e.path + ": " + e.msg
}

func failf(format string, args ...any) error {
	return &decodeError{msg: fmt.Sprintf(format, args...)}
}

func want(kind string, raw any) error { return failf("want %s, got %T", kind, raw) }

// under prefixes a decode error's path with seg, a key or "[i]".
func under(seg string, err error) error {
	e := err.(*decodeError)
	if e.path != "" && e.path[0] != '[' {
		seg += "."
	}
	e.path = seg + e.path
	return err
}

// decode reads raw, a yamlite value, into v.
func decode(v reflect.Value, raw any) error {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == addrType {
			s, ok := raw.(string)
			if !ok {
				return want("IP address", raw)
			}
			a, err := parseAddr(s)
			if err != nil {
				return failf("%v", err)
			}
			*v.Addr().Interface().(*netip.Addr) = a
			return nil
		}
		m, ok := raw.(map[string]any)
		if !ok {
			return want("mapping", raw)
		}
		return decodeStruct(v, m)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		if raw == nil {
			return nil // a bare `fabric:` turns on the defaults
		}
		return decode(v.Elem(), raw)
	case reflect.Slice:
		l, ok := raw.([]any)
		if !ok {
			return want("sequence", raw)
		}
		if len(l) == 0 {
			v.SetZero()
			return nil
		}
		s := reflect.MakeSlice(v.Type(), len(l), len(l))
		for i, e := range l {
			if err := decode(s.Index(i), e); err != nil {
				return under(fmt.Sprintf("[%d]", i), err)
			}
		}
		v.Set(s)
	case reflect.String:
		s, ok := raw.(string)
		if !ok {
			return want("string", raw)
		}
		v.SetString(s)
	case reflect.Bool:
		b, ok := raw.(bool)
		if !ok {
			return want("boolean", raw)
		}
		v.SetBool(b)
	case reflect.Int, reflect.Int64:
		i, ok := raw.(int64)
		if !ok {
			return want("integer", raw)
		}
		if v.OverflowInt(i) {
			return failf("%d overflows %s", i, v.Type())
		}
		v.SetInt(i)
	case reflect.Float64:
		switch x := raw.(type) {
		case float64:
			v.SetFloat(x)
		case int64:
			v.SetFloat(float64(x))
		default:
			return want("number", raw)
		}
	default:
		return failf("cannot decode into %s", v.Type())
	}
	return nil
}

func decodeStruct(v reflect.Value, m map[string]any) error {
	fs := fieldsOf(v.Type())
	seen := 0
	for i, f := range fs {
		raw, ok := m[f.key]
		if !ok {
			continue
		}
		seen++
		fv := v.Field(i)
		if raw == nil && fv.Kind() != reflect.Pointer {
			continue // null keeps the default, as an absent key does
		}
		if err := decode(fv, raw); err != nil {
			return under(f.key, err)
		}
	}
	if seen == len(m) {
		return nil
	}
	var unknown []string
	for k := range m {
		if !slices.ContainsFunc(fs, func(f field) bool { return f.key == k }) {
			unknown = append(unknown, k)
		}
	}
	return failf("unknown key %q", slices.Min(unknown))
}

// check fills the defaults of v, a struct, and holds every field to its
// lumina tag. It allocates only to report a failure.
func check(v reflect.Value) error {
	fs := fieldsOf(v.Type())
	for i := range fs {
		if err := fs[i].check(v.Field(i)); err != nil {
			return under(fs[i].key, err)
		}
	}
	return nil
}

func (f *field) check(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() != addrType {
			return check(v)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			return check(v.Elem())
		}
	case reflect.Slice:
		if k := v.Type().Elem().Kind(); k != reflect.Int && k != reflect.Float64 {
			if msg := f.bound(float64(v.Len())); msg != "" {
				return failf("%d entries %s", v.Len(), msg)
			}
		}
		for i := 0; i < v.Len(); i++ {
			if err := f.check(v.Index(i)); err != nil {
				return under(fmt.Sprintf("[%d]", i), err)
			}
		}
	case reflect.String:
		if v.Len() == 0 && f.def.IsValid() {
			v.SetString(f.def.String())
		}
		if f.oneof != nil && !slices.Contains(f.oneof, v.String()) {
			return failf("%q is not one of %s", v.String(), strings.Join(f.oneof, ", "))
		}
	case reflect.Int, reflect.Int64:
		if v.Int() <= 0 && f.def.IsValid() {
			v.SetInt(f.def.Int())
		}
		if msg := f.bound(float64(v.Int())); msg != "" {
			return failf("%d %s", v.Int(), msg)
		}
	case reflect.Float64:
		if math.IsNaN(v.Float()) || math.IsInf(v.Float(), 0) {
			return failf("%v is not a finite number", v.Float())
		}
		if v.Float() <= 0 && f.def.IsValid() {
			v.SetFloat(f.def.Float())
		}
		if msg := f.bound(v.Float()); msg != "" {
			return failf("%v %s", v.Float(), msg)
		}
	}
	return nil
}

// bound says how x falls outside the field's min and max, or returns ""
// when it does not.
func (f *field) bound(x float64) string {
	switch {
	case x < f.min:
		return "is below the minimum of " + strconv.FormatFloat(f.min, 'f', -1, 64)
	case x > f.max:
		return "exceeds the maximum of " + strconv.FormatFloat(f.max, 'f', -1, 64)
	}
	return ""
}

// parseAddr reads an address, bare or in Listing 1's CIDR form.
func parseAddr(s string) (netip.Addr, error) {
	if strings.Contains(s, "/") {
		p, err := netip.ParsePrefix(s)
		return p.Addr(), err
	}
	return netip.ParseAddr(s)
}

// encode renders v, which must be addressable, as the tree
// yamlite.Marshal writes. ok is false for what the document leaves out:
// a nil pointer or an empty list.
func encode(v reflect.Value) (x any, ok bool) {
	switch v.Kind() {
	case reflect.Struct:
		if v.Type() == addrType {
			return v.Addr().Interface().(*netip.Addr).String(), true
		}
		fs := fieldsOf(v.Type())
		m := make(map[string]any, len(fs))
		for i, f := range fs {
			fv := v.Field(i)
			if f.omitEmpty && fv.IsZero() {
				continue
			}
			if x, ok := encode(fv); ok {
				m[f.key] = x
			}
		}
		return m, true
	case reflect.Pointer:
		if v.IsNil() {
			return nil, false
		}
		return encode(v.Elem())
	case reflect.Slice:
		if v.Len() == 0 {
			return nil, false
		}
		l := make([]any, v.Len())
		for i := range l {
			l[i], _ = encode(v.Index(i))
		}
		return l, true
	case reflect.String:
		return v.String(), true
	case reflect.Bool:
		return v.Bool(), true
	case reflect.Int, reflect.Int64:
		return v.Int(), true
	case reflect.Float64:
		return v.Float(), true
	}
	return v.Interface(), true // yamlite.Marshal refuses the type by name
}
