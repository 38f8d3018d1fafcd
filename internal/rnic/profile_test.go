package rnic

import (
	"reflect"
	"strings"
	"testing"
)

// TestProfileByNameBuildsOneFreshProfile: a lookup returns the profile
// Profiles() holds for the name, costs the allocation of that profile
// alone, and hands out a value no other caller shares — mutating its
// AdaptiveTimeouts reaches neither a later lookup nor a later table.
func TestProfileByNameBuildsOneFreshProfile(t *testing.T) {
	table := Profiles()
	if len(table) != len(ModelNames()) {
		t.Fatalf("Profiles() holds %d models, want %d", len(table), len(ModelNames()))
	}
	for _, name := range ModelNames() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, table[name]) {
			t.Errorf("ProfileByName(%q) differs from Profiles()[%q]", name, name)
		}
		if allocs := testing.AllocsPerRun(20, func() { ProfileByName(name) }); allocs > 1 {
			t.Errorf("ProfileByName(%q) makes %.0f allocations, want at most 1 (its timeout schedule)", name, allocs)
		}
	}

	p, _ := ProfileByName(ModelCX6)
	want := append([]int64(nil), durations(p)...)
	p.AdaptiveTimeouts[0] = 1
	table[ModelCX6].AdaptiveTimeouts[1] = 1
	again, _ := ProfileByName(ModelCX6)
	if got := durations(again); !reflect.DeepEqual(got, want) {
		t.Errorf("a caller's edit reached a later lookup: %v, want %v", got, want)
	}
	if got := durations(Profiles()[ModelCX6]); !reflect.DeepEqual(got, want) {
		t.Errorf("a caller's edit reached a later table: %v, want %v", got, want)
	}

	if _, err := ProfileByName("cx7"); err == nil || !strings.Contains(err.Error(), strings.Join([]string{ModelCX4, ModelCX5}, ", ")) {
		t.Errorf("unknown model error = %v, want one listing the known models", err)
	}
}

func durations(p Profile) []int64 {
	out := make([]int64, len(p.AdaptiveTimeouts))
	for i, d := range p.AdaptiveTimeouts {
		out[i] = int64(d)
	}
	return out
}
