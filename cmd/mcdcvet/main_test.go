package main

import (
	"os"
	"testing"

	"mcdc/internal/analysis/registry"
)

// TestRegistersAllAnalyzers pins the suite's roster: the five analyzers that
// mechanize the ROADMAP standing constraints must all be registered, so a
// refactor that drops one out of the binary fails here, not in review.
func TestRegistersAllAnalyzers(t *testing.T) {
	want := []string{
		"bodydrain",
		"detrand",
		"errenvelope",
		"lockorder",
		"sloglint",
	}
	got := make(map[string]bool)
	for _, a := range registry.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc, or run function", a.Name)
		}
		if got[a.Name] {
			t.Errorf("analyzer %q registered twice", a.Name)
		}
		got[a.Name] = true
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("analyzer %q is not registered in registry.All", name)
		}
	}
	if len(got) != len(want) {
		t.Errorf("registry has %d analyzers, want %d (update this test when the suite grows)", len(got), len(want))
	}
}

// TestRunList smokes the -list path through the real main entry.
func TestRunList(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no %s: %v", os.DevNull, err)
	}
	defer null.Close()
	if code := run([]string{"-list"}, null, null); code != 0 {
		t.Fatalf("mcdcvet -list exited %d, want 0", code)
	}
	if code := run([]string{"-run", "nosuch", "-list"}, null, null); code != 0 {
		t.Fatalf("mcdcvet -run nosuch -list exited %d, want 0 (-list short-circuits)", code)
	}
}
