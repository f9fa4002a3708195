package main

import "testing"

// TestMatchesAny pins the package patterns: "./..." and no argument (which
// means "./...") select every file of the module, so the CI gate sees every
// finding.
func TestMatchesAny(t *testing.T) {
	root := "/m"
	for _, c := range []struct {
		file string
		pats []string
		want bool
	}{
		{"/m/internal/nfa/nfa.go", []string{"./..."}, true},
		{"/m/sunder.go", []string{"./..."}, true},
		{"/m/internal/nfa/nfa.go", []string{"./internal/..."}, true},
		{"/m/internal/nfa/nfa.go", []string{"./internal/nfa"}, true},
		{"/m/internal/nfa/nfa.go", []string{"./internal/core/..."}, false},
		{"/m/internal/nfa/nfa.go", []string{"./internal"}, false},
		{"/m/sunder.go", []string{"."}, true},
	} {
		if got := matchesAny(root, c.file, c.pats); got != c.want {
			t.Errorf("matchesAny(%q, %v) = %v, want %v", c.file, c.pats, got, c.want)
		}
	}
}
