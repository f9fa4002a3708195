// Command sunder-vet lints the repository for Sunder-specific invariants
// that go vet cannot know: determinism of the simulation packages (no
// wall clock, no global randomness), atomic-only access to fields handed
// to sync/atomic, and no writes to the compiled IR or to frozen fields
// outside their owners.
//
// Usage:
//
//	sunder-vet [packages]
//
// Package arguments are ./...-style path patterns relative to the module
// root; with no arguments the whole module is linted. Exits 1 when any
// finding is reported. Built only on go/parser and go/ast, so it needs no
// build cache and no network.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sunder/internal/vet"
)

func main() {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sunder-vet:", err)
		os.Exit(2)
	}
	pkgs, fset, err := vet.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sunder-vet:", err)
		os.Exit(2)
	}
	// Linting always runs over the full module; arguments only filter which
	// findings are shown.
	findings := vet.Lint(fset, pkgs, vet.DefaultConfig())

	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	shown := 0
	for _, f := range findings {
		if !matchesAny(root, f.Pos.Filename, args) {
			continue
		}
		fmt.Println(f)
		shown++
	}
	if shown > 0 {
		fmt.Fprintf(os.Stderr, "sunder-vet: %d finding(s)\n", shown)
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// matchesAny reports whether file (absolute) falls under one of the
// ./...-style patterns, resolved against the module root.
func matchesAny(root, file string, patterns []string) bool {
	rel, err := filepath.Rel(root, file)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = filepath.ToSlash(strings.TrimPrefix(pat, "./"))
		if rec, ok := strings.CutSuffix(pat, "..."); ok {
			// "./..." has lost its "./" above and is "..." here.
			rec = strings.TrimSuffix(rec, "/")
			if rec == "." || rec == "" || rel == rec || strings.HasPrefix(rel, rec+"/") {
				return true
			}
			continue
		}
		if pat == "." || filepath.ToSlash(filepath.Dir(rel)) == pat || rel == pat {
			return true
		}
	}
	return false
}
