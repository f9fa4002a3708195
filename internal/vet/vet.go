// Package vet is the repository's domain-specific Go linter, built only on
// the standard library's go/parser and go/ast (no go/packages, no type
// checker, no module loading): it parses every package of the module
// syntactically and checks invariants that generic tooling cannot know —
// determinism of the simulation packages, atomic-only access to fields
// handed to sync/atomic, and no writes to the compiled IR or to frozen
// fields outside their owners. Copies of lock-bearing structs are go vet's
// copylocks check, which CI runs too.
// cmd/sunder-vet is the CLI; CI runs it as a hard gate.
//
// Being syntactic, the rules resolve types by name rather than by type
// identity; that is precise enough for this repository's conventions and
// keeps the linter dependency-free and fast.
package vet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one rule violation.
type Finding struct {
	// Pos locates the violation.
	Pos token.Position
	// Rule names the rule ("determinism", "seededrand", "atomicfield",
	// "irmutate").
	Rule string
	// Msg describes the violation.
	Msg string
}

// String formats the finding in the familiar file:line:col style.
func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Rule, f.Msg)
}

// Package is one parsed package: its import path and the syntax trees of
// its non-test files. Test files are exempt from every rule — tests may
// use wall clocks, randomness and copies freely.
type Package struct {
	// Path is the import path, e.g. "sunder/internal/core".
	Path string
	// Dir is the absolute directory.
	Dir string
	// Files holds the parsed non-test files.
	Files []*ast.File
}

// Config selects the packages each rule applies to.
type Config struct {
	// DeterministicPkgs are import paths whose non-test files must not
	// import wall-clock or randomness packages: their behaviour must be
	// a pure function of their inputs so simulations replay exactly.
	DeterministicPkgs map[string]bool
	// BannedImports are the import paths banned from deterministic
	// packages.
	BannedImports []string
	// SeededRandPkgs are import paths that may use math/rand, but only
	// through explicitly seeded generators (rand.New, rand.NewSource):
	// calling package-level rand functions there draws from the global
	// source and breaks seeded replay.
	SeededRandPkgs map[string]bool
	// IRMutators are the packages allowed to write to the compiled
	// unit-level IR (automata.UnitAutomaton / UnitState) in place: the
	// IR's home package and the compile-time rewrite passes. Everywhere
	// else the IR is frozen once built — engines share it across clones
	// and the minimizer's certificates are checked against it — so a
	// field write must go through a Clone.
	IRMutators map[string]bool
	// FrozenFields lists, per package, the struct fields that hold a
	// compile product shared the way the IR is (see the irmutate rule):
	// writes that select through them are flagged like IR writes.
	FrozenFields map[string][]string
}

// DefaultConfig returns the repository's rule configuration.
func DefaultConfig() Config {
	return Config{
		DeterministicPkgs: map[string]bool{
			"sunder/internal/automata":  true,
			"sunder/internal/bitvec":    true,
			"sunder/internal/core":      true,
			"sunder/internal/funcsim":   true,
			"sunder/internal/transform": true,
			"sunder/internal/mapping":   true,
			"sunder/internal/sched":     true,
			"sunder/internal/analysis":  true,
			"sunder/internal/prefilter": true,
			"sunder/internal/regex":     true,
			"sunder/internal/dfa":       true,
		},
		BannedImports: []string{"time", "math/rand", "math/rand/v2"},
		// The workload generators and the experiment runners seed their
		// generators: the benchmark's inputs depend on it.
		SeededRandPkgs: map[string]bool{
			"sunder/internal/workload": true,
			"sunder/internal/exp":      true,
		},
		IRMutators: map[string]bool{
			"sunder/internal/automata":  true,
			"sunder/internal/transform": true,
			"sunder/internal/analysis":  true,
		},
		FrozenFields: map[string][]string{
			// Machine.plan: one NFA plan per compile, shared by every clone
			// and by the lazy DFA; Configure builds it and nothing writes it
			// afterwards.
			"sunder/internal/core": {"plan"},
			// The plan's own tables: NewPlan builds them in locals, and
			// nothing writes them once they are in a Plan.
			"sunder/internal/nfa": {"order", "planes", "startAll", "startFirst", "reportMask", "none",
				"succOff", "succ", "latch", "latchOff", "latchSucc", "covered"},
		},
	}
}

// LoadModule walks the module rooted at root (the directory containing
// go.mod), parses every package's non-test files, and returns them with
// the shared FileSet.
func LoadModule(root string) ([]*Package, *token.FileSet, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, fn), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		pkgs = append(pkgs, &Package{Path: imp, Dir: path, Files: files})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, fset, nil
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("vet: no module directive in %s", gomod)
}

// Lint runs every rule over the packages and returns the findings sorted
// by position.
func Lint(fset *token.FileSet, pkgs []*Package, cfg Config) []Finding {
	var out []Finding
	for _, p := range pkgs {
		out = append(out, lintDeterminism(fset, p, cfg)...)
		out = append(out, lintSeededRand(fset, p, cfg)...)
		out = append(out, lintAtomicField(fset, p)...)
		out = append(out, lintIRMutate(fset, p, cfg)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}
