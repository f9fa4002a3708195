package vet

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// parsePkg turns source snippets into a Package for rule tests.
func parsePkg(t *testing.T, fset *token.FileSet, path string, srcs ...string) *Package {
	t.Helper()
	p := &Package{Path: path}
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, path+"/file"+string(rune('a'+i))+".go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		p.Files = append(p.Files, f)
	}
	return p
}

func lintOne(t *testing.T, path, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	p := parsePkg(t, fset, path, src)
	return Lint(fset, []*Package{p}, DefaultConfig())
}

func byRule(fs []Finding, rule string) []Finding {
	var out []Finding
	for _, f := range fs {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func TestDeterminismBansTimeInSimPackages(t *testing.T) {
	src := `package core
import "time"
var t0 = time.Now()
`
	fs := byRule(lintOne(t, "sunder/internal/core", src), "determinism")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, `"time"`) {
		t.Fatalf("got %v, want one determinism finding", fs)
	}
	// The same import is fine outside the deterministic set.
	if fs := byRule(lintOne(t, "sunder/internal/telemetry", src), "determinism"); len(fs) != 0 {
		t.Fatalf("telemetry flagged: %v", fs)
	}
}

func TestDeterminismBansMathRand(t *testing.T) {
	src := `package transform
import "math/rand"
var r = rand.Int()
`
	if fs := byRule(lintOne(t, "sunder/internal/transform", src), "determinism"); len(fs) != 1 {
		t.Fatalf("got %v, want one finding", fs)
	}
}

func TestSeededRandFlagsGlobalSource(t *testing.T) {
	src := `package workload
import "math/rand"
func plantOffset() float64 {
	r := rand.New(rand.NewSource(42))
	return r.Float64() + rand.Float64()
}
`
	fs := byRule(lintOne(t, "sunder/internal/workload", src), "seededrand")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "rand.Float64") {
		t.Fatalf("got %v, want exactly the global-source draw flagged", fs)
	}
	// The same code is fine outside the seeded-rand set.
	if fs := byRule(lintOne(t, "sunder/internal/server", src), "seededrand"); len(fs) != 0 {
		t.Fatalf("server flagged: %v", fs)
	}
}

func TestNocopyFlagsValueReceiverAndParam(t *testing.T) {
	src := `package telemetry
import "sync"
type Tracer struct {
	mu sync.Mutex
	n  int
}
func (t Tracer) Bad() {}
func (t *Tracer) Good() {}
func Use(t Tracer) {}
func Make() Tracer { return Tracer{} }
`
	fs := byRule(lintOne(t, "sunder/internal/telemetry", src), "nocopy")
	if len(fs) != 3 {
		t.Fatalf("got %d findings %v, want 3 (receiver, param, result)", len(fs), fs)
	}
}

func TestNocopyPropagatesThroughFieldsAndArrays(t *testing.T) {
	src := `package a
import "sync/atomic"
type Counter struct { n atomic.Int64 }
type Bank struct { slots [4]Counter }
type Safe struct { c *Counter }
func Copy(b Bank) {}
func Ptr(s Safe) {}
`
	fs := byRule(lintOne(t, "sunder/internal/a", src), "nocopy")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "Bank") {
		t.Fatalf("got %v, want one finding on Bank (pointer field does not propagate)", fs)
	}
}

func TestNocopyCrossPackage(t *testing.T) {
	fset := token.NewFileSet()
	lib := parsePkg(t, fset, "sunder/internal/telemetry", `package telemetry
import "sync"
type Tracer struct { mu sync.Mutex }
`)
	use := parsePkg(t, fset, "sunder/internal/app", `package app
import "sunder/internal/telemetry"
func Run(tr telemetry.Tracer) {}
`)
	fs := byRule(Lint(fset, []*Package{lib, use}, DefaultConfig()), "nocopy")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "telemetry.Tracer") {
		t.Fatalf("got %v, want one cross-package finding", fs)
	}
}

func TestAtomicFieldMixedAccess(t *testing.T) {
	src := `package a
import "sync/atomic"
type C struct{ n int64 }
func (c *C) Inc() { atomic.AddInt64(&c.n, 1) }
func (c *C) Racy() int64 { return c.n }
`
	fs := byRule(lintOne(t, "sunder/internal/a", src), "atomicfield")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "n is used with sync/atomic") {
		t.Fatalf("got %v, want one atomicfield finding", fs)
	}
}

func TestAtomicFieldTypedAtomicsClean(t *testing.T) {
	src := `package a
import "sync/atomic"
type C struct{ n atomic.Int64 }
func (c *C) Inc() { c.n.Add(1) }
func (c *C) Get() int64 { return c.n.Load() }
`
	if fs := byRule(lintOne(t, "sunder/internal/a", src), "atomicfield"); len(fs) != 0 {
		t.Fatalf("typed atomics flagged: %v", fs)
	}
}

func TestIRMutateFlagsFieldWrites(t *testing.T) {
	src := `package sched
import "sunder/internal/automata"
func trim(ua *automata.UnitAutomaton) {
	ua.States[0].Succ = nil
	st := &ua.States[1]
	st.Match[0] |= 3
	st.Reports[0].Code++
}
`
	fs := byRule(lintOne(t, "sunder/internal/sched", src), "irmutate")
	if len(fs) != 3 {
		t.Fatalf("got %d findings %v, want the direct write plus both alias writes", len(fs), fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.Msg, "trim") {
			t.Fatalf("finding does not name the function: %v", f)
		}
	}
}

func TestIRMutateTracksCopiesAndClones(t *testing.T) {
	src := `package exp
import "sunder/internal/automata"
func study(ua *automata.UnitAutomaton) {
	alias := ua
	alias.Rate = 2
	c := ua.Clone()
	c.States[0].Start = automata.StartAllInput
}
`
	fs := byRule(lintOne(t, "sunder/internal/exp", src), "irmutate")
	if len(fs) != 2 {
		t.Fatalf("got %v, want writes through both the pointer copy and the clone", fs)
	}
}

func TestIRMutateAllowsRebindAndAllowedPackages(t *testing.T) {
	src := `package sched
import "sunder/internal/automata"
func rebind(ua *automata.UnitAutomaton, other *automata.UnitAutomaton) *automata.UnitAutomaton {
	ua = other // rebinding the variable is not an IR write
	n := len(ua.States)
	_ = n
	return ua
}
func reads(states []automata.UnitState) int {
	total := 0
	for i := range states {
		total += len(states[i].Succ)
	}
	return total
}
`
	if fs := byRule(lintOne(t, "sunder/internal/sched", src), "irmutate"); len(fs) != 0 {
		t.Fatalf("reads and rebinds flagged: %v", fs)
	}
	mut := `package transform
import "sunder/internal/automata"
func rewrite(ua *automata.UnitAutomaton) { ua.States[0].Succ = nil }
`
	if fs := byRule(lintOne(t, "sunder/internal/transform", mut), "irmutate"); len(fs) != 0 {
		t.Fatalf("allowed rewrite package flagged: %v", fs)
	}
}

func TestIRMutateFrozenFields(t *testing.T) {
	src := `package core
func (m *Machine) flip(k int) {
	m.plan.order[k] ^= 1 // through the shared field
	plan := m.plan
	plan.planes[k] = 0 // through a local bound to it
	m.plan.words++
}
func (m *Machine) fine(k int, other *nfa.Plan) {
	m.plan = other         // rebinding the field
	plan := newPlan()      // a value a call returns
	plan.order[k] ^= 1
	built := &nfa.Plan{}
	built.order = nil      // a product still being built
	_ = m.plan.order[k]    // a read
}
`
	fs := byRule(lintOne(t, "sunder/internal/core", src), "irmutate")
	if len(fs) != 3 {
		t.Fatalf("got %d findings %v, want the three writes in flip", len(fs), fs)
	}
	for _, f := range fs {
		if !strings.Contains(f.Msg, "flip") {
			t.Fatalf("finding outside flip: %v", f)
		}
	}
	if fs := byRule(lintOne(t, "sunder/internal/sched", src), "irmutate"); len(fs) != 0 {
		t.Fatalf("field frozen outside its package: %v", fs)
	}
	// The plan's own tables: frozen in a Plan, free in the locals NewPlan
	// builds them in.
	tables := `package nfa
func (p *Plan) flip(w int) { p.latch[w] = 0 }
func build(words int) *Plan {
	latch := make([]uint64, words)
	latch[0] = 1
	return &Plan{latch: latch}
}
`
	fs = byRule(lintOne(t, "sunder/internal/nfa", tables), "irmutate")
	if len(fs) != 1 || !strings.Contains(fs[0].Msg, "flip") {
		t.Fatalf("got findings %v, want the one write in flip", fs)
	}
}

// TestRepositoryIsClean self-lints the module: the shipped tree must have
// zero findings, since CI runs sunder-vet as a hard gate.
func TestRepositoryIsClean(t *testing.T) {
	_, here, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(here)))
	pkgs, fset, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; wrong root?", len(pkgs), root)
	}
	for _, f := range Lint(fset, pkgs, DefaultConfig()) {
		t.Errorf("%s", f)
	}
}
