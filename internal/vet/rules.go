package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ---------------------------------------------------------------------------
// determinism: deterministic simulation packages must not import wall-clock
// or randomness packages. Reproducibility of every simulation, test and
// recorded table depends on it; seeded randomness lives in the workload
// generators and the experiment runners, which are outside the set.

func lintDeterminism(fset *token.FileSet, p *Package, cfg Config) []Finding {
	if !cfg.DeterministicPkgs[p.Path] {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			for _, banned := range cfg.BannedImports {
				if path == banned {
					out = append(out, Finding{
						Pos:  fset.Position(imp.Pos()),
						Rule: "determinism",
						Msg:  fmt.Sprintf("deterministic package %s imports %q; simulation behaviour must be a pure function of its inputs", p.Path, path),
					})
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// seededrand: the workload generators and the experiment runners must
// stay replayable, so their packages may only use
// math/rand through explicitly seeded generators — a package-level rand
// call (rand.Intn, rand.Float64, …) draws from the process-global source
// and destroys determinism.

// seededRandAllowed are the math/rand functions that construct seeded
// generators rather than drawing from the global source.
var seededRandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

func lintSeededRand(fset *token.FileSet, p *Package, cfg Config) []Finding {
	if !cfg.SeededRandPkgs[p.Path] {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		randName := ""
		for local, path := range importTable(f) {
			if path == "math/rand" || path == "math/rand/v2" {
				randName = local
			}
		}
		if randName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := fun.X.(*ast.Ident); !ok || x.Name != randName {
				return true
			}
			if seededRandAllowed[fun.Sel.Name] {
				return true
			}
			out = append(out, Finding{
				Pos:  fset.Position(call.Pos()),
				Rule: "seededrand",
				Msg:  fmt.Sprintf("%s.%s draws from the global rand source in %s; construct a seeded generator (rand.New(rand.NewSource(seed)))", randName, fun.Sel.Name, p.Path),
			})
			return true
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// nocopy: structs that contain (transitively) a sync lock, a sync/atomic
// typed value, or another lock-bearing struct must never be passed, returned
// or method-bound by value — copying a telemetry.Tracer's mutex or a
// Counter's atomic.Int64 silently forks its state.

// syncNocopy and atomicNocopy are the seed types of the index.
var syncNocopy = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Cond": true, "Once": true,
}
var atomicNocopy = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true, "Uint64": true,
	"Uintptr": true, "Value": true, "Pointer": true,
}

// structDef records one struct declaration's field types together with the
// file's import table, so cross-package field types resolve by name.
type structDef struct {
	fields  []ast.Expr
	imports map[string]string // local name -> import path
}

// buildNocopyIndex computes the set of qualified struct names
// ("importpath.Type") that must not be copied, to a fixpoint over
// by-value field embedding.
func buildNocopyIndex(pkgs []*Package) map[string]bool {
	defs := map[string]structDef{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			imports := importTable(f)
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				var fields []ast.Expr
				for _, fl := range st.Fields.List {
					fields = append(fields, fl.Type)
				}
				defs[p.Path+"."+ts.Name.Name] = structDef{fields: fields, imports: imports}
				return true
			})
		}
	}
	nocopy := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for name, def := range defs {
			if nocopy[name] {
				continue
			}
			pkgPath := name[:strings.LastIndex(name, ".")]
			for _, ft := range def.fields {
				if typeIsNocopy(ft, pkgPath, def.imports, nocopy) {
					nocopy[name] = true
					changed = true
					break
				}
			}
		}
	}
	return nocopy
}

// typeIsNocopy reports whether a by-value field of this type carries
// nocopy state. Pointers, slices, maps, channels and funcs share rather
// than copy, so they stop the propagation.
func typeIsNocopy(t ast.Expr, pkgPath string, imports map[string]string, nocopy map[string]bool) bool {
	switch tt := t.(type) {
	case *ast.Ident:
		return nocopy[pkgPath+"."+tt.Name]
	case *ast.SelectorExpr:
		x, ok := tt.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch imports[x.Name] {
		case "sync":
			return syncNocopy[tt.Sel.Name]
		case "sync/atomic":
			return atomicNocopy[tt.Sel.Name]
		default:
			return nocopy[imports[x.Name]+"."+tt.Sel.Name]
		}
	case *ast.ArrayType:
		return typeIsNocopy(tt.Elt, pkgPath, imports, nocopy)
	case *ast.StructType:
		for _, fl := range tt.Fields.List {
			if typeIsNocopy(fl.Type, pkgPath, imports, nocopy) {
				return true
			}
		}
	}
	return false
}

// importTable maps each file's local import names to import paths.
func importTable(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[name] = path
	}
	return out
}

func lintNocopy(fset *token.FileSet, p *Package, nocopy map[string]bool) []Finding {
	var out []Finding
	check := func(t ast.Expr, imports map[string]string, what, fn string) {
		var qual string
		switch tt := t.(type) {
		case *ast.Ident:
			qual = p.Path + "." + tt.Name
		case *ast.SelectorExpr:
			x, ok := tt.X.(*ast.Ident)
			if !ok {
				return
			}
			qual = imports[x.Name] + "." + tt.Sel.Name
		default:
			return
		}
		if nocopy[qual] {
			out = append(out, Finding{
				Pos:  fset.Position(t.Pos()),
				Rule: "nocopy",
				Msg:  fmt.Sprintf("%s of %s passes lock-bearing type %s by value; use a pointer", what, fn, qual),
			})
		}
	}
	for _, f := range p.Files {
		imports := importTable(f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv != nil {
				for _, r := range fd.Recv.List {
					check(r.Type, imports, "receiver", fd.Name.Name)
				}
			}
			if fd.Type.Params != nil {
				for _, par := range fd.Type.Params.List {
					check(par.Type, imports, "parameter", fd.Name.Name)
				}
			}
			if fd.Type.Results != nil {
				for _, res := range fd.Type.Results.List {
					check(res.Type, imports, "result", fd.Name.Name)
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// atomicfield: a plain field passed to sync/atomic (`atomic.AddInt64(&x.f,
// …)`) is an atomic variable from then on; mixing in direct reads or writes
// of the same field is a data race the race detector only catches when the
// schedule cooperates. The repository convention is typed atomics
// (atomic.Int64 fields), which this rule leaves alone; it exists to keep
// legacy-style plain-field atomics from creeping in.
//
// Resolution is by field name within the package — precise enough here,
// since the convention bans the pattern outright.

// ---------------------------------------------------------------------------
// irmutate: the compiled unit-level IR (automata.UnitAutomaton and its
// UnitState elements) is frozen once the transform pipeline hands it to the
// engine — clones share it by pointer, the scheduler's window analysis and
// the minimizer's equivalence certificates are computed against it, and a
// later in-place edit silently invalidates all of them. Only the IR's home
// package and the compile-time rewrite passes (Config.IRMutators) may write
// its fields; everywhere else a mutation must go through Clone().
//
// Resolution is syntactic: an identifier counts as IR-typed when it is
// declared with type automata.UnitAutomaton / automata.UnitState (behind
// any level of pointer or slice), copied from another IR identifier,
// produced by an IR identifier's Clone() call, or bound as an alias with
// `s := &ua.States[i]`. A write is an assignment or ++/-- whose left-hand
// side selects into such an identifier (`ua.States[i].Succ = …`,
// `st.Match[0] |= …`); rebinding the identifier itself (`ua = other`) is
// not a write to the IR.
//
// Config.FrozenFields extends the same rule to compile products that are
// shared through an unexported struct field rather than an automata type —
// the NFA plan a machine steps on (`Machine.plan`), which every clone of a
// machine and the lazy DFA point at, and the plan's own tables
// (`Plan.planes`, `Plan.succ`, …). There a write is one that selects
// *through* the field (`m.plan.order[k] = …`, `p.latch[w] |= …`) or through
// a local bound to it (`plan := m.plan`); rebinding the field
// (`m.plan = other`) is not, and neither is a write to a value a call
// returns or to a local a constructor builds a table in.

// irTypeNames are the automata type names whose fields the rule protects.
var irTypeNames = map[string]bool{"UnitAutomaton": true, "UnitState": true}

func lintIRMutate(fset *token.FileSet, p *Package, cfg Config) []Finding {
	if cfg.IRMutators[p.Path] {
		return nil
	}
	frozen := map[string]bool{}
	for _, field := range cfg.FrozenFields[p.Path] {
		frozen[field] = true
	}
	var out []Finding
	for _, f := range p.Files {
		automataName := ""
		for local, path := range importTable(f) {
			if path == "sunder/internal/automata" {
				automataName = local
			}
		}
		if automataName == "" && len(frozen) == 0 {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ir := map[string]bool{}
			bind := func(fl *ast.Field) {
				if !isIRType(fl.Type, automataName) {
					return
				}
				for _, name := range fl.Names {
					ir[name.Name] = true
				}
			}
			if fd.Recv != nil {
				for _, r := range fd.Recv.List {
					bind(r)
				}
			}
			if fd.Type.Params != nil {
				for _, par := range fd.Type.Params.List {
					bind(par)
				}
			}
			// One source-order pass both grows the alias set and flags
			// writes; aliases are always declared before use.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.DeclStmt:
					gd, ok := st.Decl.(*ast.GenDecl)
					if !ok {
						return true
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || vs.Type == nil || !isIRType(vs.Type, automataName) {
							continue
						}
						for _, name := range vs.Names {
							ir[name.Name] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						root, steps := selectorRoot(lhs)
						if root != nil && steps > 0 && (ir[root.Name] || selectsThrough(lhs, frozen)) {
							out = append(out, irWrite(fset.Position(lhs.Pos()), fd.Name.Name, root.Name))
						}
					}
					for i, rhs := range st.Rhs {
						if i >= len(st.Lhs) || !aliasesIR(rhs, ir) && !isFrozenField(rhs, frozen) {
							continue
						}
						if id, ok := st.Lhs[i].(*ast.Ident); ok {
							ir[id.Name] = true
						}
					}
				case *ast.IncDecStmt:
					root, steps := selectorRoot(st.X)
					if root != nil && steps > 0 && (ir[root.Name] || selectsThrough(st.X, frozen)) {
						out = append(out, irWrite(fset.Position(st.X.Pos()), fd.Name.Name, root.Name))
					}
				}
				return true
			})
		}
	}
	return out
}

// isIRType reports whether a syntactic type is automata.UnitAutomaton or
// automata.UnitState behind any level of pointers and slices/arrays.
func isIRType(t ast.Expr, automataName string) bool {
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.ArrayType:
			t = tt.Elt
		case *ast.SelectorExpr:
			x, ok := tt.X.(*ast.Ident)
			return ok && x.Name == automataName && irTypeNames[tt.Sel.Name]
		default:
			return false
		}
	}
}

// selectorRoot walks a selector/index chain (`ua.States[i].Succ`) to its
// root identifier, counting the select/index steps taken.
func selectorRoot(e ast.Expr) (*ast.Ident, int) {
	steps := 0
	for {
		switch ee := e.(type) {
		case *ast.Ident:
			return ee, steps
		case *ast.SelectorExpr:
			e = ee.X
			steps++
		case *ast.IndexExpr:
			e = ee.X
			steps++
		case *ast.ParenExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		default:
			return nil, 0
		}
	}
}

func irWrite(pos token.Position, fn, root string) Finding {
	return Finding{
		Pos:  pos,
		Rule: "irmutate",
		Msg:  fmt.Sprintf("%s writes a compile product through %s; the unit automaton and the NFA plan are shared and frozen after compile — mutate a Clone() or a privately owned copy", fn, root),
	}
}

// isFrozenField reports whether an expression is a frozen field itself
// (`m.plan`): binding it to a local makes the local a view of the shared
// product.
func isFrozenField(e ast.Expr, frozen map[string]bool) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && frozen[sel.Sel.Name]
}

// selectsThrough reports whether a selector/index chain passes through a
// frozen field with at least one step applied on top of it — a write into
// what the field points at, not a rebinding of the field.
func selectsThrough(e ast.Expr, frozen map[string]bool) bool {
	for above := false; ; {
		switch ee := e.(type) {
		case *ast.SelectorExpr:
			if above && frozen[ee.Sel.Name] {
				return true
			}
			e, above = ee.X, true
		case *ast.IndexExpr:
			e, above = ee.X, true
		case *ast.ParenExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		default:
			return false
		}
	}
}

// aliasesIR reports whether an expression evaluates to a view of an
// IR-typed identifier: the identifier itself (pointer copy), the address of
// a chain rooted at one (`&ua.States[i]`), or its Clone() result — Clone
// returns the same type, and tracking it keeps the rule honest when a
// "clone" is then written through a second alias of the original.
func aliasesIR(e ast.Expr, ir map[string]bool) bool {
	switch ee := e.(type) {
	case *ast.Ident:
		return ir[ee.Name]
	case *ast.UnaryExpr:
		if ee.Op != token.AND {
			return false
		}
		root, _ := selectorRoot(ee.X)
		return root != nil && ir[root.Name]
	case *ast.CallExpr:
		fun, ok := ee.Fun.(*ast.SelectorExpr)
		if !ok || fun.Sel.Name != "Clone" {
			return false
		}
		root, _ := selectorRoot(fun.X)
		return root != nil && ir[root.Name]
	}
	return false
}

func lintAtomicField(fset *token.FileSet, p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		atomicName := ""
		for local, path := range importTable(f) {
			if path == "sync/atomic" {
				atomicName = local
			}
		}
		if atomicName == "" {
			continue
		}
		// Pass 1: fields handed to atomic.* by address, and the selector
		// nodes that constitute those legitimate accesses.
		atomicFields := map[string]bool{}
		allowed := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := fun.X.(*ast.Ident); !ok || x.Name != atomicName {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if sel, ok := un.X.(*ast.SelectorExpr); ok {
					atomicFields[sel.Sel.Name] = true
					allowed[sel] = true
				}
			}
			return true
		})
		if len(atomicFields) == 0 {
			continue
		}
		// Pass 2: any other access to those fields in this file.
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !atomicFields[sel.Sel.Name] || allowed[sel] {
				return true
			}
			out = append(out, Finding{
				Pos:  fset.Position(sel.Pos()),
				Rule: "atomicfield",
				Msg:  fmt.Sprintf("field %s is used with sync/atomic elsewhere; access it only through atomic operations (or use a typed atomic field)", sel.Sel.Name),
			})
			return true
		})
	}
	return out
}
