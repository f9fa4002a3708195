package sunder

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func cachePatterns(tag int) []Pattern {
	return []Pattern{
		{Expr: fmt.Sprintf("ab%dc", tag), Code: 1},
		{Expr: "x[yz]x", Code: 2},
	}
}

// TestCompileCachedEquivalence: an engine from a cache hit scans
// identically to a freshly compiled one.
func TestCompileCachedEquivalence(t *testing.T) {
	ResetCompileCache()
	pats := []Pattern{{Expr: "abca", Code: 1}, {Expr: "b[cd]+a", Code: 2}}
	fresh, err := Compile(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	miss, err := CompileCached(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hit, err := CompileCached(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("zabcabcday"), 800)
	want, err := fresh.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	for label, eng := range map[string]*Engine{"miss": miss, "hit": hit} {
		got, err := eng.Scan(input)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameScan(t, label, got, want)
		if got.Stats != want.Stats {
			t.Errorf("%s: Stats = %+v, want %+v", label, got.Stats, want.Stats)
		}
		// The cached engine supports the parallel path too.
		par, err := eng.ScanParallel(input, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s parallel: %v", label, err)
		}
		sameScan(t, label+" parallel", par, want)
	}
}

// TestCompileCachedStats: hits and misses are counted, distinct rule sets
// and distinct options occupy distinct entries, and the Rate default is
// normalized into the key.
func TestCompileCachedStats(t *testing.T) {
	ResetCompileCache()
	before := CompileCacheInfo()

	pats := cachePatterns(0)
	if _, err := CompileCached(pats, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := CompileCached(pats, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Options{} and an explicit default rate are the same configuration.
	o := DefaultOptions()
	o.Rate = 4
	if _, err := CompileCached(pats, o); err != nil {
		t.Fatal(err)
	}
	// A different rate is a different machine.
	o.Rate = 2
	if _, err := CompileCached(pats, o); err != nil {
		t.Fatal(err)
	}
	// A different rule set is a different entry.
	if _, err := CompileCached(cachePatterns(1), DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	st := CompileCacheInfo()
	if hits := st.Hits - before.Hits; hits != 2 {
		t.Errorf("Hits = %d, want 2", hits)
	}
	if misses := st.Misses - before.Misses; misses != 3 {
		t.Errorf("Misses = %d, want 3", misses)
	}
	if st.Entries != 3 {
		t.Errorf("Entries = %d, want 3", st.Entries)
	}
	if st.Capacity != DefaultCompileCacheCapacity {
		t.Errorf("Capacity = %d, want %d", st.Capacity, DefaultCompileCacheCapacity)
	}
}

// TestCompileCachedEviction: capacity bounds the cache, and shrinking it
// evicts the least recently used rule sets.
func TestCompileCachedEviction(t *testing.T) {
	ResetCompileCache()
	SetCompileCacheCapacity(2)
	defer SetCompileCacheCapacity(DefaultCompileCacheCapacity)

	for i := 0; i < 4; i++ {
		if _, err := CompileCached(cachePatterns(i), DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if n := CompileCacheInfo().Entries; n != 2 {
		t.Fatalf("Entries = %d, want 2", n)
	}
	before := CompileCacheInfo()
	// Sets 2 and 3 survive; set 0 was evicted and must miss again.
	if _, err := CompileCached(cachePatterns(3), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, err := CompileCached(cachePatterns(0), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	st := CompileCacheInfo()
	if hits := st.Hits - before.Hits; hits != 1 {
		t.Errorf("Hits = %d, want 1", hits)
	}
	if misses := st.Misses - before.Misses; misses != 1 {
		t.Errorf("Misses = %d, want 1", misses)
	}
}

// TestCompileCachedErrorNotCached: a failing rule set is recompiled (and
// fails again) rather than occupying a cache slot.
func TestCompileCachedErrorNotCached(t *testing.T) {
	ResetCompileCache()
	bad := []Pattern{{Expr: "a(b", Code: 1}}
	if _, err := CompileCached(bad, DefaultOptions()); err == nil {
		t.Fatal("compile of unbalanced group succeeded")
	}
	if n := CompileCacheInfo().Entries; n != 0 {
		t.Errorf("Entries = %d after failed compile, want 0", n)
	}
	if _, err := CompileCached(bad, DefaultOptions()); err == nil {
		t.Fatal("second compile of unbalanced group succeeded")
	}
}

// prunablePatterns is a rule set on which Options.Minimize's prune rounds
// provably remove states: the `a.` alternative subsumes `ab`, so the `ab`
// chain is dead.
func prunablePatterns() []Pattern {
	return []Pattern{
		{Expr: `(ab|a.)c`, Code: 1},
		{Expr: `xy+z`, Code: 2},
	}
}

// TestCompileCachedMinimizeDistinct is the regression test for the
// compile-key collision: a minimized and a plain compile of the same
// patterns must occupy distinct cache entries. Before the fix, a compile
// with an option that shrinks the machine after one without it returned
// the unshrunk machine.
func TestCompileCachedMinimizeDistinct(t *testing.T) {
	ResetCompileCache()
	pats := prunablePatterns()
	plain, err := CompileCached(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mopts := DefaultOptions()
	mopts.Minimize = true
	minimized, err := CompileCached(pats, mopts)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Compile(pats, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Info().PrunedStates == 0 {
		t.Fatal("test rule set no longer prunes any state; pick a prunable one")
	}
	if got, want := minimized.Info().DeviceStates, fresh.Info().DeviceStates; got != want {
		t.Errorf("cached minimized engine has %d device states, fresh minimized compile has %d (cache key collision)", got, want)
	}
	if got, want := minimized.Info().PrunedStates, fresh.Info().PrunedStates; got != want {
		t.Errorf("cached minimized engine reports %d pruned states, want %d", got, want)
	}
	if minimized.Info().DeviceStates >= plain.Info().DeviceStates {
		t.Errorf("minimized engine (%d states) not smaller than plain (%d)",
			minimized.Info().DeviceStates, plain.Info().DeviceStates)
	}
	// Both configurations are now resident: re-requesting the plain one
	// must hit its own entry, not the minimized machine.
	again, err := CompileCached(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := again.Info().DeviceStates, plain.Info().DeviceStates; got != want {
		t.Errorf("plain re-request returned %d device states, want %d", got, want)
	}
	if n := CompileCacheInfo().Entries; n != 2 {
		t.Errorf("Entries = %d, want 2 (minimized and plain must not share a slot)", n)
	}
	input := bytes.Repeat([]byte("zabcaxcxyyz"), 500)
	want, err := fresh.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := minimized.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	sameScan(t, "cached minimized", got, want)
}

// TestCompileCachedPrunedStatesOnHitAndClone: Info().PrunedStates, which
// Minimize's prune rounds count, survives the cache-hit path and
// Engine.Clone (both used to drop it to zero).
func TestCompileCachedPrunedStatesOnHitAndClone(t *testing.T) {
	ResetCompileCache()
	popts := DefaultOptions()
	popts.Minimize = true
	miss, err := CompileCached(prunablePatterns(), popts)
	if err != nil {
		t.Fatal(err)
	}
	want := miss.Info().PrunedStates
	if want == 0 {
		t.Fatal("test rule set no longer prunes any state; pick a prunable one")
	}
	hit, err := CompileCached(prunablePatterns(), popts)
	if err != nil {
		t.Fatal(err)
	}
	if got := hit.Info().PrunedStates; got != want {
		t.Errorf("cache hit: Info().PrunedStates = %d, want %d", got, want)
	}
	for label, eng := range map[string]*Engine{"miss": miss, "hit": hit} {
		if got := eng.Clone().Info().PrunedStates; got != want {
			t.Errorf("%s clone: Info().PrunedStates = %d, want %d", label, got, want)
		}
	}
}

// TestCompileCachedMinimizeOnHitAndClone: the certified-minimization
// digest (Info().MergedStates / SymbolClasses, and the prune rounds folded
// into PrunedStates) survives the cache-hit path and Engine.Clone, and a
// minimized compile occupies its own cache entry.
func TestCompileCachedMinimizeOnHitAndClone(t *testing.T) {
	ResetCompileCache()
	mopts := DefaultOptions()
	mopts.Minimize = true
	pats := prunablePatterns()
	miss, err := CompileCached(pats, mopts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := CompileCached(pats, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if n := CompileCacheInfo().Entries; n != 2 {
		t.Errorf("Entries = %d, want 2 (minimized and plain must not share a slot)", n)
	}
	info := miss.Info()
	if info.SymbolClasses == 0 {
		t.Error("minimized compile reports zero symbol classes")
	}
	if info.PrunedStates == 0 {
		t.Error("minimize on a prunable rule set removed no states")
	}
	if got := plain.Info().SymbolClasses; got != 0 {
		t.Errorf("unminimized compile reports %d symbol classes, want 0", got)
	}
	hit, err := CompileCached(pats, mopts)
	if err != nil {
		t.Fatal(err)
	}
	for label, eng := range map[string]*Engine{"hit": hit, "miss clone": miss.Clone(), "hit clone": hit.Clone()} {
		got := eng.Info()
		if got.PrunedStates != info.PrunedStates || got.MergedStates != info.MergedStates || got.SymbolClasses != info.SymbolClasses {
			t.Errorf("%s: Info() pruned/merged/classes = %d/%d/%d, want %d/%d/%d", label,
				got.PrunedStates, got.MergedStates, got.SymbolClasses,
				info.PrunedStates, info.MergedStates, info.SymbolClasses)
		}
	}
}

// TestCompileKeyCoversOptions enumerates Options by reflection and asserts
// that perturbing any single field changes the cache key — the proof
// obligation of DESIGN.md §4.11: a future compile-affecting Options field
// that is not hashed into compileKey fails here instead of silently
// aliasing cache entries (how the pruning option's collision happened).
func TestCompileKeyCoversOptions(t *testing.T) {
	pats := cachePatterns(0)
	// Base values chosen so every perturbation below lands on a distinct
	// normalized value (Rate 1→2 avoids the 0→4 default normalization).
	base := Options{Rate: 1, ReportColumns: 13, MetadataBits: 21}
	baseKey := compileKey(pats, base)
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		o := base
		fv := reflect.ValueOf(&o).Elem().Field(i)
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			fv.SetInt(fv.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			fv.SetUint(fv.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			fv.SetFloat(fv.Float() + 1)
		case reflect.String:
			fv.SetString(fv.String() + "x")
		default:
			t.Fatalf("Options.%s has kind %s this coverage test cannot perturb; hash it in compileKey and teach the test", field.Name, fv.Kind())
		}
		if compileKey(pats, o) == baseKey {
			t.Errorf("compileKey ignores Options.%s: two different configurations would share a cache entry", field.Name)
		}
	}
}

// TestCompileCachedConcurrentMixedMinimize hammers the cache from many
// goroutines with mixed Minimize options over a small working set under
// -race: hit/miss counts must stay consistent, and every returned engine
// must report the right PrunedStates and MergedStates and scan identically
// to a fresh compile of the same configuration.
func TestCompileCachedConcurrentMixedMinimize(t *testing.T) {
	ResetCompileCache()
	SetCompileCacheCapacity(3) // below the 6-config working set: evict+refill races
	defer SetCompileCacheCapacity(DefaultCompileCacheCapacity)

	input := bytes.Repeat([]byte("zabcaxcxyyzab0cab1cab2c"), 300)
	type config struct {
		pats   []Pattern
		opts   Options
		want   *ScanResult
		pruned int
		merged int
	}
	var configs []config
	for set := 0; set < 3; set++ {
		pats := prunablePatterns()
		pats = append(pats, cachePatterns(set)...)
		for _, minimize := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Minimize = minimize
			eng, err := Compile(pats, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.Scan(input)
			if err != nil {
				t.Fatal(err)
			}
			configs = append(configs, config{pats: pats, opts: opts, want: want,
				pruned: eng.Info().PrunedStates, merged: eng.Info().MergedStates})
			if minimize && eng.Info().PrunedStates == 0 {
				t.Fatal("minimized config removes no states; the hammer would not distinguish the machines")
			}
		}
	}
	before := CompileCacheInfo()
	const goroutines, iters = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := configs[(g+i)%len(configs)]
				eng, err := CompileCached(c.pats, c.opts)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := eng.Info().PrunedStates; got != c.pruned {
					t.Errorf("goroutine %d: PrunedStates = %d, want %d (minimize=%v)", g, got, c.pruned, c.opts.Minimize)
					return
				}
				if got := eng.Info().MergedStates; got != c.merged {
					t.Errorf("goroutine %d: MergedStates = %d, want %d (minimize=%v)", g, got, c.merged, c.opts.Minimize)
					return
				}
				got, err := eng.Scan(input)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				sameScan(t, fmt.Sprintf("goroutine %d iter %d minimize=%v", g, i, c.opts.Minimize), got, c.want)
			}
		}(g)
	}
	wg.Wait()
	st := CompileCacheInfo()
	lookups := int64(goroutines * iters)
	if got := (st.Hits - before.Hits) + (st.Misses - before.Misses); got != lookups {
		t.Errorf("hits+misses = %d, want %d lookups", got, lookups)
	}
	if misses := st.Misses - before.Misses; misses < int64(len(configs)) {
		t.Errorf("misses = %d, want at least one per distinct configuration (%d)", misses, len(configs))
	}
	if st.Entries > 3 {
		t.Errorf("Entries = %d exceeds capacity 3", st.Entries)
	}
}

// TestCompileCachedConcurrent hammers the cache from many goroutines over
// a small working set; every returned engine must scan correctly.
func TestCompileCachedConcurrent(t *testing.T) {
	ResetCompileCache()
	SetCompileCacheCapacity(3) // smaller than the working set: forces races on evict+refill
	defer SetCompileCacheCapacity(DefaultCompileCacheCapacity)

	input := bytes.Repeat([]byte("ab0cab1cab2cab3cab4c"), 200)
	wants := make([]*ScanResult, 5)
	for i := range wants {
		eng, err := Compile(cachePatterns(i), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if wants[i], err = eng.Scan(input); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				set := (g + i) % 5
				eng, err := CompileCached(cachePatterns(set), DefaultOptions())
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				got, err := eng.Scan(input)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				sameScan(t, fmt.Sprintf("goroutine %d set %d", g, set), got, wants[set])
			}
		}(g)
	}
	wg.Wait()
}

// TestInfoIdenticalOnHitAndClone: every compile product Info() reports —
// Backend, PrefilterStrategy, PrefilterLiterals and SymbolClasses included
// — is the same on the compiling engine, a cache hit and their clones,
// because all of them share one compiledArtifact instead of copying fields.
func TestInfoIdenticalOnHitAndClone(t *testing.T) {
	ResetCompileCache()
	opts := DefaultOptions()
	opts.Minimize, opts.Prefilter, opts.Backend = true, PrefilterOn, "auto"
	pats := []Pattern{{Expr: `GET /[a-z]+`, Code: 1}, {Expr: `needle`, Code: 2}}
	miss, err := CompileCached(pats, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := miss.Info()
	if want.SymbolClasses == 0 || want.Backend == "" || len(want.PrefilterLiterals) == 0 || want.PrefilterStrategy == "off" {
		t.Fatalf("test configuration exercises too little of Info(): %+v", want)
	}
	hit, wasHit, err := CompileCachedTraced(pats, opts)
	if err != nil || !wasHit {
		t.Fatalf("second compile: hit=%v err=%v", wasHit, err)
	}
	for label, eng := range map[string]*Engine{"hit": hit, "miss clone": miss.Clone(), "hit clone": hit.Clone()} {
		if got := eng.Info(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Info() = %+v, want %+v", label, got, want)
		}
		if eng.compiledArtifact != miss.compiledArtifact {
			t.Errorf("%s: engine does not share the compiling engine's artifact", label)
		}
	}
}

// TestEngineStateOutsideArtifact enumerates Engine's fields by reflection:
// everything compilation produces lives in the shared compiledArtifact, so
// Clone and the compile cache never copy compile products field by field.
// A new Engine field fails here until it is classified — immutable compile
// products go into compiledArtifact, per-engine mutable state is listed
// below. The artifact's fields that are not immutable, its free list of
// runners (held weakly, anchored by a sync.Pool), are neither: a
// cache every engine over the artifact shares, and a runner taken from it is
// indistinguishable from a new one (TestDFAPoolConcurrent,
// TestEntryPointsAgree's warm pass).
func TestEngineStateOutsideArtifact(t *testing.T) {
	mutable := map[string]string{
		"compiledArtifact": "the shared immutable compile product itself",
		"tel":              "attached by SetTelemetry",
		"slot":             "the engine's idle runner, in front of the artifact's free list",
		"dfaRuns":          "the lazy-DFA counters of the engine's runs (DFAStats)",
	}
	typ := reflect.TypeOf(Engine{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := mutable[name]; !ok {
			t.Errorf("Engine.%s is not classified: move an immutable compile product into compiledArtifact, or list per-engine mutable state here", name)
		}
		delete(mutable, name)
	}
	for name := range mutable {
		t.Errorf("Engine.%s is listed as mutable state but no longer exists", name)
	}
}
