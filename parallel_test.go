package sunder

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// sameScan asserts the fields ScanParallel promises to reproduce exactly:
// the match stream, the Kernel/Reports/ReportCycles statistics and the
// device's report accounting (sameDevice).
func sameScan(t *testing.T, label string, got, want *ScanResult) {
	t.Helper()
	if len(got.Matches) != len(want.Matches) {
		t.Errorf("%s: %d matches, want %d", label, len(got.Matches), len(want.Matches))
		return
	}
	for i := range want.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Errorf("%s: match %d = %+v, want %+v", label, i, got.Matches[i], want.Matches[i])
			return
		}
	}
	if got.Stats.KernelCycles != want.Stats.KernelCycles {
		t.Errorf("%s: KernelCycles %d, want %d", label, got.Stats.KernelCycles, want.Stats.KernelCycles)
	}
	if got.Stats.Reports != want.Stats.Reports {
		t.Errorf("%s: Reports %d, want %d", label, got.Stats.Reports, want.Stats.Reports)
	}
	if got.Stats.ReportCycles != want.Stats.ReportCycles {
		t.Errorf("%s: ReportCycles %d, want %d", label, got.Stats.ReportCycles, want.Stats.ReportCycles)
	}
	sameDevice(t, label, got, want)
}

// sameDevice asserts that two runs of one device's report stream agree on
// what the report model makes of it: StallCycles, Flushes and PerPU.
func sameDevice(t *testing.T, label string, got, want *ScanResult) {
	t.Helper()
	if got.Stats.StallCycles != want.Stats.StallCycles || got.Stats.Flushes != want.Stats.Flushes {
		t.Errorf("%s: StallCycles/Flushes %d/%d, want %d/%d", label,
			got.Stats.StallCycles, got.Stats.Flushes, want.Stats.StallCycles, want.Stats.Flushes)
	}
	if !slices.Equal(got.PerPU, want.PerPU) {
		t.Errorf("%s: PerPU differs", label)
	}
}

// genPatterns draws a small rule set from shard-friendly templates:
// literals, classes, bounded counts and an anchored rule — every shape the
// sharded path supports (unbounded `.*` shapes are covered separately by
// the fallback test).
func genPatterns(rng *rand.Rand) []Pattern {
	alpha := "abcd"
	lit := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alpha[rng.Intn(len(alpha))])
		}
		return sb.String()
	}
	pats := []Pattern{
		{Expr: lit(2 + rng.Intn(6)), Code: 1},
		{Expr: lit(1) + "[ab]" + lit(1) + "+", Code: 2},
		{Expr: lit(1) + "{1,3}" + lit(2), Code: 3},
	}
	if rng.Intn(2) == 0 {
		pats = append(pats, Pattern{Expr: "^" + lit(3), Code: 4})
	}
	return pats
}

// genInput builds a random input with pattern occurrences planted
// throughout — including dense periodic plants so that wherever the shard
// boundaries land, matches straddle them.
func genInput(rng *rand.Rand, pats []Pattern, n int) []byte {
	alpha := "abcdxyz"
	in := make([]byte, n)
	for i := range in {
		in[i] = alpha[rng.Intn(len(alpha))]
	}
	// Plant literal-ish fragments of each pattern at a short period.
	for _, p := range pats {
		frag := strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'd' {
				return r
			}
			return -1
		}, p.Expr)
		if frag == "" {
			continue
		}
		period := 37 + rng.Intn(64)
		for off := rng.Intn(period); off+len(frag) < n; off += period {
			copy(in[off:], frag)
		}
	}
	return in
}

// TestScanParallelDifferential is the property-based harness: for random
// rule sets and random inputs, ScanParallel ≡ Scan ≡ funcsim across worker
// counts 1..N and input sizes from empty to multi-shard.
func TestScanParallelDifferential(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			pats := genPatterns(rng)
			eng, err := Compile(pats, DefaultOptions())
			if err != nil {
				t.Fatalf("Compile(%v): %v", pats, err)
			}
			sizes := []int{0, 1, 7, 100, 4096 + rng.Intn(4096)}
			for _, n := range sizes {
				input := genInput(rng, pats, n)
				want, err := eng.Scan(input)
				if err != nil {
					t.Fatal(err)
				}
				// The architectural simulator itself is cross-checked
				// against the functional simulator and the byte automaton.
				if err := eng.Verify(input); err != nil {
					t.Fatalf("n=%d: funcsim divergence: %v", n, err)
				}
				for workers := 1; workers <= 6; workers++ {
					got, err := eng.ScanParallel(input, ScanOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					sameScan(t, fmt.Sprintf("pats=%v n=%d workers=%d", pats, n, workers), got, want)
				}
			}
		})
	}
}

// TestScanParallelBoundaryStraddle plants matches at every offset around
// the shard boundaries: a long literal repeated back to back, so wherever
// a boundary falls, an occurrence crosses it.
func TestScanParallelBoundaryStraddle(t *testing.T) {
	pat := "abcdabcaab" // 10 bytes, longer than the automaton's unit depth between boundaries
	eng, err := Compile([]Pattern{{Expr: pat, Code: 7}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte(pat), 2000) // 20 KB: shards at default floor
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Matches) != 2000 {
		t.Fatalf("sequential found %d matches, want 2000", len(want.Matches))
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, err := eng.ScanParallel(input, ScanOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sameScan(t, fmt.Sprint("workers=", workers), got, want)
	}
}

// TestScanParallelAnchored covers start-of-data handling: the anchored
// rule must fire for the true input start only, never for a shard's local
// cycle zero.
func TestScanParallelAnchored(t *testing.T) {
	eng, err := Compile([]Pattern{
		{Expr: "^abca", Code: 1},
		{Expr: "bcab", Code: 2},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("abca"), 6000)
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	anchored := 0
	for _, m := range want.Matches {
		if m.Code == 1 {
			anchored++
		}
	}
	if anchored != 1 {
		t.Fatalf("sequential found %d anchored matches, want 1", anchored)
	}
	got, err := eng.ScanParallel(input, ScanOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameScan(t, "anchored", got, want)
}

// TestScanParallelUnboundedFallback: `.*`-style rules cannot shard; the
// parallel path must fall back and still agree with Scan.
func TestScanParallelUnboundedFallback(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: "ab.*cd", Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("abxxcdyy"), 4000)
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.ScanParallel(input, ScanOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameScan(t, "dotstar fallback", got, want)
	// On the fallback path even the device accounting matches.
	if got.Stats != want.Stats {
		t.Errorf("fallback Stats = %+v, want %+v", got.Stats, want.Stats)
	}
}

// TestScanBatchMatchesScan: every batch result equals its sequential scan.
func TestScanBatchMatchesScan(t *testing.T) {
	eng, err := Compile([]Pattern{
		{Expr: "abc", Code: 1},
		{Expr: "b[cd]d+", Code: 2},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	inputs := make([][]byte, 24)
	for i := range inputs {
		inputs[i] = genInput(rng, []Pattern{{Expr: "abc"}, {Expr: "bcdd"}}, 200+rng.Intn(3000))
	}
	got, err := eng.ScanBatch(inputs, ScanOptions{Workers: 4, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(inputs) {
		t.Fatalf("%d results, want %d", len(got), len(inputs))
	}
	for i, in := range inputs {
		want, err := eng.Scan(in)
		if err != nil {
			t.Fatal(err)
		}
		sameScan(t, fmt.Sprint("input ", i), got[i], want)
		// Independent whole scans reproduce the full device accounting.
		if got[i].Stats != want.Stats {
			t.Errorf("input %d: Stats = %+v, want %+v", i, got[i].Stats, want.Stats)
		}
	}
}

func TestEngineClone(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: "abc", Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("zzabczz")
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	clone := eng.Clone()
	got, err := clone.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	sameScan(t, "clone", got, want)
	if got.Stats != want.Stats {
		t.Errorf("clone Stats = %+v, want %+v", got.Stats, want.Stats)
	}
	// Streams on the original must not disturb the clone and vice versa.
	s1, err := eng.NewStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := clone.NewStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(input); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	st1, st2 := s1.Close(), s2.Close()
	if st1.Reports != want.Stats.Reports {
		t.Errorf("stream on original: Reports %d, want %d", st1.Reports, want.Stats.Reports)
	}
	if st2.Reports != 1 {
		t.Errorf("stream on clone: Reports %d, want 1", st2.Reports)
	}
}
