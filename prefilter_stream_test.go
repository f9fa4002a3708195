package sunder

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestPrefilterStreamChunkEdges is the window-straddle regression: a
// candidate window overlapping a chunk boundary must carry its warm-up
// state into the next chunk. Literals are planted exactly at every chunk
// edge and one byte to each side, for every chunk size the stream tests
// use, on both substrates; matches and statistics must equal the
// whole-input Scan and the unfiltered scan regardless. The second rule
// pair's required literals are long enough for the shift scanner, whose
// skips must find a straddling literal from the maxLit-1 byte carry alone.
func TestPrefilterStreamChunkEdges(t *testing.T) {
	for _, c := range []struct {
		patterns []Pattern
		strategy string
		plants   [3]string
	}{
		{[]Pattern{{Expr: `EDGE[0-9]`, Code: 1}, {Expr: `mark\d\d`, Code: 2}},
			"swar", [3]string{"EDGE1", "mark22", "EDGE3"}},
		{[]Pattern{{Expr: `BOUNDARY-EDGE[0-9]`, Code: 1}, {Expr: `watermark-line\d\d`, Code: 2}},
			"shift", [3]string{"BOUNDARY-EDGE1", "watermark-line22", "BOUNDARY-EDGE3"}},
	} {
		for _, backend := range substrates {
			eng := compileFiltered(t, c.patterns, backend)
			if got := eng.Info().PrefilterStrategy; got != c.strategy {
				t.Fatalf("%s: strategy %q, want %q", backend, got, c.strategy)
			}
			for _, chunk := range []int{1, 2, 7, 13, 64, 97} {
				input := bytes.Repeat([]byte("."), 6*chunk+5+len(c.plants[1]))
				// Plant a literal starting at a boundary, one straddling it from
				// one byte before, and one ending exactly on it.
				plant := func(at int, s string) {
					if at >= 0 && at+len(s) <= len(input) {
						copy(input[at:], s)
					}
				}
				plant(chunk, c.plants[0])
				plant(3*chunk-1, c.plants[1])
				plant(5*chunk-len(c.plants[2]), c.plants[2])

				want, err := eng.Clone().Scan(input)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Matches) == 0 {
					t.Fatalf("chunk=%d: test is vacuous, no matches planted", chunk)
				}
				label := fmt.Sprintf("%s/%s/chunk=%d", c.strategy, backend, chunk)
				got, stats := streamChunks(t, eng.Clone(), input, chunk)
				compareStream(t, label, want, got, stats)
				compareStream(t, label+"/unfiltered", unfiltered(t, c.patterns, input), got, stats)
			}
		}
	}
}

// TestPrefilterStreamTailLiteral pins the pad-tail hazard on the filtered
// stream, on both substrates: a literal ending exactly at the last input
// byte, and input whose suffix is a literal prefix completed only by the
// pad (the phantom span), must both produce Stats identical to Scan and to
// the unfiltered scan.
func TestPrefilterStreamTailLiteral(t *testing.T) {
	patterns := []Pattern{{Expr: `tail.`, Code: 9}}
	for _, backend := range substrates {
		eng := compileFiltered(t, patterns, backend)
		for _, input := range []string{
			"......tailX",   // match ends at the last byte
			"1234567tail",   // literal "tail" at the end; `.` satisfied by pad only
			"odd bytes tai", // literal prefix at the end, odd length
		} {
			want, err := eng.Clone().Scan([]byte(input))
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s/%q", backend, input)
			got, stats := streamChunks(t, eng.Clone(), []byte(input), 1)
			compareStream(t, label, want, got, stats)
			compareStream(t, label+"/unfiltered", unfiltered(t, patterns, []byte(input)), got, stats)
		}
	}
}

// TestPrefilterStreamUnboundedDeferred covers the deferred-start path on
// both substrates: a cyclic pattern (unbounded dependence window) streams
// correctly both when a hit arrives mid-stream and when the stream is
// hit-free.
func TestPrefilterStreamUnboundedDeferred(t *testing.T) {
	patterns := []Pattern{{Expr: `begin.*end`, Code: 3}}
	input := []byte("xxxx begin middle end yyyy begin-end zz")
	for _, backend := range substrates {
		eng := compileFiltered(t, patterns, backend)
		if eng.geo.bounded {
			t.Fatal("pattern must have an unbounded dependence window")
		}
		want, err := eng.Clone().Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Matches) == 0 {
			t.Fatal("vacuous: pattern did not match")
		}
		for _, chunk := range []int{1, 5, 100} {
			label := fmt.Sprintf("%s/chunk=%d", backend, chunk)
			got, stats := streamChunks(t, eng.Clone(), input, chunk)
			compareStream(t, label, want, got, stats)
			compareStream(t, label+"/unfiltered", unfiltered(t, patterns, input), got, stats)
		}

		// Hit-free stream: everything skipped, zero reports.
		got, stats := streamChunks(t, eng.Clone(), make([]byte, 4096), 4096)
		if len(got) != 0 || stats.KernelCycles != 0 || stats.SkippedCycles == 0 || stats.Reports != 0 {
			t.Errorf("%s: hit-free deferred stream: %d matches, %+v", backend, len(got), stats)
		}
	}
}

// streamChunks streams input into a new stream on eng in chunks of chunk
// bytes and returns its matches and final statistics.
func streamChunks(t *testing.T, eng *Engine, input []byte, chunk int) ([]Match, Stats) {
	t.Helper()
	var got []Match
	st, err := eng.NewStream(func(m Match) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(input); off += chunk {
		if _, err := st.Write(input[off:min(off+chunk, len(input))]); err != nil {
			t.Fatal(err)
		}
	}
	return got, st.Close()
}

// compareStream holds a filtered stream's output to want, a scan of the
// same input: same matches and Reports/ReportCycles, and its executed and
// skipped cycles sum to want's.
func compareStream(t *testing.T, label string, want *ScanResult, got []Match, st Stats) {
	t.Helper()
	agree(t, label, &ScanResult{Matches: want.Matches, Stats: Stats{
		KernelCycles: want.Stats.KernelCycles + want.Stats.SkippedCycles,
		Reports:      want.Stats.Reports,
		ReportCycles: want.Stats.ReportCycles,
	}}, &ScanResult{Matches: got, Stats: st}, nil)
}

// TestPrefilterStreamDeferredBufferFull pins the deferred-buffer cap: an
// unbounded-window ruleset fed more than maxDeferredUnits units without a
// literal hit must surface ErrDeferredBufferFull from Write (sticky) rather
// than silently degrade, and Close must stay valid and idempotent after it.
func TestPrefilterStreamDeferredBufferFull(t *testing.T) {
	eng := compileFiltered(t, []Pattern{{Expr: `begin.*end`, Code: 3}}, "")
	if eng.geo.bounded {
		t.Fatal("want an unbounded filter")
	}
	st, err := eng.NewStream(func(m Match) { t.Errorf("unexpected match %+v", m) })
	if err != nil {
		t.Fatal(err)
	}
	// Literal-free filler: > maxDeferredUnits units (su units per byte).
	su := eng.nibble.SymbolUnits
	chunk := make([]byte, 64<<10)
	for i := range chunk {
		chunk[i] = 'x'
	}
	need := maxDeferredUnits/su + len(chunk)
	var wedged error
	written := 0
	for written < need+len(chunk) {
		_, err := st.Write(chunk)
		if err != nil {
			wedged = err
			break
		}
		written += len(chunk)
	}
	if !errors.Is(wedged, ErrDeferredBufferFull) {
		t.Fatalf("wrote %d bytes (> cap %d units) without ErrDeferredBufferFull; err=%v",
			written, maxDeferredUnits, wedged)
	}
	if !errors.Is(st.Err(), ErrDeferredBufferFull) {
		t.Fatalf("Err() = %v, want ErrDeferredBufferFull", st.Err())
	}
	// Sticky: further writes keep failing with the same error.
	if _, err := st.Write([]byte("more")); !errors.Is(err, ErrDeferredBufferFull) {
		t.Fatalf("post-wedge Write err = %v", err)
	}
	// Close stays valid and idempotent: everything buffered was proven
	// match-free, so it is skipped, and a second Close returns the same.
	first := st.Close()
	if first.KernelCycles != 0 || first.SkippedCycles == 0 || first.Reports != 0 {
		t.Errorf("post-wedge Close stats: %+v", first)
	}
	if again := st.Close(); again != first {
		t.Errorf("Close not idempotent after wedge: %+v != %+v", again, first)
	}
	if _, err := st.Write([]byte("x")); !errors.Is(err, ErrClosedStream) {
		t.Errorf("write after close: %v", err)
	}
}
