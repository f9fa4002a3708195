package sunder

import (
	"bytes"
	"fmt"
	"slices"
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

// TestPrefilterStreamUnboundedUnfiltered: a prefiltered stream over a
// cyclic pattern (unbounded dependence window) runs unfiltered from byte 0,
// on both substrates — its matches and Stats equal the unfiltered stream's
// exactly, nothing skipped and no window counted — whether a hit arrives
// mid-stream or never, and it accepts a literal-free input of any length.
func TestPrefilterStreamUnboundedUnfiltered(t *testing.T) {
	patterns := []Pattern{{Expr: `begin.*end`, Code: 3}}
	input := []byte("xxxx begin middle end yyyy begin-end zz")
	quiet := bytes.Repeat([]byte("x"), 5<<20)
	for _, backend := range substrates {
		eng := compileFiltered(t, patterns, backend)
		if eng.geo.bounded {
			t.Fatal("pattern must have an unbounded dependence window")
		}
		opts := DefaultOptions()
		opts.Backend = backend
		plain, err := Compile(patterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			input  []byte
			chunks []int
		}{{"hit", input, []int{1, 5, 100}}, {"quiet", quiet, []int{64 << 10}}} {
			for _, chunk := range c.chunks {
				label := fmt.Sprintf("%s/%s/chunk=%d", backend, c.name, chunk)
				want, wantStats := streamChunks(t, plain, c.input, chunk)
				got, stats := streamChunks(t, eng, c.input, chunk)
				if !slices.Equal(got, want) || stats != wantStats {
					t.Errorf("%s: %d matches, %+v; unfiltered %d, %+v", label, len(got), stats, len(want), wantStats)
				}
				if c.name == "hit" && len(got) == 0 {
					t.Errorf("%s: vacuous, no match", label)
				}
			}
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

// TestPrefilterSpanScratchBounded: the span scratch a runner keeps between
// prefiltered runs holds the spans pending at once, not a run's hits. A
// stream in small writes keeps a few; a scan or a one-write stream whose
// hits outgrow maxKeptSpans leaves none.
func TestPrefilterSpanScratchBounded(t *testing.T) {
	eng := compileFiltered(t, []Pattern{{Expr: `lock[0-9]x`, Code: 1}}, "dfa")
	input := bytes.Repeat(append(bytes.Repeat([]byte("."), 2042), "lock.."...), 2*maxKeptSpans)
	scratch := func(label string, want int) {
		rn := eng.take()
		defer eng.give(rn)
		if got := cap(rn.probe.spans); got > want {
			t.Errorf("%s: span scratch of %d, want <= %d", label, got, want)
		}
	}
	for _, c := range []struct{ chunk, scratch int }{{1460, 8}, {len(input), 0}} {
		_, st := streamChunks(t, eng, input, c.chunk)
		if st.PrefilterWindows != 2*maxKeptSpans || st.PrefilterStoppedAt != 0 {
			t.Fatalf("stream, chunk=%d: %+v, want a window per hit", c.chunk, st)
		}
		scratch(fmt.Sprintf("stream, chunk=%d", c.chunk), c.scratch)
	}
	if _, err := eng.Scan(input); err != nil {
		t.Fatal(err)
	}
	scratch("scan", 0)
}
