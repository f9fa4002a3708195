package sunder

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"sunder/internal/prefilter"
	"sunder/internal/sched"
)

// engageCase is one input to the per-scan engagement rule: stopAt is the
// PrefilterStoppedAt every whole-input entry point must report, 0 for a
// scan that looks for literals to the end and must then plan exactly the
// windows of an unstopped literal scan (unstoppedSpans).
type engageCase struct {
	name     string
	patterns []Pattern
	input    []byte
	stopAt   func(eng *Engine) int64
	hits     int64 // prefilter_hits a Scan adds; 0 to skip the check
}

// stopsAt is a stopAt for a bounded rule set: the same checkpoint on both
// substrates.
func stopsAt(at int64) func(*Engine) int64 { return func(*Engine) int64 { return at } }

// literalSoup returns n bytes of background with lit planted every gap
// bytes from off on, and nowhere else.
func literalSoup(n, off, gap int, lit string) []byte {
	in := bytes.Repeat([]byte("-"), n)
	for at := off; at+len(lit) <= n; at += gap {
		copy(in[at:], lit)
	}
	return in
}

// unstoppedSpans is the plan of a literal scan that never stops: a span per
// occurrence, the padded tail's if a literal can complete there, in order.
func unstoppedSpans(e *Engine, input []byte) []sched.CycleSpan {
	g := &e.geo
	total := g.cycles(int64(len(input)))
	var spans []sched.CycleSpan
	e.pre.scanner.Scan(input, func(q, end int) { spans = append(spans, e.pre.hitSpan(g, q, end)) })
	if pad := int(total*g.rate - int64(len(input))*g.su); pad > 0 &&
		prefilter.TailHitFold(input, e.pre.lits, (pad+int(g.su)-1)/int(g.su), e.pre.fold) {
		spans = append(spans, sched.CycleSpan{Start: total - 1, End: total})
	}
	slices.SortFunc(spans, bySpanStart)
	return spans
}

// TestPrefilterEngagement holds the per-scan engagement rule on both
// substrates and every entry point (Scan, ScanBatch, ScanParallel at
// Workers 1–4, and Stream with 97- and 1,460-byte writes): results equal
// the unfiltered scan and the functional simulator's; a scan stops looking
// for literals where the rule says and then runs the input as one window
// per share, nothing skipped; a scan that does not stop plans exactly the
// unstopped literal scan's windows. A stream stops where Scan does, or, over
// an unbounded dependence window, runs unfiltered and skips nothing.
func TestPrefilterEngagement(t *testing.T) {
	bounded := []Pattern{{Expr: `lock[0-9]x`, Code: 1}, {Expr: `^.{1,8}KEY`, Code: 2}}
	const lit = "lock7x"
	sparseDense := literalSoup(12<<10, 100, 1<<20, lit)
	copy(sparseDense[2500:], literalSoup(len(sparseDense)-2500, 0, 20, lit))
	straddle := literalSoup(6<<10, 10, 1<<20, lit)
	copy(straddle[firstCheckpoint-3:], lit)
	copy(straddle[3000:], lit)
	// The rule set's literal is "lock": one ends at byte 1 KiB + 1.
	justPast := literalSoup(firstCheckpoint+1, 1, 20, lit)
	copy(justPast[firstCheckpoint-3:], "lock")
	unbounded := []Pattern{{Expr: `KEY[a-z]*END`, Code: 3}}
	cases := []engageCase{
		{"dense", bounded, literalSoup(16<<10, 3, 20, lit), stopsAt(firstCheckpoint), 0},
		// ExactMatch-like: a literal every 16 KiB never passes either share.
		{"sparse", bounded, literalSoup(64<<10, 5000, 16<<10, lit), stopsAt(0), 4},
		// The dense part starts past 2 KiB: the checkpoint at 2 KiB sees
		// one window; the lazy DFA's share passes at 4 KiB, the machine's
		// at 8 KiB.
		{"sparse-then-dense", bounded, sparseDense, func(e *Engine) int64 {
			if e.onDFA {
				return 4 << 10
			}
			return 8 << 10
		}, 0},
		// The occurrence across 1 KiB is decided after the checkpoint and
		// counted once.
		{"straddle", bounded, straddle, stopsAt(0), 3},
		{"unbounded", unbounded, literalSoup(4<<10, 2000, 700, "KEYabcEND"), func(e *Engine) int64 {
			first := int64(-1)
			e.pre.scanner.Scan(literalSoup(4<<10, 2000, 700, "KEYabcEND"), func(_, end int) {
				if first < 0 {
					first = int64(end)
				}
			})
			return first
		}, 1},
		// No hit can end past the first checkpoint: scanned to the end.
		{"1KiB", bounded, literalSoup(firstCheckpoint, 3, 20, lit), stopsAt(0), 0},
		{"1KiB+1", bounded, justPast, stopsAt(firstCheckpoint), 0},
	}
	for _, c := range cases {
		want := unfiltered(t, c.patterns, c.input)
		oracle := oracleRun(t, compileSet(t, c.patterns), c.input)
		if len(want.Matches) == 0 {
			t.Fatalf("%s: vacuous, no match", c.name)
		}
		for _, backend := range substrates {
			label := c.name + "/" + backend
			eng := compileFiltered(t, c.patterns, backend)
			tel := NewTelemetry(TelemetryOptions{})
			eng.SetTelemetry(tel)
			stopAt := c.stopAt(eng)
			spans := unstoppedSpans(eng, c.input)
			total := eng.geo.cycles(int64(len(c.input)))
			check := func(entry string, workers int, res *ScanResult, err error) {
				t.Helper()
				l := fmt.Sprintf("%s/%s/w=%d", label, entry, workers)
				agree(t, l, want, res, err)
				agree(t, l+"/funcsim", oracle, res, err)
				if err != nil {
					return
				}
				st := res.Stats
				if st.PrefilterStoppedAt != stopAt {
					t.Errorf("%s: stopped at %d, want %d", l, st.PrefilterStoppedAt, stopAt)
				}
				if stopAt > 0 {
					cuts := eng.geo.cuts([]sched.CycleSpan{{End: total}}, workers, total)
					if st.SkippedCycles != 0 || st.PrefilterWindows != int64(len(cuts)-1) {
						t.Errorf("%s: stopped, but %d windows and %d cycles skipped, want %d and 0",
							l, st.PrefilterWindows, st.SkippedCycles, len(cuts)-1)
					}
					return
				}
				rs := make([]*runner, workers)
				rs[0] = eng.runner()
				ref := eng.runShares(rs, c.input, spans, total)
				eng.release(rs)
				if st.KernelCycles != ref.stats.KernelCycles || st.PrefilterWindows != ref.windows {
					t.Errorf("%s: %d cycles in %d windows, the unstopped plan runs %d in %d",
						l, st.KernelCycles, st.PrefilterWindows, ref.stats.KernelCycles, ref.windows)
				}
			}
			res, err := eng.Scan(c.input)
			check("Scan", 1, res, err)
			if hits := tel.CounterValue(MetricPrefilterHits); c.hits > 0 && hits != c.hits {
				t.Errorf("%s: Scan counted %d hits, want %d", label, hits, c.hits)
			}
			if b := tel.CounterValue(MetricPrefilterBailouts); b != int64(min(stopAt, 1)) {
				t.Errorf("%s: Scan counted %d bailouts", label, b)
			}
			for w := 1; w <= 4; w++ {
				batch, err := eng.ScanBatch([][]byte{c.input, c.input, c.input}, ScanOptions{Workers: w})
				for _, res := range batch {
					check("ScanBatch", 1, res, err)
				}
				res, err := eng.ScanParallel(c.input, ScanOptions{Workers: w})
				check("ScanParallel", w, res, err)
			}
			// A stream stops where Scan does; one over an unbounded
			// dependence window runs unfiltered.
			for _, chunk := range []int{97, 1460} {
				l := fmt.Sprintf("%s/Stream/chunk=%d", label, chunk)
				got, st := streamChunks(t, eng, c.input, chunk)
				res := &ScanResult{Matches: got, Stats: st}
				agree(t, l, want, res, nil)
				agree(t, l+"/funcsim", oracle, res, nil)
				if eng.geo.bounded && st.PrefilterStoppedAt != stopAt {
					t.Errorf("%s: stopped at %d, want %d", l, st.PrefilterStoppedAt, stopAt)
				}
				if !eng.geo.bounded && (st.SkippedCycles != 0 || st.PrefilterWindows != 0 || st.PrefilterStoppedAt != 0) {
					t.Errorf("%s: %+v, want an unfiltered stream", l, st)
				}
			}
		}
	}
}
