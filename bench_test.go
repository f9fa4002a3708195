package sunder

// The benchmark harness: one testing.B per table and figure of the paper's
// evaluation (regenerating its rows each iteration), the ablation studies
// from DESIGN.md, and microbenchmarks of the pipeline stages. Run with
//
//	go test -bench=. -benchmem
//
// Reduced-scale options keep iterations tractable; `cmd/sunder-bench -full`
// regenerates everything at paper scale.

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"sunder/internal/core"
	"sunder/internal/exp"
	"sunder/internal/funcsim"
	"sunder/internal/report"
	"sunder/internal/sched"
	"sunder/internal/telemetry"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

var benchOpts = exp.Options{Scale: 0.01, InputLen: 10000}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintTable1(io.Discard, rows, benchOpts)
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.FprintTable2(io.Discard)
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintTable3(io.Discard, rows, benchOpts)
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintTable4(io.Discard, rows, benchOpts)
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.FprintTable5(io.Discard, exp.Table5())
	}
}

func BenchmarkFigure8(b *testing.B) {
	rows, err := exp.Table4(benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.FprintFigure8(io.Discard, exp.Figure8(rows))
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exp.FprintFigure9(io.Discard, exp.Figure9())
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := exp.Figure10(80000)
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintFigure10(io.Discard, pts, 80000)
	}
}

// Ablation benches (DESIGN.md §4.6).

func BenchmarkAblationFIFO(b *testing.B) {
	w := workload.MustGet("SPM", benchOpts.Scale, benchOpts.InputLen)
	units := funcsim.BytesToUnits(w.Input, 4)
	for _, fifo := range []bool{false, true} {
		name := "flush"
		if fifo {
			name = "fifo"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(4)
			cfg.FIFO = fifo
			m := mustMachine(b, w, cfg)
			md := report.NewSunder(m.Reports(), m.Config())
			b.SetBytes(int64(len(w.Input)))
			b.ResetTimer()
			var overhead float64
			for i := 0; i < b.N; i++ {
				m.Reset()
				md.Reset()
				res := m.Run(units, core.RunOptions{OnReportCycle: md.OnReportCycle})
				overhead = md.Result().Overhead(res.KernelCycles)
			}
			b.ReportMetric(overhead, "overhead-x")
		})
	}
}

func BenchmarkAblationSummarize(b *testing.B) {
	w := workload.MustGet("SPM", benchOpts.Scale, benchOpts.InputLen)
	units := funcsim.BytesToUnits(w.Input, 4)
	for _, sum := range []bool{false, true} {
		name := "flush"
		if sum {
			name = "summarize"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig(4)
			cfg.SummarizeOnFull = sum
			m := mustMachine(b, w, cfg)
			md := report.NewSunder(m.Reports(), m.Config())
			b.SetBytes(int64(len(w.Input)))
			b.ResetTimer()
			var overhead float64
			for i := 0; i < b.N; i++ {
				m.Reset()
				md.Reset()
				res := m.Run(units, core.RunOptions{OnReportCycle: md.OnReportCycle})
				overhead = md.Result().Overhead(res.KernelCycles)
			}
			b.ReportMetric(overhead, "overhead-x")
		})
	}
}

func BenchmarkAblationRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationRate(benchOpts, []string{"Snort", "SPM"})
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintAblationRate(io.Discard, rows)
	}
}

func BenchmarkAblationReportWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationReportWidth(benchOpts, []int{8, 12, 16})
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintAblationReportWidth(io.Discard, rows)
	}
}

func BenchmarkAblationCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AblationCover(benchOpts, []string{"Protomata", "Snort"})
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintAblationCover(io.Discard, rows)
	}
}

// Extension-study benches.

func BenchmarkExtensionPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.PowerStudy(benchOpts, []string{"Snort", "SPM", "ClamAV"})
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintPowerStudy(io.Discard, rows)
	}
}

func BenchmarkExtensionWide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := exp.WideStudy(20, 3, 4000)
		if err != nil {
			b.Fatal(err)
		}
		exp.FprintWideStudy(io.Discard, row)
	}
}

// Pipeline microbenchmarks.

func BenchmarkCompile(b *testing.B) {
	patterns := []Pattern{
		{Expr: `GET /[a-z]+ HTTP`, Code: 1},
		{Expr: `a(b|c)+d{2,4}`, Code: 2},
		{Expr: `\x00\xff.*end`, Code: 3},
	}
	for i := 0; i < b.N; i++ {
		if _, err := Compile(patterns, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformRate4(b *testing.B) {
	w := workload.MustGet("Snort", benchOpts.Scale, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform.ToRate(w.Automaton, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileWorkload times one cold CompileAutomaton on the rule sets
// of the dfa_thrash and prefilter_hit bench rows, at their scale and options:
// the transform, symbol classes, DFA plan, placement and configuration that
// setup_s pays before the first scan.
func BenchmarkCompileWorkload(b *testing.B) {
	for _, c := range []struct {
		name      string
		prefilter bool
	}{{"SPM", false}, {"EntityResolution", true}} {
		w := workload.MustGet(c.name, 0.02, 64)
		opts := DefaultOptions()
		if c.prefilter {
			opts.Prefilter = PrefilterOn
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ResetCompileCache()
				if _, err := CompileAutomaton(w.Automaton, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFuncsimSnort(b *testing.B) {
	w := workload.MustGet("Snort", benchOpts.Scale, benchOpts.InputLen)
	sim := funcsim.NewByteSimulator(w.Automaton)
	b.SetBytes(int64(len(w.Input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Reset()
		sim.Run(w.Input, funcsim.Options{})
	}
}

func BenchmarkMachineSnort(b *testing.B) {
	w := workload.MustGet("Snort", benchOpts.Scale, benchOpts.InputLen)
	m := mustMachine(b, w, core.DefaultConfig(4))
	units := funcsim.BytesToUnits(w.Input, 4)
	b.SetBytes(int64(len(w.Input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.Run(units, core.RunOptions{})
	}
}

func BenchmarkEngineScan(b *testing.B) {
	eng, err := Compile([]Pattern{
		{Expr: `needle`, Code: 1},
		{Expr: `ha+ystack`, Code: 2},
	}, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	input := make([]byte, 64*1024)
	for i := range input {
		input[i] = byte('a' + i%17)
	}
	copy(input[1000:], "needle")
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Scan(input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanPrefilterHit is the benchmark's prefilter_hit row as a
// testing.B: EntityResolution (rule scale 0.02) prefiltered, Backend "auto",
// an 8 KiB literal-dense input whose candidate windows would cover nearly
// all of it, scanned by a warm engine. The scan stops looking for literals
// at the first checkpoint (Stats.PrefilterStoppedAt) and runs the input on
// the lazy DFA as one window, so the op is about the unfiltered scan plus
// 1 KiB of Aho-Corasick. It reads no field newer than the rule, so it
// times a parent checkout too.
func BenchmarkScanPrefilterHit(b *testing.B) {
	w := workload.MustGet("EntityResolution", 0.02, 8<<10)
	opts := DefaultOptions()
	opts.Backend, opts.Prefilter = "auto", PrefilterOn
	eng, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Scan(w.Input); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(w.Input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Scan(w.Input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanNFADense is the benchmark's nfa_dense row as a testing.B:
// Snort (rule scale 0.02) forced onto the bitvec NFA core, Backend "nfa", a
// 4 KiB input at about 1.7 matches per byte, so core stepping, the report
// model and match assembly are the whole cost. The engine is warm. It uses
// only API older than the shared report table, so it times a parent
// checkout too.
func BenchmarkScanNFADense(b *testing.B) {
	w := workload.MustGet("Snort", 0.02, 4<<10)
	opts := DefaultOptions()
	opts.Backend = "nfa"
	eng, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Scan(w.Input)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(w.Input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = eng.Scan(w.Input); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Matches)), "matches/op")
}

// BenchmarkScanPrefilterSkip is the benchmark's prefilter_skip row as a
// testing.B: ClamAV (rule scale 0.02) prefiltered, Backend "auto", a 64 KiB
// input that holds no literal, so the literal scanner is the whole cost and
// every device cycle is skipped. The engine is warm.
func BenchmarkScanPrefilterSkip(b *testing.B) {
	w := workload.MustGet("ClamAV", 0.02, 64<<10)
	opts := DefaultOptions()
	opts.Backend, opts.Prefilter = "auto", PrefilterOn
	eng, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		b.Fatal(err)
	}
	res, err := eng.Scan(w.Input)
	if err != nil {
		b.Fatal(err)
	}
	if res.Stats.PrefilterWindows != 0 {
		b.Fatalf("input is not literal-free: %d candidate windows", res.Stats.PrefilterWindows)
	}
	b.SetBytes(int64(len(w.Input)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Scan(w.Input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPrefilter times a 64 KiB stream in 1,460-byte writes, the
// stream_chunks row's write size, prefiltered and unfiltered on both
// substrates, over a bounded rule set: on a literal-dense input, where a
// prefiltered stream stops looking at the first checkpoint and goes live;
// on a literal-free one, all of whose cycles it skips; and on one with a
// literal every 4 KiB, where it runs a window per hit. The engines are
// warm.
func BenchmarkStreamPrefilter(b *testing.B) {
	patterns := []Pattern{{Expr: `needle[0-9]x`, Code: 1}, {Expr: `haystack`, Code: 2}}
	sparse := bytes.Repeat(append(bytes.Repeat([]byte("abcdefgh"), 511), "needle.."...), 16)
	for _, in := range []struct {
		name  string
		input []byte
	}{{"dense", bytes.Repeat([]byte("needle.."), 8<<10)}, {"free", bytes.Repeat([]byte("abcdefgh"), 8<<10)}, {"sparse", sparse}} {
		for _, backend := range []string{"dfa", "nfa"} {
			for _, pre := range []PrefilterMode{PrefilterOn, PrefilterOff} {
				opts := DefaultOptions()
				opts.Backend, opts.Prefilter = backend, pre
				eng, err := Compile(patterns, opts)
				if err != nil {
					b.Fatal(err)
				}
				stream := func() {
					st, err := eng.NewStream(nil)
					if err != nil {
						b.Fatal(err)
					}
					for off := 0; off < len(in.input); off += 1460 {
						if _, err := st.Write(in.input[off:min(off+1460, len(in.input))]); err != nil {
							b.Fatal(err)
						}
					}
					st.Close()
				}
				name := fmt.Sprintf("%s/%s/prefilter=%t", in.name, backend, pre == PrefilterOn)
				b.Run(name, func(b *testing.B) {
					stream()
					b.SetBytes(int64(len(in.input)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						stream()
					}
				})
			}
		}
	}
}

// BenchmarkTelemetryOverhead measures the cost of the telemetry hooks on
// the machine and report-model hot paths in their three modes: detached
// (the default; the guard branch only), counters attached, and counters
// plus event tracing, read against "off".
func BenchmarkTelemetryOverhead(b *testing.B) {
	w := workload.MustGet("Snort", benchOpts.Scale, benchOpts.InputLen)
	units := funcsim.BytesToUnits(w.Input, 4)
	for _, mode := range []string{"off", "counters", "trace"} {
		b.Run(mode, func(b *testing.B) {
			m := mustMachine(b, w, core.DefaultConfig(4))
			var col *telemetry.Collector
			switch mode {
			case "counters":
				col = telemetry.NewCollector()
			case "trace":
				col = telemetry.NewCollector()
				col.EnableTrace(0)
			}
			md := report.NewSunder(m.Reports(), m.Config())
			m.AttachTelemetry(col)
			md.AttachTelemetry(col)
			b.SetBytes(int64(len(w.Input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset()
				md.Reset()
				if col != nil {
					col.Reset()
				}
				m.Run(units, core.RunOptions{OnReportCycle: md.OnReportCycle})
			}
		})
	}
}

// BenchmarkSpanOverhead measures the wall-clock span tracer's cost on the
// parallel scan path in its three modes: spans off (nil tracer — the
// instrumentation sites must reduce to free nil checks), 1-in-16 sampling
// (the production setting), and every-request tracing. "off" is the
// spans-disabled hot path the acceptance criteria pin against the
// untraced baseline.
func BenchmarkSpanOverhead(b *testing.B) {
	eng, err := Compile([]Pattern{
		{Expr: `needle`, Code: 1},
		{Expr: `ha+ystack`, Code: 2},
	}, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	input := make([]byte, 64*1024)
	for i := range input {
		input[i] = byte('a' + i%17)
	}
	copy(input[1000:], "needle")
	for _, mode := range []struct {
		name   string
		sample int
	}{
		{"off", 0},
		{"sampled-16", 16},
		{"all", 1},
	} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.sample > 0 {
				tel := NewTelemetry(TelemetryOptions{Spans: true, SpanSampleEvery: mode.sample})
				eng.SetTelemetry(tel)
				defer eng.SetTelemetry(nil)
			}
			b.SetBytes(int64(len(input)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.ScanParallel(input, ScanOptions{Workers: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Parallel-scan and compile-cache benches (DESIGN.md §4.9).

// BenchmarkEngineScanParallel is the facade-level counterpart of
// BenchmarkEngineScan: the same input through Scan ("sequential") and
// ScanParallel, across worker counts, on the machine and on the lazy DFA,
// plus a Levenshtein mesh (bounded dependence window, 128 KiB) on the
// machine, where sharding has cycles to win back. Every rule set has a
// bounded dependence window, so the input cuts into up to one share per
// worker, which the "shares" metric reports (an unbounded rule such as
// `ha+ystack` would run one share at every worker count).
func BenchmarkEngineScanParallel(b *testing.B) {
	type benchCase struct {
		name  string
		eng   *Engine
		input []byte
	}
	var cases []benchCase
	input := make([]byte, 64*1024)
	for i := range input {
		input[i] = byte('a' + i%17)
	}
	copy(input[1000:], "needle")
	for _, backend := range []string{"nfa", "dfa"} {
		opts := DefaultOptions()
		opts.Backend = backend
		eng, err := Compile([]Pattern{
			{Expr: `needle`, Code: 1},
			{Expr: `ha{1,4}ystack`, Code: 2},
		}, opts)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, benchCase{backend, eng, input})
	}
	w := workload.MustGet("Levenshtein", 0.05, 1<<17)
	opts := DefaultOptions()
	opts.Backend = "nfa"
	lev, err := CompileAutomaton(w.Automaton, opts)
	if err != nil {
		b.Fatal(err)
	}
	cases = append(cases, benchCase{"levenshtein/nfa", lev, w.Input})

	for _, c := range cases {
		b.Run(c.name+"/sequential", func(b *testing.B) {
			b.SetBytes(int64(len(c.input)))
			for i := 0; i < b.N; i++ {
				if _, err := c.eng.Scan(c.input); err != nil {
					b.Fatal(err)
				}
			}
		})
		total := c.eng.geo.cycles(int64(len(c.input)))
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(b *testing.B) {
				shares := len(c.eng.geo.cuts([]sched.CycleSpan{{End: total}}, workers, total)) - 1
				if workers == 2 && shares != 2 {
					b.Fatalf("Workers 2 cut the input into %d shares, want 2", shares)
				}
				b.SetBytes(int64(len(c.input)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.eng.ScanParallel(c.input, ScanOptions{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(shares), "shares")
			})
		}
	}
}

// BenchmarkCompileCache quantifies what the compiled-machine cache saves:
// a miss pays the full compile/transform/place pipeline, a hit only a
// machine clone.
func BenchmarkCompileCache(b *testing.B) {
	patterns := []Pattern{
		{Expr: `GET /[a-z]+ HTTP`, Code: 1},
		{Expr: `a(b|c)+d{2,4}`, Code: 2},
	}
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ResetCompileCache()
			if _, err := CompileCached(patterns, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		ResetCompileCache()
		if _, err := CompileCached(patterns, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := CompileCached(patterns, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// mustMachine builds a workload's machine (core.Build).
func mustMachine(b *testing.B, w *workload.Workload, cfg core.Config) *core.Machine {
	b.Helper()
	ua, err := transform.ToRate(w.Automaton, cfg.Rate)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.Build(ua, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}
