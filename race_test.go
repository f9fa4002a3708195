package sunder

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
)

// The tests in this file are concurrency hammers: they are meaningful
// under `go test -race` (CI runs them so), and double as functional
// checks — every concurrent result must still equal the sequential one.

// TestScanParallelConcurrent runs many ScanParallel calls on one engine at
// once; all must agree with the sequential reference.
func TestScanParallelConcurrent(t *testing.T) {
	eng, err := Compile([]Pattern{
		{Expr: "abcab", Code: 1},
		{Expr: "b[cd]a", Code: 2},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("abcabdca"), 3000)
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := eng.ScanParallel(input, ScanOptions{Workers: 1 + (g+i)%4})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				sameScan(t, fmt.Sprint("goroutine ", g), got, want)
			}
		}(g)
	}
	wg.Wait()
}

// TestScanBatchConcurrent overlaps two batch scans on one engine.
func TestScanBatchConcurrent(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: "abca", Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 16)
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte("xabcay"), 100+50*i)
	}
	wants := make([]*ScanResult, len(inputs))
	for i, in := range inputs {
		w, err := eng.Scan(in)
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := eng.ScanBatch(inputs, ScanOptions{Workers: 4})
			if err != nil {
				t.Errorf("batch %d: %v", g, err)
				return
			}
			for i := range inputs {
				sameScan(t, fmt.Sprintf("batch %d input %d", g, i), got[i], wants[i])
			}
		}(g)
	}
	wg.Wait()
}

// TestDFAPoolConcurrent hammers the runner free list the artifact shares,
// on both substrates: batch and parallel scans from eight goroutines over
// four clones of one engine take and return the same pooled runners, and
// every result must equal a fresh engine's Scan — on the first pass, which
// builds the runners (and the lazy DFA's caches), and on the second, which
// is served from whatever the list kept of them (warm ≡ cold; the order of
// one cycle's matches is the substrate's, so sets compare; on the machine
// the per-PU rows compare too). Afterwards the list holds distinct runners,
// no more than the calls ever held at once.
func TestDFAPoolConcurrent(t *testing.T) {
	patterns := []Pattern{{Expr: `ab+c`, Code: 1}, {Expr: `b[cd]a`, Code: 2}, {Expr: `x.y`, Code: 3}}
	for _, backend := range []string{"nfa", "dfa"} {
		opts := DefaultOptions()
		opts.Backend = backend
		inputs := make([][]byte, 12)
		wants := make([]*ScanResult, len(inputs))
		for i := range inputs {
			inputs[i] = bytes.Repeat([]byte("xabbcayybdax-y"), 40+30*i)[i:]
			fresh, err := Compile(patterns, opts)
			if err != nil {
				t.Fatal(err)
			}
			if wants[i], err = fresh.Scan(inputs[i]); err != nil || len(wants[i].Matches) == 0 {
				t.Fatalf("%s: reference %d: %v, %d matches", backend, i, err, len(wants[i].Matches))
			}
		}
		eng, err := Compile(patterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, i int, got *ScanResult) {
			want := wants[i]
			if !matchesEqual(sortedMatches(got.Matches), sortedMatches(want.Matches)) || got.Stats != want.Stats || !reflect.DeepEqual(got.PerPU, want.PerPU) {
				t.Errorf("%s: %s input %d: %d matches, stats %+v; a fresh engine has %d, %+v",
					backend, label, i, len(got.Matches), got.Stats, len(want.Matches), want.Stats)
			}
		}
		engines := []*Engine{eng, eng.Clone(), eng.Clone(), eng.Clone()}
		for _, pass := range []string{"cold", "warm"} {
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					e := engines[g%len(engines)]
					label := fmt.Sprintf("%s batch %d", pass, g)
					if g%2 == 1 {
						for i, in := range inputs {
							got, err := e.ScanParallel(in, ScanOptions{Workers: 3})
							if err != nil {
								t.Errorf("%s: %s parallel %d: %v", backend, pass, g, err)
								return
							}
							check(fmt.Sprintf("%s parallel %d", pass, g), i, got)
						}
						return
					}
					got, err := e.ScanBatch(inputs, ScanOptions{Workers: 3})
					if err != nil {
						t.Errorf("%s: %s: %v", backend, label, err)
						return
					}
					for i := range wants {
						check(label, i, got[i])
					}
				}(g)
			}
			wg.Wait()
		}
		idle := idleRunnerList(eng)
		distinct := map[*runner]bool{}
		for _, rn := range idle {
			distinct[rn] = true
		}
		if len(distinct) != len(idle) || len(idle) > 8*3 {
			t.Errorf("%s: free list holds %d runners, %d distinct; at most 8 calls x 3 workers ran at once", backend, len(idle), len(distinct))
		}
	}
}

// TestScanConcurrentSequentialAndBatch: Scan, ScanBatch and ScanParallel
// overlap on one engine with telemetry attached. Every call runs on
// runners of its own — Scan on the engine's slot runner or, while another
// Scan holds it, one from the free list — and reads the collector from the
// engine's atomic pointer; a runner shared between two calls, or a
// collector read from a runner another call is stepping, is what -race
// flags here.
func TestScanConcurrentSequentialAndBatch(t *testing.T) {
	eng, err := Compile([]Pattern{
		{Expr: "abcab", Code: 1},
		{Expr: "b[cd]a", Code: 2},
	}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryOptions{})
	eng.SetTelemetry(tel)

	seqInput := bytes.Repeat([]byte("abcabdca"), 2000)
	seqWant, err := eng.Scan(seqInput)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]byte, 12)
	wants := make([]*ScanResult, len(inputs))
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte("xabcabdy"), 120+60*i)
		if wants[i], err = eng.Scan(inputs[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Two goroutines of Scans contend for the engine's slot the whole time.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				got, err := eng.Scan(seqInput)
				if err != nil {
					t.Errorf("sequential scan %d: %v", i, err)
					return
				}
				sameScan(t, fmt.Sprint("sequential scan ", i), got, seqWant)
			}
		}()
	}
	// Batch and parallel scans overlap them on the same engine.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := eng.ScanBatch(inputs, ScanOptions{Workers: 3})
			if err != nil {
				t.Errorf("batch %d: %v", g, err)
				return
			}
			for i := range inputs {
				sameScan(t, fmt.Sprintf("batch %d input %d", g, i), got[i], wants[i])
			}
			par, err := eng.ScanParallel(seqInput, ScanOptions{Workers: 2})
			if err != nil {
				t.Errorf("parallel %d: %v", g, err)
				return
			}
			sameScan(t, fmt.Sprint("parallel ", g), par, seqWant)
		}(g)
	}
	wg.Wait()
}

// TestConcurrentStreamsOnOneEngine drives six streams on one engine from
// separate goroutines: each stream holds a runner of its own until Close.
func TestConcurrentStreamsOnOneEngine(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: "abab", Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("abab"), 2000)
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var matches int
			s, err := eng.NewStream(func(Match) { matches++ })
			if err != nil {
				t.Errorf("stream %d: %v", g, err)
				return
			}
			// Feed in ragged chunks to exercise the pending buffer.
			for off := 0; off < len(input); {
				n := 7 + (g+off)%93
				if off+n > len(input) {
					n = len(input) - off
				}
				if _, err := s.Write(input[off : off+n]); err != nil {
					t.Errorf("stream %d: %v", g, err)
					return
				}
				off += n
			}
			st := s.Close()
			if int64(matches) != want.Stats.Reports || st.Reports != want.Stats.Reports {
				t.Errorf("stream %d: %d matches / %d reports, want %d",
					g, matches, st.Reports, want.Stats.Reports)
			}
		}(g)
	}
	wg.Wait()
}

// TestTelemetryAggregationConcurrent checks the counter contract under
// maximum contention: concurrent parallel scans on a shared collector,
// with metric and trace snapshots racing against them.
func TestTelemetryAggregationConcurrent(t *testing.T) {
	eng, err := Compile([]Pattern{{Expr: "abcab", Code: 1}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("abcab"), 2000)
	want, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryOptions{Trace: true, TraceCapacity: 1 << 12})
	eng.SetTelemetry(tel)
	tel.Reset() // drop anything the reference scan recorded

	const scans = 6
	var wg sync.WaitGroup
	for g := 0; g < scans; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := eng.ScanParallel(input, ScanOptions{Workers: 4}); err != nil {
				t.Errorf("scan %d: %v", g, err)
			}
		}(g)
	}
	// Snapshot concurrently with the scans: must not race or crash.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := tel.WriteMetrics(io.Discard); err != nil {
				t.Errorf("WriteMetrics: %v", err)
			}
			if err := tel.WriteTraceJSONL(io.Discard); err != nil {
				t.Errorf("WriteTraceJSONL: %v", err)
			}
			tel.TraceEvents()
		}
	}()
	wg.Wait()

	var buf bytes.Buffer
	if err := tel.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	for metric, per := range map[string]int64{
		"device_kernel_cycles": want.Stats.KernelCycles,
		"device_reports":       want.Stats.Reports,
		"device_report_cycles": want.Stats.ReportCycles,
	} {
		wantLine := fmt.Sprintf("%s %d\n", metric, per*scans)
		if !bytes.Contains(buf.Bytes(), []byte(wantLine)) {
			t.Errorf("metrics missing %q (aggregation across workers off)\n%s", wantLine, buf.String())
		}
	}
}

// TestConcurrentCallersOneEngine: one engine serves every entry point at
// once. Goroutines mix Scan, NewStream/Write/Close, ScanBatch,
// ScanParallel, Summarize and SetTelemetry (with DFAStats and Info read
// alongside) on a single Engine, on both substrates, with and without the
// prefilter, and every result must be the functional simulator's: the
// same matches and the same Reports and ReportCycles.
func TestConcurrentCallersOneEngine(t *testing.T) {
	patterns := []Pattern{{Expr: `ab+c`, Code: 1}, {Expr: `b[cd]a`, Code: 2}, {Expr: `xy+z`, Code: 3}}
	input := bytes.Repeat([]byte("xabbcayybdaxyyz-q."), 60)[1:]
	short := []byte("..abc..xyz..")
	want := oracleRun(t, patterns, input)
	wantCodes := map[int32]bool{}
	for _, m := range oracleRun(t, patterns, short).Matches {
		wantCodes[m.Code] = true
	}
	if len(want.Matches) == 0 || len(wantCodes) != 2 {
		t.Fatalf("oracle: %d matches, codes %v", len(want.Matches), wantCodes)
	}
	check := func(label string, matches []Match, st Stats) {
		t.Helper()
		if !matchesEqual(sortedMatches(matches), want.Matches) || st.Reports != want.Stats.Reports || st.ReportCycles != want.Stats.ReportCycles {
			t.Errorf("%s: %d matches, %d reports in %d cycles; funcsim has %d, %d in %d", label,
				len(matches), st.Reports, st.ReportCycles, len(want.Matches), want.Stats.Reports, want.Stats.ReportCycles)
		}
	}
	for _, backend := range []string{"nfa", "dfa"} {
		for _, pre := range []PrefilterMode{PrefilterOff, PrefilterOn} {
			opts := DefaultOptions()
			opts.Backend, opts.Prefilter, opts.FIFO = backend, pre, false
			eng, err := Compile(patterns, opts)
			if err != nil {
				t.Fatal(err)
			}
			tels := []*Telemetry{NewTelemetry(TelemetryOptions{}), nil, NewTelemetry(TelemetryOptions{Trace: true, TraceCapacity: 1 << 10})}
			var wg sync.WaitGroup
			for g := 0; g < 12; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					label := fmt.Sprintf("%s/prefilter=%d/goroutine %d", backend, pre, g)
					for i := 0; i < 3; i++ {
						switch g % 6 {
						case 0:
							res, err := eng.Scan(input)
							if err != nil {
								t.Error(err)
								return
							}
							check(label+" Scan", res.Matches, res.Stats)
						case 1:
							var got []Match
							s, _ := eng.NewStream(func(m Match) { got = append(got, m) })
							for off := 0; off < len(input); off += 97 + g {
								if _, err := s.Write(input[off:min(off+97+g, len(input))]); err != nil {
									t.Error(err)
									return
								}
							}
							check(label+" Stream", got, s.Close())
						case 2:
							res, err := eng.ScanBatch([][]byte{input, input}, ScanOptions{Workers: 2})
							if err != nil {
								t.Error(err)
								return
							}
							for _, r := range res {
								check(label+" ScanBatch", r.Matches, r.Stats)
							}
						case 3:
							res, err := eng.ScanParallel(input, ScanOptions{Workers: 3})
							if err != nil {
								t.Error(err)
								return
							}
							check(label+" ScanParallel", res.Matches, res.Stats)
						case 4:
							got, err := eng.Summarize(short)
							if err != nil || !reflect.DeepEqual(got, wantCodes) {
								t.Errorf("%s Summarize: %v, %v; funcsim has %v", label, got, err, wantCodes)
							}
						case 5:
							eng.SetTelemetry(tels[(g/6+i)%len(tels)])
							_, _ = eng.DFAStats(), eng.Info()
							res, err := eng.Scan(input)
							if err != nil {
								t.Error(err)
								return
							}
							check(label+" Scan after SetTelemetry", res.Matches, res.Stats)
						}
					}
				}(g)
			}
			wg.Wait()
			if backend == "dfa" && eng.DFAStats().Hits == 0 {
				t.Errorf("%s/prefilter=%d: DFAStats counted no hit over every entry point", backend, pre)
			}
		}
	}
}
