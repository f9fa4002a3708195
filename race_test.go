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

// TestScanConcurrentSequentialAndBatch audits the contract the docs make
// for the parallel paths: ScanBatch (and ScanParallel) never touch the
// engine's shared machine, so they may overlap a sequential Scan that is
// mutating it. With telemetry attached, the batch paths must read the
// collector through the engine's atomic mirror — reaching into e.machine
// for it is exactly the access this test would flag under -race if it
// crept back in.
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
	// Sequential scans mutate the shared machine the whole time.
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
	// Batch and parallel scans overlap them, on the same engine and on a
	// clone (which must also carry the telemetry-free pristine machine).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := eng
			if g%2 == 1 {
				e = eng.Clone()
			}
			got, err := e.ScanBatch(inputs, ScanOptions{Workers: 3})
			if err != nil {
				t.Errorf("batch %d: %v", g, err)
				return
			}
			for i := range inputs {
				sameScan(t, fmt.Sprintf("batch %d input %d", g, i), got[i], wants[i])
			}
			par, err := e.ScanParallel(seqInput, ScanOptions{Workers: 2})
			if err != nil {
				t.Errorf("parallel %d: %v", g, err)
				return
			}
			sameScan(t, fmt.Sprint("parallel ", g), par, seqWant)
		}(g)
	}
	wg.Wait()
}

// TestConcurrentStreamsOnClones drives one stream per engine clone from
// separate goroutines — the documented pattern for concurrent streaming.
func TestConcurrentStreamsOnClones(t *testing.T) {
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
			clone := eng.Clone()
			var matches int
			s, err := clone.NewStream(func(Match) { matches++ })
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
