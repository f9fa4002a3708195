package sunder

import (
	"bytes"
	"strings"
	"testing"

	"sunder/internal/workload"
)

// TestSpanDifferential is the acceptance criterion for span tracing: a
// traced engine — at any sample rate, with or without the cycle-level
// event trace — must produce byte-identical results to an untraced one
// on every scan path. Spans observe the serve and scheduling layers;
// they must never reach into scan semantics.
func TestSpanDifferential(t *testing.T) {
	names := []string{"Snort", "Levenshtein", "RandomForest"}
	if testing.Short() {
		names = names[:1]
	}
	const inputLen = 6000
	for _, name := range names {
		w, err := workload.Get(name, workload.DefaultScale, inputLen)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := CompileAutomaton(w.Automaton, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batch := [][]byte{w.Input[:inputLen/2], w.Input[inputLen/2:], w.Input}

		baseSeq, err := eng.Scan(w.Input)
		if err != nil {
			t.Fatal(err)
		}
		basePar, err := eng.ScanParallel(w.Input, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		baseBatch, err := eng.ScanBatch(batch, ScanOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}

		for _, mode := range []struct {
			label string
			opts  TelemetryOptions
		}{
			{"spans-all", TelemetryOptions{Spans: true, SpanSampleEvery: 1}},
			{"spans-sampled", TelemetryOptions{Spans: true, SpanSampleEvery: 4}},
			{"spans+trace", TelemetryOptions{Spans: true, SpanSampleEvery: 1, Trace: true}},
		} {
			tel := NewTelemetry(mode.opts)
			eng.SetTelemetry(tel)

			seq, err := eng.Scan(w.Input)
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(baseSeq.Matches, seq.Matches) ||
				seq.Stats != baseSeq.Stats {
				t.Errorf("%s/%s: sequential scan diverged under tracing", name, mode.label)
			}
			par, err := eng.ScanParallel(w.Input, ScanOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if !matchesEqual(basePar.Matches, par.Matches) ||
				par.Stats != basePar.Stats {
				t.Errorf("%s/%s: parallel scan diverged under tracing", name, mode.label)
			}
			got, err := eng.ScanBatch(batch, ScanOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !matchesEqual(baseBatch[i].Matches, got[i].Matches) ||
					got[i].Stats != baseBatch[i].Stats {
					t.Errorf("%s/%s: batch input %d diverged under tracing", name, mode.label, i)
				}
			}

			// Record-all modes must actually have recorded the scheduler
			// spans; sampling keeps a subset (possibly empty at rate 4
			// over few roots, so only the rate-1 modes are asserted).
			buffered, dropped := tel.SpanStats()
			if mode.opts.SpanSampleEvery == 1 && buffered == 0 {
				t.Errorf("%s/%s: no spans recorded", name, mode.label)
			}
			if dropped != 0 {
				t.Errorf("%s/%s: %d spans dropped with default capacity", name, mode.label, dropped)
			}
			eng.SetTelemetry(nil)
		}
	}
}

// TestSpanExportsFromScan pins the export surface over a real scan: the
// scheduler spans come out as JSONL and as pid-1 events in the merged
// Chrome document, alongside the device cycle trace on pid 0.
func TestSpanExportsFromScan(t *testing.T) {
	w, err := workload.Get("Snort", workload.DefaultScale, 4000)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := CompileAutomaton(w.Automaton, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryOptions{Spans: true, SpanSampleEvery: 1, Trace: true})
	eng.SetTelemetry(tel)
	defer eng.SetTelemetry(nil)
	if _, err := eng.ScanParallel(w.Input, ScanOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}

	var jsonl bytes.Buffer
	if err := tel.WriteSpansJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"parallel_run"`, `"name":"shard"`, `"name":"warmup"`} {
		if !strings.Contains(jsonl.String(), want) {
			t.Errorf("span JSONL missing %s:\n%s", want, jsonl.String())
		}
	}

	var merged bytes.Buffer
	if err := tel.WriteMergedChromeTrace(&merged); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"pid":0`, `"pid":1`, `"name":"parallel_run"`} {
		if !strings.Contains(merged.String(), want) {
			t.Errorf("merged Chrome trace missing %s", want)
		}
	}
}
