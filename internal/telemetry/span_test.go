package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSpanTreeBasics records a small request-shaped tree and checks
// linkage, ordering and the exported forms.
func TestSpanTreeBasics(t *testing.T) {
	tr := NewSpanTracer(16, 1)
	root := tr.Root("scan")
	root.SetAttr(`ruleset="nids"`)
	wait := root.Child("pool_wait")
	wait.End()
	run := root.Child("run")
	shard := run.Child("shard")
	shard.End()
	run.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["pool_wait"].Parent != byName["scan"].ID {
		t.Errorf("pool_wait parent = %d, want %d", byName["pool_wait"].Parent, byName["scan"].ID)
	}
	if byName["shard"].Parent != byName["run"].ID {
		t.Errorf("shard parent = %d, want %d", byName["shard"].Parent, byName["run"].ID)
	}
	if byName["run"].Parent != byName["scan"].ID {
		t.Errorf("run parent = %d, want %d", byName["run"].Parent, byName["scan"].ID)
	}
	if byName["scan"].Parent != 0 {
		t.Errorf("root has parent %d", byName["scan"].Parent)
	}
	if byName["scan"].Attr != `ruleset="nids"` {
		t.Errorf("root attr = %q", byName["scan"].Attr)
	}
	// Children start no earlier than their parent and end no later (all
	// times come from one monotonic epoch).
	for _, name := range []string{"pool_wait", "run"} {
		c, p := byName[name], byName["scan"]
		if c.Start < p.Start || c.End() > p.End() {
			t.Errorf("%s [%d,%d] not contained in root [%d,%d]",
				name, c.Start, c.End(), p.Start, p.End())
		}
	}

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("JSONL: %d lines, want 4", len(lines))
	}
	for _, line := range lines {
		var sp Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
	}

	var chrome bytes.Buffer
	if err := WriteMergedChromeTrace(&chrome, nil, tr); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, chrome.String())
	}
	evs, ok := doc["traceEvents"].([]any)
	if !ok || len(evs) < 5 { // process_name meta + 4 spans
		t.Fatalf("chrome trace has %d events, want >= 5", len(evs))
	}
}

// TestSpanSamplingAndNilSafety: a 1-in-N sampled tracer records exactly
// every Nth root, nil roots produce nil children, and every method on a
// nil tracer/span is a safe no-op.
func TestSpanSamplingAndNilSafety(t *testing.T) {
	tr := NewSpanTracer(1024, 4)
	live := 0
	for i := 0; i < 16; i++ {
		sp := tr.Root("req")
		if sp != nil {
			live++
			sp.Child("stage").End()
			sp.End()
		} else {
			// Unsampled: children of nil are nil and all methods no-op.
			c := sp.Child("stage")
			c.SetAttr("x=1")
			c.End()
			sp.End()
		}
	}
	if live != 4 {
		t.Errorf("sampled %d of 16 roots, want 4", live)
	}
	if got := len(tr.Spans()); got != 8 {
		t.Errorf("recorded %d spans, want 8", got)
	}

	var nilTracer *SpanTracer
	if sp := nilTracer.Root("x"); sp != nil {
		t.Error("nil tracer produced a live span")
	}
	if n, dropped := nilTracer.Stats(); nilTracer.Spans() != nil || nilTracer.Dropped() != 0 || n != 0 || dropped != 0 {
		t.Error("nil tracer snapshot not empty")
	}
	nilTracer.Reset()
	if err := nilTracer.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

// TestSpanDisabledZeroAlloc pins the spans-off contract: the nil paths
// allocate nothing, so instrumentation sites are free when tracing is off.
func TestSpanDisabledZeroAlloc(t *testing.T) {
	var tr *SpanTracer
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Root("req")
		c := sp.Child("stage")
		c.SetAttr("k=v")
		c.End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

// TestSpanCapacityAndReset: the buffer drops beyond capacity and Reset
// restores recording.
func TestSpanCapacityAndReset(t *testing.T) {
	tr := NewSpanTracer(2, 1)
	for i := 0; i < 5; i++ {
		tr.Root("r").End()
	}
	if got := len(tr.Spans()); got != 2 {
		t.Errorf("%d spans buffered, want 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Errorf("%d dropped, want 3", got)
	}
	if n, dropped := tr.Stats(); n != 2 || dropped != 3 {
		t.Errorf("Stats = %d buffered, %d dropped, want 2 and 3", n, dropped)
	}
	tr.Reset()
	if len(tr.Spans()) != 0 || tr.Dropped() != 0 {
		t.Error("reset did not clear the buffer")
	}
	tr.Root("r").End()
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("post-reset recording broken: %d spans", got)
	}
}

// TestSpanConcurrentEmission hammers one tracer from many goroutines
// (run under -race in CI) and asserts structural integrity: unique ids,
// every recorded child's parent recorded, and child intervals contained
// in their parents'.
func TestSpanConcurrentEmission(t *testing.T) {
	tr := NewSpanTracer(1<<16, 1)
	var wg sync.WaitGroup
	const workers, perWorker = 8, 50
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				root := tr.Root("req")
				root.SetAttr(fmt.Sprintf("worker=%d i=%d", g, i))
				for s := 0; s < 3; s++ {
					c := root.Child("stage")
					c.Child("leaf").End()
					c.End()
				}
				root.End()
			}
		}(g)
	}
	wg.Wait()

	spans := tr.Spans()
	if want := workers * perWorker * 7; len(spans) != want {
		t.Fatalf("%d spans, want %d", len(spans), want)
	}
	byID := make(map[uint64]Span, len(spans))
	for _, sp := range spans {
		if _, dup := byID[sp.ID]; dup {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		byID[sp.ID] = sp
	}
	roots := 0
	for _, sp := range spans {
		if sp.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Fatalf("span %d has unrecorded parent %d", sp.ID, sp.Parent)
		}
		if sp.Start < p.Start || sp.End() > p.End() {
			t.Fatalf("span %d [%d,%d] escapes parent %d [%d,%d]",
				sp.ID, sp.Start, sp.End(), p.ID, p.Start, p.End())
		}
	}
	if roots != workers*perWorker {
		t.Errorf("%d roots, want %d", roots, workers*perWorker)
	}
}

// TestMergedChromeTrace merges device cycle events and wall-clock spans
// into one valid trace document with both process ids present.
func TestMergedChromeTrace(t *testing.T) {
	dev := NewTracer(16)
	dev.Record(Event{Cycle: 10, PU: 0, Kind: EventReportWrite, Occ: 1})
	dev.Record(Event{Cycle: 20, PU: 1, Kind: EventFlush, Stall: 30, Occ: 0})
	spans := NewSpanTracer(16, 1)
	sp := spans.Root("scan")
	sp.Child("pool_wait").End()
	sp.End()

	var buf bytes.Buffer
	if err := WriteMergedChromeTrace(&buf, dev, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			PID  int    `json:"pid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace invalid JSON: %v\n%s", err, buf.String())
	}
	pids := map[int]bool{}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
		names[ev.Name] = true
	}
	if !pids[0] || !pids[spanChromePID] {
		t.Errorf("merged trace pids = %v, want both 0 and %d", pids, spanChromePID)
	}
	for _, want := range []string{"report_write", "flush", "scan", "pool_wait"} {
		if !names[want] {
			t.Errorf("merged trace missing event %q", want)
		}
	}

	// Nil tracers are fine on either side.
	if err := WriteMergedChromeTrace(&bytes.Buffer{}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestChromeTraceTids pins the rows a span forest lands on: one tid per
// recorded root, numbered in completion order, shared by its whole
// subtree, and tid 0 for a subtree whose parent chain is partial (here a
// root still open at export).
func TestChromeTraceTids(t *testing.T) {
	spans := NewSpanTracer(64, 1)
	a := spans.Root("a")
	a1 := a.Child("a1")
	a1.Child("a1x").End()
	a1.End()
	open := spans.Root("open")
	b1 := open.Child("b1")
	b1.Child("b1x").End()
	b1.End()
	a.End()
	c := spans.Root("c")
	c.Child("c1").End()
	c.End()

	var buf bytes.Buffer
	if err := WriteMergedChromeTrace(&buf, nil, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			TID  int    `json:"tid"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace invalid JSON: %v\n%s", err, buf.String())
	}
	got := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			got[ev.Name] = ev.TID
		}
	}
	want := map[string]int{"a": 1, "a1": 1, "a1x": 1, "b1": 0, "b1x": 0, "c": 2, "c1": 2}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tids = %v, want %v", got, want)
	}
}
