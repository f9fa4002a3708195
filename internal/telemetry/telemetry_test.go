package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("kernel_cycles")
	c.Inc()
	c.Add(9)
	if got := c.Load(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("kernel_cycles") != c {
		t.Fatal("re-registration returned a different counter")
	}

	v := r.CounterVec("pu_flushes", 4)
	v.Inc(0)
	v.Add(3, 5)
	if v.Sum() != 6 {
		t.Fatalf("vec sum = %d, want 6", v.Sum())
	}
	// Growing keeps existing values.
	v2 := r.CounterVec("pu_flushes", 8)
	if v2.Load(3) != 5 || v2.Len() != 8 {
		t.Fatalf("after grow: cell3=%d len=%d", v2.Load(3), v2.Len())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("occ", []int64{10, 20, 30})
	for _, v := range []int64{1, 10, 11, 25, 31, 1000} {
		h.Observe(v)
	}
	_, counts := h.Buckets()
	want := []int64{2, 1, 1, 2} // <=10, <=20, <=30, overflow
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, c, want[i], counts)
		}
	}
	if h.Count() != 6 || h.Sum() != 1078 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Mean() != 1078.0/6 {
		t.Fatalf("mean=%v", h.Mean())
	}
}

func TestLinearBounds(t *testing.T) {
	b := LinearBounds(100, 4)
	want := []int64{25, 50, 75, 100}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", b, want)
		}
	}
	// Tiny max values deduplicate instead of emitting repeated bounds.
	b = LinearBounds(2, 8)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing: %v", b)
		}
	}
}

func TestRegistryWriteAndReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("cycles").Add(42)
	v := r.CounterVec("pu_reports", 2)
	v.Add(0, 3)
	v.Add(1, 4)
	r.Histogram("occ", []int64{8, 16}).Observe(9)

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"cycles 42",
		`pu_reports{pu="0"} 3`,
		`pu_reports{pu="1"} 4`,
		"pu_reports_total 7",
		`occ_bucket{le="16"} 1`,
		`occ_bucket{le="+Inf"} 1`,
		"occ_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}

	r.Reset()
	if r.Counter("cycles").Load() != 0 || v.Sum() != 0 {
		t.Fatal("reset did not zero instruments")
	}
}

// TestCounterValueRegistersNothing: reading a counter nobody registered
// returns 0 and leaves the dump as it was.
func TestCounterValueRegistersNothing(t *testing.T) {
	r := NewRegistry()
	r.Counter("cycles").Add(42)
	var before, after bytes.Buffer
	if _, err := r.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	if got := r.CounterValue("cycles"); got != 42 {
		t.Errorf("CounterValue(cycles) = %d, want 42", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Errorf("CounterValue(absent) = %d, want 0", got)
	}
	if _, err := r.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Errorf("CounterValue changed the dump:\nbefore:\n%s\nafter:\n%s", &before, &after)
	}
}

func TestTracerCapacityAndJSONL(t *testing.T) {
	tr := NewTracer(2)
	tr.Record(Event{Cycle: 1, PU: 0, Kind: EventReportWrite, Occ: 1})
	tr.Record(Event{Cycle: 5, PU: 3, Kind: EventFlush, Stall: 27})
	tr.Record(Event{Cycle: 9, PU: 0, Kind: EventReportWrite})
	if n, dropped := tr.Stats(); n != 2 || dropped != 1 || len(tr.Events()) != 2 {
		t.Fatalf("Stats = %d events, %d dropped; Events holds %d", n, dropped, len(tr.Events()))
	}

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d", len(lines))
	}
	var ev map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if ev["kind"] != "flush" || ev["cycle"] != float64(5) || ev["stall"] != float64(27) {
		t.Fatalf("decoded event = %v", ev)
	}

	if allocs := testing.AllocsPerRun(100, func() { tr.Stats() }); allocs != 0 {
		t.Errorf("Stats on a full tracer allocates %.1f per call, want 0", allocs)
	}

	tr.Reset()
	if n, dropped := tr.Stats(); n != 0 || dropped != 0 || len(tr.Events()) != 0 {
		t.Fatal("tracer reset incomplete")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	tr := NewTracer(0)
	tr.Record(Event{Cycle: 1, PU: 0, Kind: EventReportWrite, Occ: 1})
	tr.Record(Event{Cycle: 2, PU: 1, Kind: EventStrideMarker, Occ: 1})
	tr.Record(Event{Cycle: 7, PU: 1, Kind: EventOverflow, Stall: 3, Occ: 40})
	tr.Record(Event{Cycle: 9, PU: 0, Kind: EventSummarize, Stall: 12, Occ: 0})

	var buf bytes.Buffer
	if err := WriteMergedChromeTrace(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v\n%s", err, buf.String())
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if name, ok := ev["name"].(string); ok {
			kinds[name] = true
		}
		ph := ev["ph"].(string)
		if ph == "X" && ev["dur"].(float64) <= 0 {
			t.Errorf("complete event without duration: %v", ev)
		}
		if ph != "M" {
			if _, ok := ev["ts"].(float64); !ok {
				t.Errorf("event without ts: %v", ev)
			}
		}
	}
	for _, want := range []string{"report_write", "stride_marker", "fifo_overflow", "summarize"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events (have %v)", want, kinds)
		}
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EventReportWrite, EventStrideMarker, EventFlush, EventOverflow, EventSummarize} {
		if strings.Contains(k.String(), "event(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}
