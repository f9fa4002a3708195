package sunder

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"sunder/internal/report"
)

// denseEngine compiles a pattern that reports on every 'a' byte without
// the FIFO drain, so report regions fill and flush deterministically.
func denseEngine(t *testing.T) (*Engine, []byte) {
	t.Helper()
	eng, err := Compile([]Pattern{{Expr: `a`, Code: 1}}, Options{Rate: 4, FIFO: false})
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("a"), 8192)
	return eng, input
}

func TestScanResultPerPU(t *testing.T) {
	eng, input := denseEngine(t)
	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerPU) != eng.Info().PUs {
		t.Fatalf("PerPU has %d entries, engine has %d PUs", len(res.PerPU), eng.Info().PUs)
	}
	var flushes, stalls, entries int64
	for i, pu := range res.PerPU {
		if pu.PU != i {
			t.Errorf("PerPU[%d].PU = %d", i, pu.PU)
		}
		flushes += pu.Flushes
		stalls += pu.StallCycles
		entries += pu.ReportEntries
	}
	if flushes != res.Stats.Flushes {
		t.Errorf("per-PU flushes %d != Stats.Flushes %d", flushes, res.Stats.Flushes)
	}
	if stalls != res.Stats.StallCycles {
		t.Errorf("per-PU stalls %d != Stats.StallCycles %d", stalls, res.Stats.StallCycles)
	}
	if res.Stats.Flushes == 0 || entries == 0 {
		t.Fatalf("dense scan did not exercise the report region (flushes=%d entries=%d)",
			res.Stats.Flushes, entries)
	}
}

func TestTelemetryMetricsAndTrace(t *testing.T) {
	eng, input := denseEngine(t)
	tel := NewTelemetry(TelemetryOptions{Trace: true})
	eng.SetTelemetry(tel)
	defer eng.SetTelemetry(nil)

	res, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}

	var metrics bytes.Buffer
	if err := tel.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	out := metrics.String()
	for _, want := range []string{
		"device_kernel_cycles", "device_stall_cycles", "device_reports",
		`pu_flushes{pu="0"}`, "pu_flushes_total", "pu_stall_cycles_total",
		"report_region_occupancy_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics dump missing %q:\n%s", want, out)
		}
	}

	// Aggregate lines must agree with ScanResult.Stats.
	wantLines := map[string]int64{
		"device_kernel_cycles":  res.Stats.KernelCycles,
		"device_stall_cycles":   res.Stats.StallCycles,
		"device_reports":        res.Stats.Reports,
		"device_report_cycles":  res.Stats.ReportCycles,
		"pu_flushes_total":      res.Stats.Flushes,
		"pu_stall_cycles_total": res.Stats.StallCycles,
	}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if want, ok := wantLines[fields[0]]; ok {
			got, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad metric line %q", line)
			}
			if got != want {
				t.Errorf("%s = %d, want %d", fields[0], got, want)
			}
			delete(wantLines, fields[0])
		}
	}
	if len(wantLines) != 0 {
		t.Errorf("metrics dump missing aggregate lines: %v", wantLines)
	}

	// The Chrome trace must be valid JSON with flush and report events
	// carrying cycle timestamps.
	var trace bytes.Buffer
	if err := tel.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	kinds := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if name, ok := ev["name"].(string); ok {
			kinds[name]++
		}
	}
	if kinds["report_write"] == 0 || kinds["flush"] == 0 {
		t.Errorf("trace kinds = %v, want report_write and flush events", kinds)
	}

	if n, dropped := tel.TraceEvents(); n == 0 || dropped != 0 {
		t.Errorf("TraceEvents = %d buffered, %d dropped", n, dropped)
	}

	// JSONL: one valid object per line.
	var jsonl bytes.Buffer
	if err := tel.WriteTraceJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("empty JSONL trace")
	}
	var obj map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("JSONL line not valid JSON: %v", err)
	}

	// Reset clears; a second scan repopulates identically.
	tel.Reset()
	if n, _ := tel.TraceEvents(); n != 0 {
		t.Errorf("trace not cleared by Reset: %d events", n)
	}
	if _, err := eng.Scan(input); err != nil {
		t.Fatal(err)
	}
	var metrics2 bytes.Buffer
	if err := tel.WriteMetrics(&metrics2); err != nil {
		t.Fatal(err)
	}
	if metrics2.String() != out {
		t.Error("second identical scan after Reset produced different metrics")
	}
}

func TestTelemetryDisabledPathUnchanged(t *testing.T) {
	eng, input := denseEngine(t)
	base, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryOptions{Trace: true})
	eng.SetTelemetry(tel)
	withTel, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetTelemetry(nil)
	after, err := eng.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats != withTel.Stats || base.Stats != after.Stats {
		t.Errorf("stats differ across telemetry attach/detach:\n%+v\n%+v\n%+v",
			base.Stats, withTel.Stats, after.Stats)
	}
	// Detached scans must not feed the collector.
	n1, _ := tel.TraceEvents()
	if _, err := eng.Scan(input); err != nil {
		t.Fatal(err)
	}
	if n2, _ := tel.TraceEvents(); n2 != n1 {
		t.Errorf("detached scan recorded %d new events", n2-n1)
	}
}

func TestStatsRenderers(t *testing.T) {
	s := Stats{KernelCycles: 100, StallCycles: 25, Flushes: 3, Reports: 7, ReportCycles: 5}
	str := s.String()
	for _, want := range []string{"100 kernel", "25 stall", "1.2500x", "7 reports", "3 flushes"} {
		if !strings.Contains(str, want) {
			t.Errorf("Stats.String() = %q missing %q", str, want)
		}
	}
	var buf bytes.Buffer
	if err := s.WriteText(&buf, 16); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"overhead 1.2500x", "Gbit/s", "7 reports in 5 report cycles"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("WriteText output %q missing %q", buf.String(), want)
		}
	}
}

// TestTelemetryStreamCountersEqualStats extends the counters-equal-Stats
// check from Scan to Stream: device_reports / device_report_cycles are
// counted by the report reducer, so a stream (plain or prefiltered) feeds
// them exactly like a scan instead of leaving them at zero.
func TestTelemetryStreamCountersEqualStats(t *testing.T) {
	patterns := []Pattern{{Expr: `ab`, Code: 1}, {Expr: `b+c`, Code: 2}}
	input := []byte("xxabxxbbcxxabcab")
	for _, pre := range []PrefilterMode{PrefilterOff, PrefilterOn} {
		opts := DefaultOptions()
		opts.Prefilter = pre
		eng, err := Compile(patterns, opts)
		if err != nil {
			t.Fatal(err)
		}
		tel := NewTelemetry(TelemetryOptions{})
		eng.SetTelemetry(tel)
		res, err := eng.Scan(input)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Reports != 5 || res.Stats.ReportCycles != 4 {
			t.Fatalf("prefilter=%d: scan reports %d/%d, want 5/4", pre, res.Stats.Reports, res.Stats.ReportCycles)
		}
		for _, chunk := range []int{1, 5, len(input)} {
			tel.Reset()
			st, err := eng.NewStream(nil)
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(input); off += chunk {
				if _, err := st.Write(input[off:min(off+chunk, len(input))]); err != nil {
					t.Fatal(err)
				}
			}
			stats := st.Close()
			if stats.Reports != res.Stats.Reports || stats.ReportCycles != res.Stats.ReportCycles {
				t.Errorf("prefilter=%d chunk=%d: stream reports %d/%d, scan %d/%d", pre, chunk,
					stats.Reports, stats.ReportCycles, res.Stats.Reports, res.Stats.ReportCycles)
			}
			if got := tel.CounterValue("device_reports"); got != stats.Reports {
				t.Errorf("prefilter=%d chunk=%d: device_reports = %d, Stats.Reports = %d", pre, chunk, got, stats.Reports)
			}
			if got := tel.CounterValue("device_report_cycles"); got != stats.ReportCycles {
				t.Errorf("prefilter=%d chunk=%d: device_report_cycles = %d, Stats.ReportCycles = %d", pre, chunk, got, stats.ReportCycles)
			}
			if pre == PrefilterOff {
				if got := tel.CounterValue("device_kernel_cycles"); got != stats.KernelCycles {
					t.Errorf("chunk=%d: device_kernel_cycles = %d, Stats.KernelCycles = %d", chunk, got, stats.KernelCycles)
				}
			}
		}
	}
}

// TestPooledRunnerTelemetryFollowsTaker: a machine runner on the artifact's
// free list belongs to no engine. Released by one engine and taken by a
// clone with another collector, it counts device cycles, reports and the
// report model's stalls into the taker's collector only.
func TestPooledRunnerTelemetryFollowsTaker(t *testing.T) {
	eng, input := denseEngine(t)
	telA, telB := NewTelemetry(TelemetryOptions{}), NewTelemetry(TelemetryOptions{})
	eng.SetTelemetry(telA)
	counters := func(tel *Telemetry) [4]int64 {
		return [4]int64{tel.CounterValue("device_kernel_cycles"), tel.CounterValue("device_reports"),
			tel.CounterValue("device_report_cycles"), tel.CounterValue(report.MetricStallCycles)}
	}
	want := func(st Stats) [4]int64 { return [4]int64{st.KernelCycles, st.Reports, st.ReportCycles, st.StallCycles} }
	resA, err := eng.ScanBatch([][]byte{input}, ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := counters(telA); got != want(resA[0].Stats) || got[3] == 0 {
		t.Fatalf("releasing engine's collector: %v, its scan's stats %v", got, want(resA[0].Stats))
	}
	pooled := idleRunnerList(eng)
	if len(pooled) != 1 || pooled[0].m == nil || pooled[0].m.Telemetry() != nil {
		t.Fatalf("free list holds %d runners, want one machine runner detached from telemetry", len(pooled))
	}
	clone := eng.Clone()
	clone.SetTelemetry(telB)
	before := counters(telA)
	resB, err := clone.ScanBatch([][]byte{input}, ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if after := idleRunnerList(eng); len(after) != 1 || after[0] != pooled[0] {
		t.Fatal("the clone's batch did not run on the released runner")
	}
	if got := counters(telA); got != before {
		t.Errorf("releasing engine's collector moved from %v to %v on the clone's scan", before, got)
	}
	if got := counters(telB); got != want(resB[0].Stats) {
		t.Errorf("taker's collector: %v, its scan's stats %v", got, want(resB[0].Stats))
	}
}
