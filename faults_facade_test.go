package sunder

import (
	"strings"
	"testing"
)

func faultPatterns() []Pattern {
	return []Pattern{{Expr: `ab+c`, Code: 1}, {Expr: `zz`, Code: 2}}
}

func faultInput() []byte {
	return []byte(strings.Repeat("xabbczzy", 120))
}

// TestGuardedScanMatchesUnguarded is the façade-level acceptance check: a
// scan that recovers from injected faults returns exactly the matches of a
// fault-free scan.
func TestGuardedScanMatchesUnguarded(t *testing.T) {
	opts := DefaultOptions()
	want, err := func() (*ScanResult, error) {
		eng, err := Compile(faultPatterns(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng.Scan(faultInput())
	}()
	if err != nil {
		t.Fatal(err)
	}

	eng, err := Compile(faultPatterns(), opts)
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultFaultPolicy()
	pol.CheckpointInterval = 16
	pol.MatchFlipRate = 0.005
	pol.ReportFlipRate = 0.005
	pol.Seed = 5
	if err := eng.SetFaultPolicy(&pol); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Scan(faultInput())
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults == nil {
		t.Fatal("guarded scan returned no fault report")
	}
	if got.Faults.Injected == 0 {
		t.Fatal("expected injections at these rates (seed-dependent; adjust seed)")
	}
	if got.Faults.Detected == 0 {
		t.Fatal("injected faults but detected none")
	}
	if got.Faults.Slowdown < 1 {
		t.Fatalf("slowdown %v < 1", got.Faults.Slowdown)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("guarded scan found %d matches, fault-free %d", len(got.Matches), len(want.Matches))
	}
	for i := range got.Matches {
		if got.Matches[i] != want.Matches[i] {
			t.Fatalf("match %d: guarded %+v, fault-free %+v", i, got.Matches[i], want.Matches[i])
		}
	}
	if got.Stats.Reports != want.Stats.Reports || got.Stats.ReportCycles != want.Stats.ReportCycles {
		t.Fatalf("guarded stats %+v != fault-free %+v", got.Stats, want.Stats)
	}
}

// TestGuardedScanDetectionOnly arms the guard with no injection: a pure
// detection overlay must not change results or report activity.
func TestGuardedScanDetectionOnly(t *testing.T) {
	eng, err := Compile(faultPatterns(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Scan(faultInput())
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultFaultPolicy()
	if err := eng.SetFaultPolicy(&pol); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Scan(faultInput())
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults == nil || got.Faults.Injected != 0 || got.Faults.Detected != 0 {
		t.Fatalf("detection-only fault report: %+v", got.Faults)
	}
	if got.Faults.Slowdown != 1 {
		t.Fatalf("detection-only slowdown %v, want 1", got.Faults.Slowdown)
	}
	if len(got.Matches) != len(want.Matches) {
		t.Fatalf("detection-only scan found %d matches, plain %d", len(got.Matches), len(want.Matches))
	}
	// Disarming restores the plain path.
	if err := eng.SetFaultPolicy(nil); err != nil {
		t.Fatal(err)
	}
	plain, err := eng.Scan(faultInput())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Faults != nil {
		t.Fatal("fault report present after disarming")
	}
}

// TestGuardedStream checks the streaming path: matches arrive at window
// commits and agree with a fault-free scan.
func TestGuardedStream(t *testing.T) {
	eng, err := Compile(faultPatterns(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Scan(faultInput())
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultFaultPolicy()
	pol.CheckpointInterval = 16
	pol.MatchFlipRate = 0.005
	pol.Seed = 9
	if err := eng.SetFaultPolicy(&pol); err != nil {
		t.Fatal(err)
	}
	var got []Match
	st, err := eng.NewStream(func(m Match) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	input := faultInput()
	for off := 0; off < len(input); off += 37 {
		end := off + 37
		if end > len(input) {
			end = len(input)
		}
		if _, err := st.Write(input[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Close()
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	fr := st.Faults()
	if fr == nil || fr.Injected == 0 {
		t.Fatalf("stream fault report %+v; expected injections (seed-dependent)", fr)
	}
	if len(got) != len(want.Matches) {
		t.Fatalf("guarded stream found %d matches, fault-free scan %d", len(got), len(want.Matches))
	}
	for i := range got {
		if got[i] != want.Matches[i] {
			t.Fatalf("match %d: stream %+v, scan %+v", i, got[i], want.Matches[i])
		}
	}
	if stats.Reports != want.Stats.Reports {
		t.Fatalf("stream reports %d, scan %d", stats.Reports, want.Stats.Reports)
	}
}

func TestSetFaultPolicyValidates(t *testing.T) {
	eng, err := Compile(faultPatterns(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultFaultPolicy()
	bad.MatchFlipRate = 2
	if err := eng.SetFaultPolicy(&bad); err == nil {
		t.Fatal("expected validation error")
	}
	if eng.FaultPolicySet() {
		t.Fatal("rejected policy must not arm the engine")
	}
}

// TestGuardedTelemetryCountsCommittedReports: under the guard the report
// reducer sits behind the commit callback, so device_reports /
// device_report_cycles equal Stats.Reports / ReportCycles on Scan and
// Stream alike — rolled-back attempts are never counted, and the counters
// no longer stay at zero.
func TestGuardedTelemetryCountsCommittedReports(t *testing.T) {
	eng, err := Compile(faultPatterns(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Scan(faultInput())
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryOptions{})
	eng.SetTelemetry(tel)
	pol := DefaultFaultPolicy()
	pol.CheckpointInterval = 16
	pol.MatchFlipRate = 0.005
	pol.ReportFlipRate = 0.005
	pol.Seed = 5
	if err := eng.SetFaultPolicy(&pol); err != nil {
		t.Fatal(err)
	}
	check := func(label string, stats Stats) {
		t.Helper()
		if stats.Reports != want.Stats.Reports || stats.ReportCycles != want.Stats.ReportCycles {
			t.Errorf("%s: reports %d/%d, fault-free %d/%d", label,
				stats.Reports, stats.ReportCycles, want.Stats.Reports, want.Stats.ReportCycles)
		}
		if got := tel.CounterValue("device_reports"); got != stats.Reports {
			t.Errorf("%s: device_reports = %d, Stats.Reports = %d", label, got, stats.Reports)
		}
		if got := tel.CounterValue("device_report_cycles"); got != stats.ReportCycles {
			t.Errorf("%s: device_report_cycles = %d, Stats.ReportCycles = %d", label, got, stats.ReportCycles)
		}
	}
	got, err := eng.Scan(faultInput())
	if err != nil {
		t.Fatal(err)
	}
	if got.Faults.Detected == 0 {
		t.Fatal("no fault detected: the rollback path is not exercised (seed-dependent; adjust seed)")
	}
	check("scan", got.Stats)

	tel.Reset()
	st, err := eng.NewStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	input := faultInput()
	for off := 0; off < len(input); off += 37 {
		if _, err := st.Write(input[off:min(off+37, len(input))]); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Close()
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	check("stream", stats)
}
