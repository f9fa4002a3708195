package sunder

import (
	"strings"
	"testing"
)

// TestPrefilterTelemetryExact pins the counter contract: across filtered
// scans — sequential and parallel — the scanned/skipped cycle counters
// partition the input exactly, and every prefilter counter surfaces in the
// WriteMetrics text dump.
func TestPrefilterTelemetryExact(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: `alert[0-9]`, Code: 5}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.pre.enabled() {
		t.Fatalf("filter not enabled: %s", eng.Info().PrefilterStrategy)
	}
	tel := NewTelemetry(TelemetryOptions{})
	eng.SetTelemetry(tel)

	input := []byte(strings.Repeat("background traffic ", 300) + "alert7" +
		strings.Repeat(" more background", 200))
	var wantTotal, wantScans int64
	for _, workers := range []int{1, 2, 4} {
		res, err := eng.ScanParallel(input, ScanOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SkippedCycles == 0 {
			t.Fatalf("workers=%d: filter skipped nothing: %+v", workers, res.Stats)
		}
		wantTotal += res.Stats.KernelCycles + res.Stats.SkippedCycles
		wantScans++
		scanned := tel.CounterValue(MetricPrefilterScans)
		cycles := tel.CounterValue(MetricPrefilterScannedCycles) +
			tel.CounterValue(MetricPrefilterSkippedCycles)
		if scanned != wantScans {
			t.Errorf("workers=%d: %s = %d, want %d", workers, MetricPrefilterScans, scanned, wantScans)
		}
		// The partition is exact, not approximate: scanned + skipped must
		// reconstruct every padded input cycle across all scans so far, with
		// no double count from shard warm-up overlap.
		if cycles != wantTotal {
			t.Errorf("workers=%d: scanned+skipped = %d, want %d", workers, cycles, wantTotal)
		}
	}
	if hits := tel.CounterValue(MetricPrefilterHits); hits != wantScans {
		t.Errorf("%s = %d, want %d (one planted literal per scan)", MetricPrefilterHits, hits, wantScans)
	}
	if w := tel.CounterValue(MetricPrefilterWindows); w != wantScans {
		t.Errorf("%s = %d, want %d", MetricPrefilterWindows, w, wantScans)
	}
	if b := tel.CounterValue(MetricPrefilterBailouts); b != 0 {
		t.Errorf("%s = %d on a one-literal input, want 0", MetricPrefilterBailouts, b)
	}

	var sb strings.Builder
	if err := tel.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		MetricPrefilterScans, MetricPrefilterHits, MetricPrefilterWindows,
		MetricPrefilterScannedCycles, MetricPrefilterSkippedCycles, MetricPrefilterBailouts,
	} {
		if !strings.Contains(sb.String(), name) {
			t.Errorf("WriteMetrics output missing %s:\n%s", name, sb.String())
		}
	}
}

// TestPrefilterTelemetryStream pins the same partition for the streaming
// path: one stream, one prefilter scan record, cycles partitioned exactly.
func TestPrefilterTelemetryStream(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: `alert[0-9]`, Code: 5}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTelemetry(TelemetryOptions{})
	eng.SetTelemetry(tel)
	st, err := eng.NewStream(nil)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte(strings.Repeat("quiet ", 500) + "alert1" + strings.Repeat(" quiet", 500))
	for off := 0; off < len(input); off += 64 {
		end := off + 64
		if end > len(input) {
			end = len(input)
		}
		if _, err := st.Write(input[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Close()
	if got := tel.CounterValue(MetricPrefilterScans); got != 1 {
		t.Errorf("%s = %d, want 1", MetricPrefilterScans, got)
	}
	cycles := tel.CounterValue(MetricPrefilterScannedCycles) +
		tel.CounterValue(MetricPrefilterSkippedCycles)
	if want := stats.KernelCycles + stats.SkippedCycles; cycles != want {
		t.Errorf("stream scanned+skipped counters = %d, want %d", cycles, want)
	}
}

// TestNotePrefilterDetachedZeroAlloc pins the disabled-telemetry cost:
// recording into a nil collector must not allocate (and so cannot slow the
// detached hot path).
func TestNotePrefilterDetachedZeroAlloc(t *testing.T) {
	allocs := testing.AllocsPerRun(1000, func() {
		notePrefilter(nil, 3, 2, 100, 900, true)
	})
	if allocs != 0 {
		t.Fatalf("notePrefilter(nil, ...) allocates %v per call, want 0", allocs)
	}
}
