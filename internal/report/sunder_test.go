package report

import (
	"testing"

	"sunder/internal/automata"
)

// reportCycles is the report-cycle trace of a machine's report stream, the
// stream report models consume.
type reportCycle struct {
	cycle  int64
	states []automata.StateID
}

// snortReportCycles returns the report cycles of Snort at rate 4, the
// device the nfa_dense workload of the repository benchmark runs, and a
// FIFO model of that device.
func snortReportCycles(tb testing.TB, inputLen int) ([]reportCycle, *Sunder) {
	m, units := workloadMachine(tb, "Snort", 4, inputLen)
	var rcs []reportCycle
	for c, states := range machineStream(m, units) {
		if len(states) > 0 {
			rcs = append(rcs, reportCycle{int64(c), states})
		}
	}
	cfg := m.Config()
	cfg.FIFO = true
	return rcs, NewSunder(m.Placement(), cfg)
}

// BenchmarkReportModel is the cost of the reporting model per report cycle
// fed, on Snort's rate-4 stream with the FIFO drain (quiet gaps caught up
// at the next report cycle); allocs/op must stay 0.
func BenchmarkReportModel(b *testing.B) {
	rcs, md := snortReportCycles(b, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	k := 0
	for i := 0; i < b.N; i++ {
		if k == len(rcs) {
			k = 0
			md.Reset()
		}
		md.OnReportCycle(rcs[k].cycle, rcs[k].states)
		k++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/report-cycle")
}

// TestModelZeroAllocs pins the report path at zero allocations per report
// cycle once its scratch has grown.
func TestModelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	rcs, md := snortReportCycles(t, 8<<10)
	k := 0
	feed := func() {
		if k == len(rcs) {
			k = 0
			md.Reset()
		}
		md.OnReportCycle(rcs[k].cycle, rcs[k].states)
		k++
	}
	for range rcs {
		feed()
	}
	if got := testing.AllocsPerRun(2000, feed); got != 0 {
		t.Errorf("%.2f allocs per report cycle, want 0", got)
	}
}
