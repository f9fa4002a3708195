package exp

import (
	"strings"
	"testing"

	"sunder/internal/mapping"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

func TestPowerStudy(t *testing.T) {
	rows, err := PowerStudy(testOpts, []string{"Snort", "ClamAV"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	snort, clam := rows[0], rows[1]
	// Snort reports nearly every cycle; ClamAV never. AP-style reporting
	// power must separate them, Sunder only slightly.
	if snort.APMW <= clam.APMW {
		t.Errorf("AP power: Snort %.2f <= ClamAV %.2f", snort.APMW, clam.APMW)
	}
	if snort.SunderMW <= clam.SunderMW {
		t.Errorf("Sunder power should still rise with reporting")
	}
	apDelta := snort.APMW - clam.APMW
	sunderDelta := snort.SunderMW - clam.SunderMW
	if sunderDelta >= apDelta {
		t.Errorf("Sunder reporting power delta %.2f not below AP's %.2f", sunderDelta, apDelta)
	}
	var sb strings.Builder
	FprintPowerStudy(&sb, rows)
	if !strings.Contains(sb.String(), "pJ/B") {
		t.Error("print missing header")
	}
}

func TestCapacityPlan(t *testing.T) {
	w := workload.MustGet("SPM", 0.02, 64)
	ua, err := transform.ToRate(w.Automaton, 4)
	if err != nil {
		t.Fatal(err)
	}
	place, err := mapping.Place(ua, 12)
	if err != nil {
		t.Fatal(err)
	}
	dev := mapping.DefaultDevice()
	plan, err := dev.Plan(place)
	if err != nil {
		t.Fatal(err)
	}
	if plan.RequiredPUs != place.NumPUs {
		t.Errorf("plan PUs = %d, placement %d", plan.RequiredPUs, place.NumPUs)
	}
	if plan.Rounds != 1 {
		t.Errorf("SPM at small scale should fit one round, got %d", plan.Rounds)
	}
	if f := plan.EffectiveThroughputFactor(1_000_000); f <= 0 || f > 1 {
		t.Errorf("throughput factor = %v", f)
	}

	// A tiny device forces multiple rounds and a throughput hit.
	small := mapping.Device{PUs: 4, ReconfigureCyclesPerPU: 512}
	plan2, err := small.Plan(place)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Rounds < 2 {
		t.Errorf("small device rounds = %d", plan2.Rounds)
	}
	if plan2.EffectiveThroughputFactor(1_000_000) >= plan.EffectiveThroughputFactor(1_000_000) {
		t.Error("more rounds did not lower throughput")
	}
	if _, err := (mapping.Device{PUs: 2}).Plan(place); err == nil {
		t.Error("sub-cluster device accepted")
	}
	if plan2.EffectiveThroughputFactor(0) != 1 {
		t.Error("zero-cycle factor not 1")
	}
}
