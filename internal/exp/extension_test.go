package exp

import (
	"strings"
	"testing"
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
