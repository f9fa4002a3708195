package meta

import (
	"strings"
	"testing"
)

func TestKnown(t *testing.T) {
	for _, ok := range []string{"", "auto", "nfa", "dfa"} {
		if !Known(ok) {
			t.Errorf("Known(%q) = false", ok)
		}
	}
	// "parallel" named a backend once; ScanParallel is how to shard.
	for _, bad := range []string{"NFA", "hybrid", "off", "auto ", "lazy-dfa", "parallel"} {
		if Known(bad) {
			t.Errorf("Known(%q) = true", bad)
		}
	}
}

func TestSelectDispatch(t *testing.T) {
	base := Inputs{
		ByteStates: 100, DeviceStates: 300, ReportStates: 4,
		Rate: 4, SymbolUnits: 2,
		SymbolClasses: 17, DFASupported: true,
	}
	cases := []struct {
		name   string
		mutate func(*Inputs)
		want   string
		reason string
	}{
		{"small supported -> dfa", func(*Inputs) {}, BackendDFA, "cached transitions"},
		{"unsupported rate -> nfa", func(in *Inputs) {
			in.DFASupported = false
			in.DFAReason = "rate below symbol units (cycles split bytes)"
		}, BackendNFA, "rate below symbol units"},
		{"huge -> nfa", func(in *Inputs) {
			in.DeviceStates = 20000
		}, BackendNFA, "too large to determinize"},
		{"huge unsupported -> nfa", func(in *Inputs) {
			in.DeviceStates = 20000
			in.DFASupported = false
		}, BackendNFA, "dfa unsupported"},
		{"mid-size supported -> nfa", func(in *Inputs) {
			in.DeviceStates = MaxDFADeviceStates + 1
		}, BackendNFA, "too large to determinize"},
		{"boundary stays dfa", func(in *Inputs) {
			in.DeviceStates = MaxDFADeviceStates
		}, BackendDFA, "cached transitions"},
	}
	for _, tc := range cases {
		in := base
		tc.mutate(&in)
		got := Select(in)
		if got.Backend != tc.want {
			t.Errorf("%s: got %q want %q (reason %q)", tc.name, got.Backend, tc.want, got.Reason)
		}
		if !strings.Contains(got.Reason, tc.reason) {
			t.Errorf("%s: reason %q does not mention %q", tc.name, got.Reason, tc.reason)
		}
		if s := got.String(); !strings.HasPrefix(s, got.Backend) || !strings.Contains(s, "auto:") {
			t.Errorf("%s: String() = %q", tc.name, s)
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	in := Inputs{DeviceStates: 500, DFASupported: true, SymbolClasses: 8}
	first := Select(in)
	for i := 0; i < 10; i++ {
		if got := Select(in); got != first {
			t.Fatalf("Select is not a pure function: %+v vs %+v", got, first)
		}
	}
}
