package cliutil

import (
	"runtime"
	"testing"
)

func TestParallelFlags(t *testing.T) {
	p := &ParallelFlags{}
	if p.Enabled() {
		t.Error("zero value enabled")
	}
	if got, want := p.EffectiveWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("EffectiveWorkers = %d, want GOMAXPROCS %d", got, want)
	}
	p = &ParallelFlags{Par: true}
	if !p.Enabled() {
		t.Error("-par not enabled")
	}
	p = &ParallelFlags{Workers: 3}
	if !p.Enabled() {
		t.Error("-workers 3 not enabled")
	}
	if got := p.EffectiveWorkers(); got != 3 {
		t.Errorf("EffectiveWorkers = %d, want 3", got)
	}
}

func TestBackendFlags(t *testing.T) {
	if (&BackendFlags{}).Enabled() {
		t.Error("zero value enabled")
	}
	for _, name := range []string{"auto", "nfa", "dfa"} {
		if !(&BackendFlags{Backend: name}).Enabled() {
			t.Errorf("-backend %s not enabled", name)
		}
	}
}
