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
	b := &BackendFlags{}
	if b.Enabled() {
		t.Error("zero value enabled")
	}
	if err := b.Validate(); err != nil {
		t.Errorf("empty backend: %v", err)
	}
	for _, name := range []string{"auto", "nfa", "dfa"} {
		b = &BackendFlags{Backend: name}
		if !b.Enabled() {
			t.Errorf("-backend %s not enabled", name)
		}
		if err := b.Validate(); err != nil {
			t.Errorf("-backend %s: %v", name, err)
		}
	}
	// "parallel" named a backend once; a tool's -par flag is how to shard.
	for _, name := range []string{"hybrid", "parallel"} {
		b = &BackendFlags{Backend: name}
		if err := b.Validate(); err == nil {
			t.Errorf("unknown backend %q accepted", name)
		}
	}
}
