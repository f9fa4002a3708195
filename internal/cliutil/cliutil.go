// Package cliutil holds the observability flag plumbing shared by the
// cmd/ binaries: runtime/pprof capture (-cpuprofile/-memprofile),
// device-telemetry emission (-metrics/-trace), and the engine-selection
// and analysis flags.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"sunder/internal/telemetry"
)

// Profiles carries the -cpuprofile/-memprofile flag values.
type Profiles struct {
	CPU string
	Mem string
}

// ProfileFlags registers -cpuprofile and -memprofile on the default flag
// set. Call Start after flag.Parse.
func ProfileFlags() *Profiles {
	p := &Profiles{}
	flag.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling if requested and returns a function that
// finalizes both profiles; call it (or defer it) on the success path.
func (p *Profiles) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// TelemetryFlags carries the -metrics/-trace flag values.
type TelemetryFlags struct {
	Metrics bool
	Trace   string
}

// RegisterTelemetryFlags registers -metrics and -trace on the default
// flag set.
func RegisterTelemetryFlags() *TelemetryFlags {
	t := &TelemetryFlags{}
	flag.BoolVar(&t.Metrics, "metrics", false, "print device counters (per-PU and aggregate) after the run")
	flag.StringVar(&t.Trace, "trace", "", "write a Chrome trace_event JSON file of device events to this path")
	return t
}

// Enabled reports whether any telemetry output was requested.
func (t *TelemetryFlags) Enabled() bool { return t.Metrics || t.Trace != "" }

// Collector builds a collector matching the requested outputs, or nil if
// none were requested.
func (t *TelemetryFlags) Collector() *telemetry.Collector {
	if !t.Enabled() {
		return nil
	}
	col := telemetry.NewCollector()
	if t.Trace != "" {
		col.EnableTrace(0)
	}
	return col
}

// ParallelFlags carries the -par/-workers flag values for the sharded
// parallel scan path.
type ParallelFlags struct {
	// Par enables the parallel comparison / study.
	Par bool
	// Workers is the worker count; 0 selects GOMAXPROCS.
	Workers int
}

// RegisterParallelFlags registers -par and -workers on the default flag
// set.
func RegisterParallelFlags() *ParallelFlags {
	p := &ParallelFlags{}
	flag.BoolVar(&p.Par, "par", false, "run the sharded parallel scan path alongside the sequential one")
	flag.IntVar(&p.Workers, "workers", 0, "parallel scan worker count (0 = GOMAXPROCS)")
	return p
}

// Enabled reports whether parallel execution was requested, either
// explicitly (-par) or implicitly by naming a worker count.
func (p *ParallelFlags) Enabled() bool { return p.Par || p.Workers > 0 }

// EffectiveWorkers resolves the worker count, defaulting to GOMAXPROCS.
func (p *ParallelFlags) EffectiveWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BackendFlags carries the -backend flag value: the software scan
// engine's execution substrate, passed to Options.Backend as it is (the
// engine's compile is the one check of the name).
type BackendFlags struct {
	// Backend is "auto", "nfa", "dfa", or "" for the tool's default
	// behaviour.
	Backend string
}

// RegisterBackendFlag registers -backend on the default flag set.
func RegisterBackendFlag() *BackendFlags {
	b := &BackendFlags{}
	flag.StringVar(&b.Backend, "backend", "",
		`software engine backend: "auto" (the lazy DFA where supported), "nfa" or "dfa" ("" = tool default)`)
	return b
}

// Enabled reports whether a backend was requested.
func (b *BackendFlags) Enabled() bool { return b.Backend != "" }

// AnalysisFlags carries the -lint/-minimize flag values for the static
// automaton analyzer.
type AnalysisFlags struct {
	// Lint runs the IR analyzer over the compiled automaton and prints
	// its report; error-severity findings make the tool exit non-zero.
	Lint bool
	// Minimize runs the certified ruleset minimizer (dead-state pruning,
	// bisimulation merging, cross-rule prefix collapse, symbol-class
	// compression) before placement; the equivalence certificate is
	// verified during compile.
	Minimize bool
}

// RegisterAnalysisFlags registers -lint and -minimize on the default flag
// set.
func RegisterAnalysisFlags() *AnalysisFlags {
	a := &AnalysisFlags{}
	flag.BoolVar(&a.Lint, "lint", false, "run the static IR analyzer on the compiled automaton and print its report")
	flag.BoolVar(&a.Minimize, "minimize", false, "run the certified ruleset minimizer (prune+bisimulation+prefix collapse) before placement, verifying its equivalence certificate")
	return a
}

// Emit writes the requested outputs: the metrics dump to w and the
// Chrome trace to the -trace path. A nil collector is a no-op.
func (t *TelemetryFlags) Emit(w io.Writer, col *telemetry.Collector) error {
	if col == nil {
		return nil
	}
	if t.Metrics {
		fmt.Fprintf(w, "\ndevice counters:\n")
		if err := col.WriteMetrics(w); err != nil {
			return err
		}
	}
	if t.Trace != "" {
		tr := col.Tracer()
		f, err := os.Create(t.Trace)
		if err != nil {
			return err
		}
		if err := telemetry.WriteMergedChromeTrace(f, tr, nil); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		n, dropped := tr.Stats()
		fmt.Fprintf(w, "\nwrote %d trace events to %s (%d dropped); load in chrome://tracing or Perfetto\n",
			n, t.Trace, dropped)
	}
	return nil
}
