// sunder-sim runs one benchmark workload end to end: functional simulation
// for the reporting statistics, the Sunder architectural simulator at the
// chosen rate, and the AP / AP+RAD baselines for comparison.
//
// Usage:
//
//	sunder-sim -benchmark Snort
//	sunder-sim -benchmark SPM -rate 2 -fifo=false -scale 0.05 -input 100000
//	sunder-sim -benchmark Hamming -par -workers 8
//	sunder-sim -benchmark Snort -trace /tmp/t.json -metrics
//	sunder-sim -benchmark Snort -cpuprofile cpu.out -memprofile mem.out
//	sunder-sim -list
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	"sunder"
	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/cliutil"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/report"
	"sunder/internal/sched"
	"sunder/internal/transform"
	"sunder/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sunder-sim: ")
	var (
		name      = flag.String("benchmark", "Snort", "benchmark name (see -list)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		scale     = flag.Float64("scale", workload.DefaultScale, "benchmark scale (0,1]")
		inputLen  = flag.Int("input", workload.DefaultInputLen, "input length in bytes")
		rate      = flag.Int("rate", 4, "processing rate in nibbles/cycle (1,2,4)")
		fifo      = flag.Bool("fifo", true, "enable the FIFO report drain")
		summarize = flag.Bool("summarize", false, "summarize on full instead of flushing")
		anFlags   = cliutil.RegisterAnalysisFlags()
		beFlags   = cliutil.RegisterBackendFlag()
		telFlags  = cliutil.RegisterTelemetryFlags()
		parFlags  = cliutil.RegisterParallelFlags()
		profiles  = cliutil.ProfileFlags()
	)
	flag.Parse()

	if *list {
		for _, s := range workload.All() {
			fmt.Printf("%-18s %-7s %6d states, %5d report states (paper, full scale)\n",
				s.Name, s.Family, s.PaperStates, s.PaperReportStates)
		}
		return
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}

	w, err := workload.Get(*name, *scale, *inputLen)
	if err != nil {
		log.Fatal(err)
	}
	// The façade engine compiles before the simulation runs, so a -backend
	// name it refuses fails at once. Without -backend only -par scans, on
	// the machine ("nfa").
	var eng *sunder.Engine
	if beFlags.Enabled() || parFlags.Enabled() {
		o := sunder.DefaultOptions()
		o.Rate = *rate
		o.FIFO = *fifo
		o.SummarizeOnFull = *summarize
		o.Minimize = anFlags.Minimize
		o.Backend = "nfa"
		if beFlags.Enabled() {
			o.Backend = beFlags.Backend
		}
		if eng, err = sunder.CompileAutomaton(w.Automaton, o); err != nil {
			log.Fatal(err)
		}
	}
	st := w.Automaton.ComputeStats()
	fmt.Printf("%s (%s): %d states, %d edges, %d report states, %d-byte input\n",
		w.Spec.Name, w.Spec.Family, st.States, st.Edges, st.ReportStates, len(w.Input))

	// Functional simulation + reporting baselines.
	p := report.DefaultParams()
	ap := report.NewAP(w.Automaton, p)
	rad := report.NewRAD(w.Automaton, p)
	sim := funcsim.NewByteSimulator(w.Automaton)
	res := sim.Run(w.Input, funcsim.Options{
		TrackActive: true,
		OnReportCycle: func(cycle int64, states []automata.StateID) {
			ap.OnReportCycle(cycle, states)
			rad.OnReportCycle(cycle, states)
		},
	})
	fmt.Printf("\nfunctional simulation (8-bit, VASim-equivalent):\n")
	fmt.Printf("  %d cycles, %d reports in %d report cycles (%.2f%% of cycles, burst %.2f)\n",
		res.Cycles, res.Reports, res.ReportCycles,
		100*res.ReportCycleFraction(), res.ReportsPerReportCycle())
	fmt.Printf("  peak simultaneously-active states: %d\n", res.MaxActive)

	// Sunder machine.
	ua, err := transform.ToRate(w.Automaton, *rate)
	if err != nil {
		log.Fatal(err)
	}
	if anFlags.Minimize {
		mres, err := analysis.MinimizeCertified(ua)
		if err != nil {
			log.Fatal(err)
		}
		sc, err := analysis.SymbolClassesCertified(w.Automaton)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nminimized %d state(s) (%d pruned, %d bisim, %d prefix) in %d round(s); certificate verified; %d symbol class(es)\n",
			mres.Removed(), mres.Pruned, mres.BisimMerged, mres.PrefixMerged, mres.Rounds, sc.Count())
	}
	cfg := core.DefaultConfig(*rate)
	cfg.FIFO = *fifo
	cfg.SummarizeOnFull = *summarize
	m, err := core.Build(ua, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg = m.Config()
	if anFlags.Lint {
		rep := analysis.Analyze(ua, analysis.Options{
			Source:        w.Automaton,
			Placement:     m.Placement(),
			ReportColumns: cfg.ReportColumns,
			EquivSample:   w.Input,
		})
		fmt.Printf("\nstatic analysis:\n")
		rep.WriteText(os.Stdout)
		if err := rep.Err(); err != nil {
			log.Fatalf("analysis failed: %v", err)
		}
	}
	col := telFlags.Collector()
	m.AttachTelemetry(col)
	model := report.NewSunder(m.Reports(), cfg)
	model.AttachTelemetry(col)
	mres := m.Run(funcsim.BytesToUnits(w.Input, 4), core.RunOptions{OnReportCycle: model.OnReportCycle})
	model.Finish(mres.KernelCycles)
	sres := model.Result()
	fmt.Printf("\nSunder @ %d-bit/cycle (FIFO=%v, summarize=%v): %d states on %d PUs (m=%d)\n",
		4**rate, *fifo, *summarize, ua.NumStates(), m.NumPUs(), cfg.ReportColumns)
	stats := sunder.Stats{
		KernelCycles: mres.KernelCycles,
		StallCycles:  sres.StallCycles,
		Flushes:      sres.Flushes,
		Reports:      mres.Reports,
		ReportCycles: mres.ReportCycles,
	}
	if err := stats.WriteText(os.Stdout, 4**rate); err != nil {
		log.Fatal(err)
	}
	energy := model.Energy(m.Energy())
	fmt.Printf("  %d summaries; measured energy %.2f pJ/byte (%d report writes)\n",
		sres.Summaries, energy.PerByte(mres.KernelCycles, *rate), energy.ReportWrites)

	apo := ap.Result()
	rado := rad.Result()
	fmt.Printf("\nreporting-architecture comparison (same workload):\n")
	fmt.Printf("  %-12s overhead %8.2fx  (%d flushes, reports stored in place)\n",
		"Sunder", sres.Overhead(mres.KernelCycles), sres.Flushes)
	fmt.Printf("  %-12s overhead %8.2fx  (%d flushes, %.1f KB offloaded)\n",
		"AP", apo.Overhead(res.Cycles), apo.Flushes, float64(apo.OffloadedBits)/8192)
	fmt.Printf("  %-12s overhead %8.2fx  (%d flushes, %.1f KB offloaded)\n",
		"AP+RAD", rado.Overhead(res.Cycles), rado.Flushes, float64(rado.OffloadedBits)/8192)

	if beFlags.Enabled() {
		t0 := time.Now()
		sres, err := eng.Scan(w.Input)
		if err != nil {
			log.Fatal(err)
		}
		ns := time.Since(t0).Nanoseconds()
		if ns < 1 {
			ns = 1
		}
		info := eng.Info()
		fmt.Printf("\nsoftware engine (-backend %s): resolved %q\n", beFlags.Backend, info.Backend)
		fmt.Printf("  %d matches, %d reports in %d report cycles; %.2f ms (%.1f MB/s simulated)\n",
			len(sres.Matches), sres.Stats.Reports, sres.Stats.ReportCycles,
			float64(ns)/1e6, float64(len(w.Input))/1e6/(float64(ns)/1e9))
		if st := eng.DFAStats(); st.Hits+st.Misses > 0 {
			fmt.Printf("  lazy DFA: %d states constructed, %.1f%% transition-cache hit rate, %d evictions, %d fallbacks\n",
				st.States, 100*float64(st.Hits)/float64(st.Hits+st.Misses), st.Evictions, st.Fallbacks)
		}
		// Report cycles are cycle-granularity and shrink with the rate
		// (two byte positions share a 16-bit cycle), so only the report
		// count is comparable to the 8-bit functional simulation.
		verdict := "report count identical to functional simulation"
		if sres.Stats.Reports != res.Reports {
			verdict = "report count DIVERGED from functional simulation"
		}
		fmt.Printf("  %s\n", verdict)
	}

	if parFlags.Enabled() {
		workers := parFlags.EffectiveWorkers()
		t0 := time.Now()
		seq, err := eng.Scan(w.Input)
		if err != nil {
			log.Fatal(err)
		}
		seqNS := time.Since(t0).Nanoseconds()
		t0 = time.Now()
		par, err := eng.ScanParallel(w.Input, sunder.ScanOptions{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		parNS := max(time.Since(t0).Nanoseconds(), 1)

		fmt.Printf("\nparallel sharded scan (-workers %d, %s engine):\n", workers, eng.Info().Backend)
		if depth, bounded := sched.DependenceCycles(ua); bounded {
			fmt.Printf("  dependence window %d cycles\n", depth)
		} else {
			fmt.Printf("  dependence window unbounded (cyclic automaton): one share\n")
		}
		verdict := "matches and Stats identical to Scan"
		if !slices.Equal(par.Matches, seq.Matches) || par.Stats != seq.Stats {
			verdict = "matches or Stats DIVERGED from Scan"
		}
		fmt.Printf("  Scan %.2f ms, ScanParallel %.2f ms: %.2fx speedup (%.1f MB/s simulated); %s\n",
			float64(seqNS)/1e6, float64(parNS)/1e6, float64(seqNS)/float64(parNS),
			float64(len(w.Input))/1e6/(float64(parNS)/1e9), verdict)
	}

	if err := telFlags.Emit(os.Stdout, col); err != nil {
		log.Fatal(err)
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}
