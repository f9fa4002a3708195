// sunder-bench regenerates every table and figure of the paper's evaluation
// (Section 7) from simulation, plus the repository's ablation, extension
// and fault studies. Software-engine speed is not measured here: that is
// bench/ (bash bench/run.sh).
//
// Usage:
//
//	sunder-bench                 # every table and figure, ablations, extensions; reduced scale
//	sunder-bench -full           # paper scale (1MB inputs, full automata)
//	sunder-bench -table 4        # one table (1,2,3,4,5)
//	sunder-bench -fig 10         # one figure (8,9,10)
//	sunder-bench -json           # the tables and figures as JSON; honours -table/-fig
//	sunder-bench -ablations      # ablation studies only
//	sunder-bench -extensions     # extension studies only (power, 16-bit alphabets)
//	sunder-bench -faults match=1e-4,report=1e-4,stuck=2,seed=1
//	sunder-bench -scale 0.05 -input 50000
//	sunder-bench -table 4 -metrics -trace /tmp/t4.json -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"sunder/internal/cliutil"
	"sunder/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sunder-bench: ")
	var (
		table      = flag.Int("table", 0, "regenerate one table (1-5); 0 = all unless another selector is given")
		fig        = flag.Int("fig", 0, "regenerate one figure (8-10); 0 = all unless another selector is given")
		ablations  = flag.Bool("ablations", false, "run the ablation studies")
		extensions = flag.Bool("extensions", false, "run the extension studies (power, 16-bit alphabets)")
		full       = flag.Bool("full", false, "paper scale: full-size automata, 1MB input (slow)")
		scale      = flag.Float64("scale", 0, "override benchmark scale (0,1]")
		inputLen   = flag.Int("input", 0, "override input length in bytes")
		jsonOut    = flag.Bool("json", false, "emit the selected tables and figures as JSON instead of text")
		telFlags   = cliutil.RegisterTelemetryFlags()
		faultFlags = cliutil.RegisterFaultFlags()
		profiles   = cliutil.ProfileFlags()
	)
	flag.Parse()
	// Only tables 1, 3, 4, 5 and the figures have JSON rows.
	if *jsonOut && (*ablations || *extensions || faultFlags.Enabled() || *table == 2) {
		log.Fatal("-json renders tables 1, 3, 4, 5 and figures 8-10 only; it cannot be combined with -ablations, -extensions, -faults or -table 2")
	}

	stopProfiles, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}

	opts := exp.DefaultOptions()
	figure10Input := 160000
	if *full {
		opts = exp.FullOptions()
		figure10Input = 1 << 20
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *inputLen > 0 {
		opts.InputLen = *inputLen
	}
	// The collector aggregates device counters and trace events across
	// every machine the selected experiments build.
	col := telFlags.Collector()
	opts.Telemetry = col

	out := os.Stdout
	// With no selector everything runs: every table and figure and, in text
	// mode, the ablation and extension studies (the fault study needs a
	// policy, so it only ever runs when asked for).
	runAll := *table == 0 && *fig == 0 && !*ablations && !*extensions && !faultFlags.Enabled()
	allStudies := runAll && !*jsonOut

	sel := exp.Selection{All: runAll, Table: *table, Fig: *fig}
	res, err := exp.Collect(opts, sel, figure10Input)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		if err := res.WriteJSON(out); err != nil {
			log.Fatal(err)
		}
	} else {
		printResults(out, res, sel, figure10Input)
	}

	if allStudies || *ablations {
		names := []string{"Snort", "ExactMatch", "SPM", "Protomata"}
		rate, err := exp.AblationRate(opts, names)
		if err != nil {
			log.Fatal(err)
		}
		exp.FprintAblationRate(out, rate)
		fmt.Fprintln(out)

		widths, err := exp.AblationReportWidth(opts, []int{8, 12, 16, 24})
		if err != nil {
			log.Fatal(err)
		}
		exp.FprintAblationReportWidth(out, widths)
		fmt.Fprintln(out)

		cover, err := exp.AblationCover(opts, names)
		if err != nil {
			log.Fatal(err)
		}
		exp.FprintAblationCover(out, cover)
		fmt.Fprintln(out)
	}
	if faultFlags.Enabled() {
		pol, err := faultFlags.Policy()
		if err != nil {
			log.Fatal(err)
		}
		rows, err := exp.FaultStudy(opts, []string{"Snort", "ExactMatch", "SPM", "Protomata"}, pol)
		if err != nil {
			log.Fatal(err)
		}
		exp.FprintFaultStudy(out, rows, pol)
		fmt.Fprintln(out)
	}
	if allStudies || *extensions {
		names := []string{"Brill", "Snort", "TCP", "SPM", "ClamAV"}
		power, err := exp.PowerStudy(opts, names)
		if err != nil {
			log.Fatal(err)
		}
		exp.FprintPowerStudy(out, power)
		fmt.Fprintln(out)

		wide, err := exp.WideStudy(40, 3, 20000)
		if err != nil {
			log.Fatal(err)
		}
		exp.FprintWideStudy(out, wide)
	}

	if err := telFlags.Emit(out, col); err != nil {
		log.Fatal(err)
	}
	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}
}

// printResults renders the selected tables and figures in the paper's
// order, a blank line after each.
func printResults(out io.Writer, res *exp.Results, sel exp.Selection, figure10Input int) {
	opts := res.Options
	sections := []struct {
		on    bool
		print func()
	}{
		{sel.HasTable(1), func() { exp.FprintTable1(out, res.Table1, opts) }},
		{sel.HasTable(2), func() { exp.FprintTable2(out) }},
		{sel.HasTable(3), func() { exp.FprintTable3(out, res.Table3, opts) }},
		{sel.HasTable(4), func() { exp.FprintTable4(out, res.Table4, opts) }},
		{sel.HasTable(5), func() { exp.FprintTable5(out, res.Table5) }},
		{sel.HasFig(8), func() { exp.FprintFigure8(out, res.Figure8) }},
		{sel.HasFig(9), func() { exp.FprintFigure9(out, res.Figure9) }},
		{sel.HasFig(10), func() { exp.FprintFigure10(out, res.Figure10, figure10Input) }},
	}
	for _, s := range sections {
		if s.on {
			s.print()
			fmt.Fprintln(out)
		}
	}
}
