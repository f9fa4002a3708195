// sunder-compile inspects the transformation pipeline: it compiles patterns
// (or loads ANML), shows the state/transition cost of every stage (8-bit →
// 1-bit → 4-bit → strided), and can emit Graphviz DOT for each stage.
//
// Usage:
//
//	sunder-compile -pattern 'a(b|c)+d' -pattern 'xyz'
//	sunder-compile -anml rules.anml -rate 2
//	sunder-compile -demo            # the paper's Figure 3 walkthrough
//	sunder-compile -pattern abc -dot /tmp/stages
//	sunder-compile -anml big.anml -cpuprofile cpu.out
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"sunder/internal/analysis"
	"sunder/internal/automata"
	"sunder/internal/cliutil"
	"sunder/internal/core"
	"sunder/internal/regex"
	"sunder/internal/sched"
	"sunder/internal/transform"
)

type patternList []string

func (p *patternList) String() string     { return fmt.Sprint(*p) }
func (p *patternList) Set(v string) error { *p = append(*p, v); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("sunder-compile: ")
	var (
		patterns patternList
		anmlPath = flag.String("anml", "", "load an ANML automata network instead of patterns")
		rate     = flag.Int("rate", 4, "target processing rate in nibbles/cycle (1,2,4)")
		dotDir   = flag.String("dot", "", "write Graphviz DOT files for each stage into this directory")
		demo     = flag.Bool("demo", false, "run the Figure 3 walkthrough (language A|BC)")
		anFlags  = cliutil.RegisterAnalysisFlags()
		profiles = cliutil.ProfileFlags()
	)
	flag.Var(&patterns, "pattern", "pattern to compile (repeatable)")
	flag.Parse()

	stopProfiles, err := profiles.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
	}()

	if *demo {
		figure3()
		return
	}

	var nfa *automata.Automaton
	switch {
	case *anmlPath != "":
		f, err := os.Open(*anmlPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		nfa, err = automata.ReadANML(f)
		if err != nil {
			log.Fatal(err)
		}
	case len(patterns) > 0:
		ps := make([]regex.Pattern, len(patterns))
		for i, expr := range patterns {
			ps[i] = regex.Pattern{Expr: expr, Code: int32(i + 1)}
		}
		var err error
		nfa, err = regex.CompileSet(ps)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -pattern, -anml, or -demo (see -help)")
	}

	fmt.Printf("%-22s %8s %8s %8s\n", "stage", "states", "edges", "reports")
	show := func(stage string, s, e, r int) {
		fmt.Printf("%-22s %8d %8d %8d\n", stage, s, e, r)
	}
	show("8-bit (input)", nfa.NumStates(), nfa.NumEdges(), nfa.NumReportStates())

	bin := transform.ToBinary(nfa)
	transform.Minimize(bin)
	show("1-bit (binary)", bin.NumStates(), bin.NumEdges(), bin.NumReportStates())

	nib := transform.ToNibble(nfa)
	transform.Minimize(nib)
	show("4-bit (1 nibble)", nib.NumStates(), nib.NumEdges(), nib.NumReportStates())

	stages := map[string]*automata.UnitAutomaton{"binary": bin, "nibble": nib}
	ua := nib
	for ua.Rate < *rate {
		var err error
		ua, err = transform.Stride2(ua)
		if err != nil {
			log.Fatal(err)
		}
		transform.Minimize(ua)
		label := fmt.Sprintf("%d-bit (%d nibbles)", 4*ua.Rate, ua.Rate)
		show(label, ua.NumStates(), ua.NumEdges(), ua.NumReportStates())
		stages[fmt.Sprintf("rate%d", ua.Rate)] = ua
	}

	if anFlags.Minimize {
		res, err := analysis.MinimizeCertified(ua)
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("minimized (-%d states)", res.Removed())
		show(label, ua.NumStates(), ua.NumEdges(), ua.NumReportStates())
		fmt.Printf("    %d pruned, %d bisim-merged, %d prefix-merged in %d round(s); certificate verified (%d step(s))\n",
			res.Pruned, res.BisimMerged, res.PrefixMerged, res.Rounds, len(res.Cert.Steps))
		sc, err := analysis.SymbolClassesCertified(nfa)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    effective alphabet: %d symbol class(es) of 256 bytes\n", sc.Count())
	}

	if anFlags.Lint {
		rep := analysis.Analyze(ua, analysis.Options{Source: nfa})
		fmt.Printf("\nstatic analysis:\n")
		rep.WriteText(os.Stdout)
		if err := rep.Err(); err != nil {
			log.Fatalf("analysis failed: %v", err)
		}
	}

	if d, bounded := sched.DependenceCycles(ua); bounded {
		fmt.Printf("\ndependence window: %d cycle(s) — shardable for parallel scan\n", d)
	} else {
		fmt.Printf("\ndependence window: unbounded (cyclic automaton) — parallel scan falls back to sequential\n")
	}

	// The device the façade compiles: its report-column budget search,
	// placement and configuration (core.Build).
	if m, err := core.Build(ua, core.DefaultConfig(ua.Rate)); err == nil {
		st := m.Placement().ComputeStats(ua)
		fmt.Printf("\nplacement: %d PU(s) in %d cluster(s), %d cross-PU edges, m=%d report column(s) per PU\n",
			st.NumPUs, st.NumClusters, st.CrossPUEdges, m.Config().ReportColumns)
	} else {
		fmt.Printf("\nplacement: %v\n", err)
	}

	if *dotDir != "" {
		if err := os.MkdirAll(*dotDir, 0o755); err != nil {
			log.Fatal(err)
		}
		write := func(name string, f func(*os.File) error) {
			path := filepath.Join(*dotDir, name)
			out, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := f(out); err != nil {
				log.Fatal(err)
			}
			out.Close()
			fmt.Println("wrote", path)
		}
		write("byte.dot", func(f *os.File) error { return automata.WriteDOT(f, nfa, "byte") })
		for name, a := range stages {
			a := a
			write(name+".dot", func(f *os.File) error { return automata.WriteUnitDOT(f, a, name) })
		}
	}
}

// figure3 reproduces the paper's Figure 3 on the language A|BC.
func figure3() {
	nfa := regex.MustCompile(`A|BC`, 1)
	fmt.Println("Figure 3 walkthrough: the 8-bit language A|BC")
	fmt.Printf("(a) 8-bit homogeneous NFA: %d states (A reports; B -> C reports)\n", nfa.NumStates())

	bin := transform.ToBinary(nfa)
	before := bin.NumStates()
	transform.Minimize(bin)
	fmt.Printf("(b) 1-bit automaton: %d states after minimization (%d before);\n",
		bin.NumStates(), before)
	fmt.Printf("    the first 6 bits of A (0x41) and B (0x42) merged into shared states\n")

	nib := transform.ToNibble(nfa)
	transform.Minimize(nib)
	fmt.Printf("(c) 4-bit automaton: %d states, one high-nibble STE feeding low-nibble STEs\n",
		nib.NumStates())

	four, err := transform.ToRate(nfa, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("(d) 16-bit automaton (4-nibble vectors): %d states;\n", four.NumStates())
	fmt.Printf("    each state matches a vector of four 4-bit symbol sets (multi-row activation)\n")
	for i, s := range four.States {
		if i >= 6 {
			fmt.Printf("    ... %d more states\n", len(four.States)-6)
			break
		}
		fmt.Printf("    state %-3d match=[%04x %04x %04x %04x] start=%v reports=%d\n",
			i, s.Match[0], s.Match[1], s.Match[2], s.Match[3], s.Start != automata.StartNone, len(s.Reports))
	}
}
