// Command bench is the repository's benchmark: seven workloads that put
// the engine in seven different cost regimes, the end-to-end metrics a
// caller of the library or the service sees, and a traced run that
// attributes the time to layers from the outside. README.md beside this
// file says why each workload exists and which layer metric should move
// which end-to-end metric; BENCHMARK.json at the repository root is the
// contract the metric names, units and regression bounds are kept under.
//
//	go run ./bench                      every workload, end-to-end metrics
//	go run ./bench -trace 1             every workload, per-layer metrics
//	go run ./bench -workload nfa_dense  one workload; last line is JSON
//	go run ./bench -repeat 2            two sets, compared within the bounds
//
// run.sh beside this file, the command BENCHMARK.json names, builds under
// .bench_build/ in the checkout and passes its arguments on.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	repeat   int
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the payload cuts and of the http_batch rule and traffic generator")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1, write the spans and boundary counts to this file as JSONL")
	fs.IntVar(&o.repeat, "repeat", 1, "run this many sets and compare them within each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds <= 0 || o.repeat < 1 || o.trace < 0 || o.trace > 1 ||
		(o.traceOut != "" && o.trace == 0) || (o.repeat > 1 && o.trace == 1) {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	selected := specs
	if o.workload != "all" {
		s, ok := specByName(o.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
		selected = []spec{s}
	}
	var jsonl io.Writer
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer f.Close()
		jsonl = f
	}

	// table is what a run prints; line is what the JSON result line carries,
	// the metrics BENCHMARK.json names.
	table, line := endToEndMetrics, boundedMetrics
	if o.trace == 1 {
		table, line = perLayerMetrics, perLayerMetrics
	}
	cfg := defaultConfig(o.seconds)
	ok := true
	sets := make([]map[string]*result, o.repeat)
	for set := range sets {
		sets[set] = make(map[string]*result)
		for _, s := range selected {
			res, err := runWorkload(s, o.seed, cfg, o.trace == 1, jsonl)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", s.name, err)
				return 1
			}
			if res.failed > 0 {
				ok = false
				fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed, first: %v\n", s.name, res.failed, res.attempted, res.firstErr)
			}
			sets[set][s.name] = res
			printResult(stdout, s, o.seed, table, res)
		}
	}
	if o.repeat > 1 {
		printComparison(stdout, selected, sets)
	}
	if o.workload != "all" {
		// The driver's contract: the last line of a one-workload run is
		// its result as one JSON object.
		if err := printJSON(stdout, line, sets[len(sets)-1][o.workload]); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if f, isFile := jsonl.(*os.File); isFile {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func runWorkload(s spec, seed int64, cfg config, traced bool, jsonl io.Writer) (*result, error) {
	inst, err := newInstance(s, seed, cfg.payloads)
	if err != nil {
		return nil, err
	}
	if traced {
		return trace(inst, cfg, jsonl)
	}
	return measure(inst, cfg)
}

func printResult(w io.Writer, s spec, seed int64, metrics []metric, res *result) {
	fmt.Fprintf(w, "%s  seed=%d  %s  ops=%d timed=%d\n", s.name, seed, res.plan, res.attempted, res.samples)
	for _, m := range metrics {
		fmt.Fprintf(w, "  %-38s %16.6g %s\n", m.name, res.values[m.name], m.unit)
	}
}

func printJSON(w io.Writer, metrics []metric, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value, len(metrics))}
	for _, m := range metrics {
		out.Metrics[m.name] = value{res.values[m.name], m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// printComparison splits the sets into odd and even ones and prints, for
// every pairing of end-to-end metric and workload, both medians, how much
// worse the second is, and whether that is within the metric's bound. The
// sets ran the same code, so a difference wider than the bound is noise the
// benchmark cannot resolve, not a regression.
func printComparison(w io.Writer, selected []spec, sets []map[string]*result) {
	fmt.Fprintf(w, "\n%-15s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "B worse", "bound", "verdict")
	for _, s := range selected {
		for _, m := range endToEndMetrics {
			var a, b []float64
			for i, set := range sets {
				if i%2 == 0 {
					a = append(a, set[s.name].values[m.name])
				} else {
					b = append(b, set[s.name].values[m.name])
				}
			}
			ma, mb := median(a), median(b)
			// Off a zero base any other reading is infinitely far: outside
			// every bound, where 0/0 would compare as inside.
			worse := 0.0
			if mb != ma {
				worse = (mb - ma) / ma
			}
			if m.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.bound || -worse > m.bound {
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %8.2f%% %6.0f%%  %s\n", s.name, m.name, ma, mb, 100*worse, 100*m.bound, verdict)
		}
	}
}
