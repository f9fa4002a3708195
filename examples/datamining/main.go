// Data mining: SPM-style subsequence patterns with dense, bursty reporting
// — the workload class that breaks conventional reporting architectures
// (Table 1: SPM generates 1394 simultaneous reports every ~30 cycles). The
// example shows both full cycle-accurate reporting and the in-hardware
// summarization mode, which is all a frequency-mining loop actually needs.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"sunder"
)

func main() {
	// Subsequence patterns over a retail-like item alphabet: item, any
	// gap, item, any gap, transaction-end marker ';'. Once a pattern's
	// items have appeared in order, every transaction end reports it —
	// the source of SPM's bursts.
	patterns := []sunder.Pattern{
		{Expr: `b.*m.*;`, Code: 1}, // bread → milk
		{Expr: `b.*e.*;`, Code: 2}, // bread → eggs
		{Expr: `m.*e.*;`, Code: 3}, // milk → eggs
		{Expr: `c.*w.*;`, Code: 4}, // cheese → wine
		{Expr: `w.*c.*;`, Code: 5}, // wine → cheese
		{Expr: `b.*m.*e.*;`, Code: 6},
	}

	transactions := synthesize(4000)

	// Mode 1: exact reporting with the FIFO drain.
	eng, err := sunder.Compile(patterns, sunder.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Scan(transactions)
	if err != nil {
		log.Fatal(err)
	}
	support := map[int32]int{}
	for _, m := range res.Matches {
		support[m.Code]++
	}
	fmt.Printf("exact mode: %d reports in %d report cycles (burst %.1f/cycle), overhead %.3fx\n",
		res.Stats.Reports, res.Stats.ReportCycles,
		float64(res.Stats.Reports)/float64(max(res.Stats.ReportCycles, 1)), res.Stats.Overhead())
	for code := int32(1); code <= 6; code++ {
		fmt.Printf("  pattern %d: support %d\n", code, support[code])
	}

	// Mode 2: the mining loop only needs "did pattern P occur in this
	// input window?" — report summarization answers that in hardware
	// with a column-wise NOR over the report region, no bulk transfer.
	opts := sunder.DefaultOptions()
	opts.FIFO = false
	opts.SummarizeOnFull = true
	sumEng, err := sunder.Compile(patterns, opts)
	if err != nil {
		log.Fatal(err)
	}
	fired, err := sumEng.Summarize(transactions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsummarized mode: patterns that occurred at least once: ")
	for code := int32(1); code <= 6; code++ {
		if fired[code] {
			fmt.Printf("%d ", code)
		}
	}
	fmt.Println()
}

// synthesize emits transactions of items ended by ';'.
func synthesize(n int) []byte {
	rng := rand.New(rand.NewSource(3))
	items := []byte("bmecwxyz")
	var out []byte
	for t := 0; t < n; t++ {
		k := rng.Intn(5) + 2
		for i := 0; i < k; i++ {
			out = append(out, items[rng.Intn(len(items))])
		}
		out = append(out, ';')
	}
	return out
}

func max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
