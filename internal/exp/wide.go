package exp

import (
	"io"
	"math/rand"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/core"
	"sunder/internal/funcsim"
	"sunder/internal/transform"
)

// WideStudyRow compares 16-bit-alphabet pattern matching (one symbol per
// cycle at Sunder's 16-bit rate) against encoding the same items as byte
// pairs — the alphabet-size flexibility Section 2.3 motivates with data
// mining ("millions of unique symbols").
type WideStudyRow struct {
	Patterns        int
	ItemsPerPattern int

	// Wide path: 16-bit automaton → nibble trie → 16-bit rate.
	WideDeviceStates int
	WidePUs          int
	WideReports      int64
	// Byte path: the same patterns over 2-byte item encodings.
	ByteDeviceStates int
	BytePUs          int
	ByteReports      int64
	// SymbolsPerCycle for each (wide consumes a whole item per cycle;
	// the byte path needs two).
	WideSymbolsPerCycle float64
	ByteSymbolsPerCycle float64
}

// WideStudy builds an SPM-like subsequence rule set over a 16-bit item
// alphabet both ways and runs both machines on the same transaction
// stream.
func WideStudy(patterns, itemsPerPattern, inputSymbols int) (*WideStudyRow, error) {
	rng := rand.New(rand.NewSource(17))
	universe := make([]uint16, 64)
	for i := range universe {
		universe[i] = uint16(0x4000 + rng.Intn(1<<14)) // sparse large-alphabet items
	}
	const trigger uint16 = 0x3B3B // ';' pair, the transaction end

	// Wide automaton: item .* item .* trigger, directly over symbols.
	wa := automata.NewWideAutomaton()
	for p := 0; p < patterns; p++ {
		var prevItem, prevAny automata.StateID = -1, -1
		for k := 0; k < itemsPerPattern; k++ {
			item := wa.AddState(automata.WideState{
				Match: []uint16{universe[rng.Intn(len(universe))]},
				Start: startIf(k == 0),
			})
			if prevItem >= 0 {
				wa.AddEdge(prevItem, item)
				wa.AddEdge(prevAny, item)
			}
			any := wa.AddState(automata.WideState{Match: allItems(universe, trigger)})
			wa.AddEdge(item, any)
			wa.AddEdge(any, any)
			prevItem, prevAny = item, any
		}
		t := wa.AddState(automata.WideState{Match: []uint16{trigger}, Report: true, ReportCode: int32(p + 1)})
		wa.AddEdge(prevItem, t)
		wa.AddEdge(prevAny, t)
	}
	wa.Normalize()

	// Input: random items with periodic triggers.
	symbols := make([]uint16, inputSymbols)
	for i := range symbols {
		if i%29 == 28 {
			symbols[i] = trigger
		} else {
			symbols[i] = universe[rng.Intn(len(universe))]
		}
	}

	row := &WideStudyRow{Patterns: patterns, ItemsPerPattern: itemsPerPattern}

	// Wide path.
	wua, err := transform.WideToRate(wa, 4)
	if err != nil {
		return nil, err
	}
	wm, err := core.Build(wua, core.DefaultConfig(4))
	if err != nil {
		return nil, err
	}
	wres := wm.Run(funcsim.SymbolsToUnits(symbols), core.RunOptions{})
	row.WideDeviceStates = wua.NumStates()
	row.WidePUs = wm.NumPUs()
	row.WideReports = wres.Reports
	row.WideSymbolsPerCycle = float64(inputSymbols) / float64(wres.KernelCycles)

	// Byte path: encode items as 2-byte big-endian values (every wide
	// state becomes a hi-byte state feeding a lo-byte state) and run at
	// the fixed 8-bit rate of CA/AP-class engines — the baseline the
	// paper's alphabet-flexibility argument targets: a 16-bit symbol
	// then costs two cycles.
	ba := byteVersionOf(wa)
	bua, err := transform.ToRate(ba, 2)
	if err != nil {
		return nil, err
	}
	bm, err := core.Build(bua, core.DefaultConfig(2))
	if err != nil {
		return nil, err
	}
	bytesIn := make([]byte, 0, inputSymbols*2)
	for _, s := range symbols {
		bytesIn = append(bytesIn, byte(s>>8), byte(s))
	}
	bres := bm.Run(funcsim.BytesToUnits(bytesIn, 4), core.RunOptions{})
	row.ByteDeviceStates = bua.NumStates()
	row.BytePUs = bm.NumPUs()
	row.ByteReports = bres.Reports
	row.ByteSymbolsPerCycle = float64(inputSymbols) / float64(bres.KernelCycles)
	return row, nil
}

func startIf(b bool) automata.StartKind {
	if b {
		return automata.StartAllInput
	}
	return automata.StartNone
}

func allItems(universe []uint16, trigger uint16) []uint16 {
	out := append([]uint16(nil), universe...)
	return append(out, trigger)
}

// byteVersionOf rebuilds a wide automaton over 2-byte encodings: each wide
// state becomes a hi-byte state feeding a lo-byte state.
func byteVersionOf(wa *automata.WideAutomaton) *automata.Automaton {
	ba := automata.NewAutomaton()
	hi := make([]automata.StateID, wa.NumStates())
	lo := make([]automata.StateID, wa.NumStates())
	for i := range wa.States {
		ws := &wa.States[i]
		var hiSet, loSet bitvec.V256
		for _, sym := range ws.Match {
			hiSet.Set(int(sym >> 8))
			loSet.Set(int(sym & 0xff))
		}
		hi[i] = ba.AddState(automata.State{Match: hiSet, Start: ws.Start})
		lo[i] = ba.AddState(automata.State{Match: loSet, Report: ws.Report, ReportCode: ws.ReportCode})
		ba.AddEdge(hi[i], lo[i])
	}
	for i := range wa.States {
		for _, t := range wa.States[i].Succ {
			ba.AddEdge(lo[i], hi[t])
		}
	}
	ba.Normalize()
	return ba
}

// FprintWideStudy renders the comparison.
func FprintWideStudy(w io.Writer, r *WideStudyRow) {
	fprintf(w, "Extension: 16-bit symbol alphabets (SPM-like, %d patterns x %d items)\n",
		r.Patterns, r.ItemsPerPattern)
	fprintf(w, "%-22s %14s %6s %10s %14s\n", "encoding", "device states", "PUs", "reports", "symbols/cycle")
	fprintf(w, "%-22s %14d %6d %10d %14.2f\n", "16-bit (wide nibble)", r.WideDeviceStates, r.WidePUs, r.WideReports, r.WideSymbolsPerCycle)
	fprintf(w, "%-22s %14d %6d %10d %14.2f\n", "byte pairs", r.ByteDeviceStates, r.BytePUs, r.ByteReports, r.ByteSymbolsPerCycle)
}
