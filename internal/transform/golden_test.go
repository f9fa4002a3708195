package transform

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sunder/internal/automata"
	"sunder/internal/workload"
)

// toRateGolden pins ToRate's output, state for state, on every workload at
// scale 0.02 and rates 1, 2 and 4: one line per cell with the device state
// count, the edge count and a SHA-256 of the states in ID order. The merge
// passes may be rewritten for speed, but not one output bit may move.
//
// Levenshtein is the only workload on which the suffix pass (93 states)
// and unionMergePass (14) remove anything, so its cells are what guard
// those two passes; every other cell is shaped by the prefix pass and
// striding.
//
// A change that moves the output on purpose rewrites the file from the
// "got" lines this test prints and says why.
const toRateGolden = "testdata/to_rate_golden.txt"

func TestToRateGolden(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open(filepath.FromSlash(toRateGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			cell, _, _ := strings.Cut(line, " states=")
			want[cell] = line
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, name := range workload.Names() {
		w := workload.MustGet(name, 0.02, 64)
		for _, rate := range []int{1, 2, 4} {
			ua, err := ToRate(w.Automaton, rate)
			if err != nil {
				t.Fatalf("%s rate %d: %v", name, rate, err)
			}
			cell := fmt.Sprintf("%s rate=%d", name, rate)
			got := fmt.Sprintf("%s states=%d edges=%d sha256=%x", cell, ua.NumStates(), ua.NumEdges(), digestStates(ua))
			if want[cell] != got {
				t.Errorf("ToRate output moved:\n want %s\n  got %s", want[cell], got)
			}
			cells++
		}
	}
	if cells != len(want) {
		t.Errorf("%s has %d cells, the workloads make %d", toRateGolden, len(want), cells)
	}
}

// digestStates hashes every field of every state in ID order.
func digestStates(ua *automata.UnitAutomaton) []byte {
	h := sha256.New()
	var buf []byte
	for i := range ua.States {
		s := &ua.States[i]
		buf = append(buf[:0], byte(s.Start))
		for _, m := range s.Match {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(m))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Reports)))
		for _, r := range s.Reports {
			buf = append(buf, r.Offset)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Code))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Origin))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Succ)))
		for _, t := range s.Succ {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(t))
		}
		h.Write(buf)
	}
	return h.Sum(nil)
}
