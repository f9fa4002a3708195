package sunder

import (
	"bytes"
	"errors"
	"testing"
)

// TestCycleRangeExceeded: a report entry stamps its cycle through a chain of
// MetadataBits-wide stride markers that must fit the region, so a narrow
// counter bounds how far the device can be stepped. Input past the bound is
// a typed error from every entry point, on every leg — it used to panic in
// the device model as soon as a report landed beyond it, taking the process
// (a server, with every tenant) down.
func TestCycleRangeExceeded(t *testing.T) {
	for _, backend := range []string{"nfa", "dfa"} {
		for _, pre := range []PrefilterMode{PrefilterOff, PrefilterOn} {
			opts := DefaultOptions()
			opts.MetadataBits, opts.Backend, opts.Prefilter = 1, backend, pre
			eng, err := Compile([]Pattern{{Expr: `ab`, Code: 1}}, opts)
			if err != nil {
				t.Fatal(err)
			}
			// 13-bit entries, 19 to a row, 192 rows: 3647 one-bit markers
			// reach stride 3647, i.e. cycle 7294 at two bytes a cycle.
			const maxBytes = 7294 * 2
			fits, long := bytes.Repeat([]byte("ab"), maxBytes/2), bytes.Repeat([]byte("ab"), 20<<10)

			res, err := eng.Scan(fits)
			if err != nil || len(res.Matches) != maxBytes/2 {
				t.Fatalf("%s/%v: input at the bound: %v", backend, pre, err)
			}
			if _, err := eng.Scan(long); !errors.Is(err, ErrCycleRangeExceeded) {
				t.Errorf("%s/%v: Scan: %v, want ErrCycleRangeExceeded", backend, pre, err)
			}
			if _, err := eng.ScanParallel(long, ScanOptions{Workers: 2}); !errors.Is(err, ErrCycleRangeExceeded) {
				t.Errorf("%s/%v: ScanParallel: %v, want ErrCycleRangeExceeded", backend, pre, err)
			}
			if _, err := eng.ScanBatch([][]byte{fits, long}, ScanOptions{}); !errors.Is(err, ErrCycleRangeExceeded) {
				t.Errorf("%s/%v: ScanBatch: %v, want ErrCycleRangeExceeded", backend, pre, err)
			}

			matches := 0
			st, err := eng.NewStream(func(Match) { matches++ })
			if err != nil {
				t.Fatal(err)
			}
			if n, err := st.Write(fits); err != nil || n != len(fits) {
				t.Fatalf("%s/%v: stream write at the bound: %d, %v", backend, pre, n, err)
			}
			if n, err := st.Write([]byte("ab")); n != 0 || !errors.Is(err, ErrCycleRangeExceeded) {
				t.Errorf("%s/%v: Stream.Write past the bound: %d, %v", backend, pre, n, err)
			}
			if !errors.Is(st.Err(), ErrCycleRangeExceeded) {
				t.Errorf("%s/%v: Stream.Err() = %v", backend, pre, st.Err())
			}
			// What was accepted is still scanned to the end.
			if stats := st.Close(); matches != maxBytes/2 || st.BytesIn() != maxBytes || stats.KernelCycles != 7294 {
				t.Errorf("%s/%v: stream after refusal: %d matches, %d bytes in, %d cycles",
					backend, pre, matches, st.BytesIn(), stats.KernelCycles)
			}
		}
	}
}
