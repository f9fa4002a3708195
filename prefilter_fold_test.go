package sunder

import (
	"fmt"
	"strings"
	"testing"
)

// foldInput interleaves case-mangled matches of the case-insensitive
// patterns below with filler, exercising hits the exact-literal prefilter
// would miss.
func foldInput() []byte {
	var b strings.Builder
	filler := "the quick brown fox jumps over the lazy dog 0123456789 "
	plants := []string{
		"SELECT-FROM-WHERE", "select-from-where", "SeLeCt-FrOm-WhErE",
		"DELETE", "dElEtE", "InSeRt", "update",
	}
	for i := 0; i < 40; i++ {
		b.WriteString(filler)
		b.WriteString(plants[i%len(plants)])
	}
	b.WriteString(filler)
	return []byte(b.String())
}

// TestPrefilterFoldDifferential proves the case-folded prefilter is
// observably invisible: (?i) patterns whose exact variant expansion blows
// the literal caps compile to a folded literal set, and the filtered
// engine matches the unfiltered one byte for byte across the sequential,
// parallel and streaming paths.
func TestPrefilterFoldDifferential(t *testing.T) {
	patterns := []Pattern{
		{Expr: "(?i)select-from-where", Code: 1},
		{Expr: "(?i)(delete|insert|update)", Code: 2},
	}
	input := foldInput()

	base, err := Compile(patterns, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	filt, err := Compile(patterns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := filt.Info().PrefilterStrategy; !strings.HasSuffix(st, "+fold") {
		t.Fatalf("prefilter strategy = %q, want a folded scanner", st)
	}
	for _, l := range filt.Info().PrefilterLiterals {
		if l != strings.ToLower(l) {
			t.Fatalf("literal %q not canonical lowercase", l)
		}
	}

	bseq, err := base.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	if len(bseq.Matches) == 0 {
		t.Fatal("fold input produced no matches; test is vacuous")
	}
	fseq, err := filt.Scan(input)
	if err != nil {
		t.Fatal(err)
	}
	agree(t, "fold/seq", bseq, fseq, nil)
	if fseq.Stats.SkippedCycles == 0 {
		t.Error("folded prefilter skipped nothing; filter not engaged")
	}

	for _, nw := range []int{1, 4} {
		fpar, err := filt.ScanParallel(input, ScanOptions{Workers: nw})
		agree(t, "fold/par", bseq, fpar, err)
	}

	for _, chunk := range []int{1, 13, 97} {
		got, stats := streamChunks(t, filt.Clone(), input, chunk)
		agree(t, fmt.Sprintf("fold/stream/chunk=%d", chunk), bseq, &ScanResult{Matches: got, Stats: stats}, nil)
	}
}

// TestPrefilterFoldExactStaysExact pins that case-sensitive rule sets keep
// the exact scanner: no fold marker, literals verbatim.
func TestPrefilterFoldExactStaysExact(t *testing.T) {
	opts := DefaultOptions()
	opts.Prefilter = PrefilterOn
	eng, err := Compile([]Pattern{{Expr: "Needle", Code: 1}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Info().PrefilterStrategy; strings.Contains(st, "fold") {
		t.Fatalf("case-sensitive pattern got folded strategy %q", st)
	}
	out, err := eng.Scan([]byte("..needle..NEEDLE..Needle.."))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Matches) != 1 {
		t.Fatalf("exact scan found %d matches, want 1", len(out.Matches))
	}
}
