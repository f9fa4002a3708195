package core

import (
	"fmt"
	"slices"

	"sunder/internal/automata"
	"sunder/internal/bitvec"
	"sunder/internal/mapping"
)

// image is a machine's configuration: everything Configure derives from the
// automaton and the placement, and nothing a cycle changes. One image is
// shared by a configured machine and every clone of it, so it is immutable
// from the moment Configure returns.
//
// The tables are laid out for the per-cycle access pattern, not per PU: a
// cycle reads one match row per nibble group in *every* PU, so rows are
// group-major and the Rate reads of a cycle are Rate contiguous runs
// instead of Rate loads at a 16 KB stride (DESIGN.md §4.18).
type image struct {
	npu int
	// match[r*npu+i] is match row r of PU i: row 16g+v has bit c set iff
	// the state in column c accepts nibble value v at vector position g.
	match []bitvec.V256
	// dontCare[g*npu+i] marks PU i's columns whose entire 16-row group g
	// is set: at a padding unit those columns still match ("don't care"
	// positions of residual states).
	dontCare []bitvec.V256
	// startAll / startData are the columns injected by the start-enable
	// configuration, and reportMask the occupied report columns (the last
	// m columns, Figure 5), one vector per PU.
	startAll, startData, reportMask []bitvec.V256
	// xbar[i*ColsPerSubarray+src] is PU i's local crossbar row src: the
	// columns activated when the state in column src is active. Reading
	// all active source rows and wired-NORing the bitlines yields the
	// enable vector.
	xbar []bitvec.V256
	// The per-cluster global switches (Figure 7), sparse: gxCols[i] marks
	// PU i's columns with an out-edge into another PU, and the edges of
	// column src are gxOut[gxStart[k]:gxStart[k+1]], k = i*ColsPerSubarray+src.
	gxCols  []bitvec.V256
	gxStart []int32
	gxOut   []gxEdge
}

// gxEdge is one global-switch row: the columns of PU pu activated by the
// source column it is listed under.
type gxEdge struct {
	pu   int32
	cols bitvec.V256
}

func (g *image) matchRow(i, row int) *bitvec.V256 { return &g.match[row*g.npu+i] }
func (g *image) xbarRow(i, src int) *bitvec.V256  { return &g.xbar[i*ColsPerSubarray+src] }

// buildImage programs the configuration of automaton a under placement
// place.
func buildImage(a *automata.UnitAutomaton, place *mapping.Placement, cfg Config) (*image, error) {
	npu := place.NumPUs
	g := &image{
		npu:        npu,
		match:      make([]bitvec.V256, cfg.MatchRows()*npu),
		dontCare:   make([]bitvec.V256, cfg.Rate*npu),
		startAll:   make([]bitvec.V256, npu),
		startData:  make([]bitvec.V256, npu),
		reportMask: make([]bitvec.V256, npu),
		xbar:       make([]bitvec.V256, npu*ColsPerSubarray),
		gxCols:     make([]bitvec.V256, npu),
	}
	all := automata.AllUnits(4)
	type cross struct{ src, pu, col int32 }
	var crossing []cross
	for s := range a.States {
		st := &a.States[s]
		loc := place.Of[s]
		for p := 0; p < cfg.Rate; p++ {
			for v := 0; v < RowsPerNibble; v++ {
				if st.Match[p].Has(v) {
					g.matchRow(loc.PU, RowsPerNibble*p+v).Set(loc.Col)
				}
			}
			if st.Match[p] == all {
				g.dontCare[p*npu+loc.PU].Set(loc.Col)
			}
		}
		switch st.Start {
		case automata.StartAllInput:
			g.startAll[loc.PU].Set(loc.Col)
		case automata.StartOfData:
			g.startData[loc.PU].Set(loc.Col)
		}
		if len(st.Reports) > 0 {
			if loc.Col < ColsPerSubarray-cfg.ReportColumns {
				return nil, fmt.Errorf("core: report state %d placed outside report columns (col %d)", s, loc.Col)
			}
			g.reportMask[loc.PU].Set(loc.Col)
		}
		for _, t := range st.Succ {
			to := place.Of[t]
			switch {
			case loc.PU == to.PU:
				g.xbarRow(loc.PU, loc.Col).Set(to.Col)
			case mapping.ClusterOf(loc.PU) == mapping.ClusterOf(to.PU):
				g.gxCols[loc.PU].Set(loc.Col)
				crossing = append(crossing, cross{int32(loc.PU*ColsPerSubarray + loc.Col), int32(to.PU), int32(to.Col)})
			default:
				return nil, fmt.Errorf("core: edge %d→%d crosses clusters (PU %d → PU %d)", s, t, loc.PU, to.PU)
			}
		}
	}
	if len(crossing) == 0 {
		return g, nil
	}
	slices.SortFunc(crossing, func(x, y cross) int {
		if x.src != y.src {
			return int(x.src - y.src)
		}
		return int(x.pu - y.pu)
	})
	g.gxStart = make([]int32, npu*ColsPerSubarray+1)
	for k, c := range crossing {
		if k == 0 || c.src != crossing[k-1].src || c.pu != crossing[k-1].pu {
			g.gxOut = append(g.gxOut, gxEdge{pu: c.pu})
			g.gxStart[c.src+1]++
		}
		g.gxOut[len(g.gxOut)-1].cols.Set(int(c.col))
	}
	for k := 1; k < len(g.gxStart); k++ {
		g.gxStart[k] += g.gxStart[k-1]
	}
	return g, nil
}
