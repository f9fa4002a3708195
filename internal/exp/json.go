package exp

import (
	"encoding/json"
	"io"
)

// Results bundles the rows of the paper's tables and figures. sunder-bench
// renders it as text (Fprint*) or, with -json, as is, so downstream
// plotting does not have to parse the printed tables.
type Results struct {
	Options  Options         `json:"options"`
	Table1   []Table1Row     `json:"table1,omitempty"`
	Table3   []Table3Row     `json:"table3,omitempty"`
	Table4   []Table4Row     `json:"table4,omitempty"`
	Table5   []Table5Row     `json:"table5,omitempty"`
	Figure8  []Figure8Row    `json:"figure8,omitempty"`
	Figure9  []Figure9Row    `json:"figure9,omitempty"`
	Figure10 []Figure10Point `json:"figure10,omitempty"`
}

// Selection picks what Collect computes: everything, or one table (1-5)
// and/or one figure (8-10) — sunder-bench's -table/-fig pair. The zero
// value selects nothing.
type Selection struct {
	All        bool
	Table, Fig int
}

// HasTable reports whether table n is selected.
func (s Selection) HasTable(n int) bool { return s.All || s.Table == n }

// HasFig reports whether figure n is selected.
func (s Selection) HasFig(n int) bool { return s.All || s.Fig == n }

// Collect runs the selected tables and figures and bundles their rows; the
// text and JSON renderers both start from its result. Table 2 is published
// constants with no rows (FprintTable2).
func Collect(opts Options, sel Selection, figure10Input int) (*Results, error) {
	res := &Results{Options: opts}
	var err error
	if sel.HasTable(1) {
		if res.Table1, err = Table1(opts); err != nil {
			return nil, err
		}
	}
	if sel.HasTable(3) {
		if res.Table3, err = Table3(opts); err != nil {
			return nil, err
		}
	}
	if sel.HasTable(4) || sel.HasFig(8) {
		t4, err := Table4(opts)
		if err != nil {
			return nil, err
		}
		if sel.HasTable(4) {
			res.Table4 = t4
		}
		if sel.HasFig(8) {
			res.Figure8 = Figure8(t4)
		}
	}
	if sel.HasTable(5) {
		res.Table5 = Table5()
	}
	if sel.HasFig(9) {
		res.Figure9 = Figure9()
	}
	if sel.HasFig(10) {
		if res.Figure10, err = Figure10(figure10Input); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// WriteJSON marshals the results with indentation.
func (r *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
