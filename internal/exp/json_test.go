package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// topLevelKeys marshals the results the way sunder-bench -json does and
// returns the sorted top-level key set.
func topLevelKeys(t *testing.T, res *Results) ([]string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, buf.Bytes()
}

func TestCollectAllJSON(t *testing.T) {
	opts := Options{Scale: 0.005, InputLen: 3000}
	all, err := Collect(opts, Selection{All: true}, 40000)
	if err != nil {
		t.Fatal(err)
	}
	keys, raw := topLevelKeys(t, all)
	// The exact key set of sunder-bench -json: the paper's tables and
	// figures and nothing else.
	want := []string{"figure10", "figure8", "figure9", "options", "table1", "table3", "table4", "table5"}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("top-level keys = %v, want %v", keys, want)
	}
	var back Results
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Table1) != 19 || len(back.Table3) != 18 || len(back.Table4) != 19 {
		t.Errorf("row counts: t1=%d t3=%d t4=%d", len(back.Table1), len(back.Table3), len(back.Table4))
	}
	if len(back.Table5) != 5 || len(back.Figure8) != 5 || len(back.Figure9) != 4 || len(back.Figure10) != 8 {
		t.Errorf("row counts: t5=%d f8=%d f9=%d f10=%d",
			len(back.Table5), len(back.Figure8), len(back.Figure9), len(back.Figure10))
	}
	if back.Options.Scale != 0.005 {
		t.Errorf("options not preserved: %+v", back.Options)
	}

	// A selection narrows the JSON exactly as it narrows the text.
	for _, c := range []struct {
		sel  Selection
		want []string
	}{
		{Selection{Table: 5}, []string{"options", "table5"}},
		{Selection{Fig: 8}, []string{"figure8", "options"}},
		{Selection{Table: 4, Fig: 9}, []string{"figure9", "options", "table4"}},
		{Selection{}, []string{"options"}},
	} {
		res, err := Collect(opts, c.sel, 40000)
		if err != nil {
			t.Fatal(err)
		}
		if keys, _ := topLevelKeys(t, res); !reflect.DeepEqual(keys, c.want) {
			t.Errorf("%+v: top-level keys = %v, want %v", c.sel, keys, c.want)
		}
		if c.sel.Table == 5 && !reflect.DeepEqual(res.Table5, all.Table5) {
			t.Error("-table 5 alone computes different rows from the full run")
		}
	}
}
