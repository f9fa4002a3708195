package core

import (
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sunder/internal/bitvec"
)

// TestReportEntryRoundTrip writes entries of every interesting shape —
// word-aligned, straddling a 64-bit word, exactly 64 bits, wider than a
// word — through the word-level path and checks the stored bits, the
// parity and the host-side decode against a bit-by-bit reference.
func TestReportEntryRoundTrip(t *testing.T) {
	for _, shape := range []struct{ reportColumns, metadataBits int }{
		{12, 20}, // 32: the paper's entry, never straddles
		{12, 19}, // 31: every other entry straddles a word
		{7, 30},  // 37
		{1, 1},   // 2
		{20, 44}, // 64 exactly
		{33, 31}, // 64, report bits past the middle
		{63, 1},  // 64, one metadata bit
		{64, 1},  // 65: first width on the bit-by-bit path
		{40, 30}, // 70
		{12, 116},
		{100, 100},
	} {
		cfg := DefaultConfig(2)
		cfg.ReportColumns, cfg.MetadataBits = shape.reportColumns, shape.metadataBits
		m := bare(t, cfg, 2)
		for i := range m.place.StateAt {
			for c := ColsPerSubarray - cfg.ReportColumns; c < ColsPerSubarray; c++ {
				m.place.StateAt[i][c] = int32(c)
			}
		}
		ref := newSpec(m)
		rng := rand.New(rand.NewSource(int64(cfg.EntryBits())))
		metaMask := int64(1)<<uint(min(cfg.MetadataBits, 62)) - 1

		type entry struct {
			rep  bitvec.V256
			meta int64
		}
		written := make([][]entry, 2)
		for n := 0; n < 2*cfg.RegionCapacity()-3; n++ {
			i := n % 2
			var e entry
			if rng.Intn(5) > 0 { // else a stride marker: no report bits
				for k := rng.Intn(3) + 1; k > 0; k-- {
					e.rep.Set(ColsPerSubarray - 1 - rng.Intn(cfg.ReportColumns))
				}
			}
			e.meta = rng.Int63() & metaMask
			m.writeEntry(i, e.rep, e.meta)
			ref.writeEntry(i, e.rep, e.meta)
			written[i] = append(written[i], e)
		}
		if !slices.Equal(m.region, ref.region) || !slices.Equal(m.pus, ref.pus) {
			t.Fatalf("%+v: stored entries differ from the bit-by-bit reference", shape)
		}
		for i, entries := range written {
			var want []ReportRecord
			var stride int64
			for slot, e := range entries {
				par := (e.rep.Count()+bits.OnesCount64(uint64(e.meta)))&1 != 0
				if got := m.entryParity(i, slot); got != par || got != ref.entryParity(i, slot) {
					t.Fatalf("%+v: PU %d slot %d parity %v, written %v", shape, i, slot, got, par)
				}
				if !e.rep.Any() {
					stride += e.meta
					continue
				}
				want = append(want, ReportRecord{
					Cycle:  stride<<uint(cfg.MetadataBits) | e.meta,
					States: appendStates(nil, m.place.StateAt[i], e.rep),
				})
			}
			if got := m.ReadReports(i); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v: PU %d decodes %d records, wrote %d; first got %+v", shape, i, len(got), len(want), got[:min(1, len(got))])
			}
		}
	}
}

// idleHook is a fault hook that injects nothing.
type idleHook struct{}

func (idleHook) BeforeCycle(*Machine, int64) {}
func (idleHook) DropDrain(int) bool          { return false }

// TestCloneImageIsolation is the own() contract: whatever one clone does to
// its configuration — a flipped match-row bit, a forced crossbar switch, a
// scrub, a cache line written over a match row in normal mode — the
// prototype and its sibling clones keep the image they share, bit for bit,
// and keep stepping on it concurrently (run under -race).
func TestCloneImageIsolation(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.FIFO = true
	proto, units := workloadMachine(t, "Snort", cfg, 2000)
	shared := proto.img
	golden := shared.clone()
	want := proto.Clone().Run(units, RunOptions{RecordEvents: true})

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() { // shard workers: clone and run while the mutators write
			defer wg.Done()
			for r := 0; r < 3; r++ {
				c := proto.Clone()
				if got := c.Run(units, RunOptions{RecordEvents: true}); !reflect.DeepEqual(got, want) {
					t.Error("a sibling clone's run changed under a mutating clone")
				}
				if c.img != shared {
					t.Error("a read-only clone left the shared image")
				}
			}
		}()
	}
	mutators := []func(c *Machine){
		func(c *Machine) { c.FlipRowBit(0, 3, 5) },
		func(c *Machine) { c.SetXbarBit(1, 7, 9, !c.XbarBit(1, 7, 9)) },
		func(c *Machine) {
			c.AttachFaults(idleHook{})
			c.FlipRowBit(2, cfg.MatchRows()-1, 200)
			c.SetXbarBit(0, 0, 0, !c.XbarBit(0, 0, 0))
			if res := c.ScrubConfig(); res.RepairedBits != 2 || res.PerPU[2] != 1 || res.PerPU[0] != 1 {
				t.Errorf("scrub repaired %+v, want one bit each in PUs 0 and 2", res)
			}
			if res := c.ScrubConfig(); res.RepairedBits != 0 {
				t.Errorf("second scrub repaired %d bits", res.RepairedBits)
			}
		},
		func(c *Machine) {
			c.EnterNormalMode()
			if err := c.NormalWrite(0, 1, bitvec.V256{}.Not()); err != nil {
				t.Error(err)
			}
			if got, _ := c.NormalRead(0, 1); got != (bitvec.V256{}.Not()) {
				t.Error("normal-mode write not read back")
			}
			c.EnterAutomataMode()
			if c.img != shared {
				t.Error("automata mode did not restore the shared image")
			}
		},
	}
	for _, mutate := range mutators {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := proto.Clone()
			mutate(c)
			// A clone of a machine with a private image gets its own copy.
			if cc := c.Clone(); c.owned && cc.img == c.img {
				t.Error("clone shares a private image with its owner")
			}
		}()
	}
	wg.Wait()

	if proto.img != shared || !slices.Equal(shared.match, golden.match) || !slices.Equal(shared.xbar, golden.xbar) {
		t.Fatal("the shared image changed under a mutating clone")
	}
	// A report-region flip is execution state: it never takes the image.
	c := proto.Clone()
	c.FlipRowBit(0, cfg.MatchRows(), 0)
	if c.img != shared || !c.regionOf(0)[0].Get(0) {
		t.Error("report-row flip should land in the clone's region only")
	}
}
